"""Compare two sets of benchmark runs.

    python3 perfbench/compare.py BEFORE.jsonl AFTER.jsonl

Each file is a copy of ``.perfbench/results.jsonl`` from one checkout.
For every workload, trace mode and metric the table gives the median
and quartiles of the run values on each side and the ratio of medians.
Results taken on different kernel backends are refused (exit 2): the
compiled and numpy kernels differ per call by up to 3x, so such a ratio
would measure the build, not the change.
"""

import json
import statistics
import sys


def load(path: str) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def table(records: list) -> dict:
    values: dict = {}
    for r in records:
        for name, m in r["metrics"].items():
            values.setdefault((r["workload"], r["trace"], name, m["unit"]), []).append(m["value"])
    return values


def describe(values: list) -> str:
    med = statistics.median(values)
    if len(values) < 2:
        return f"{med:.6g} (n=1)"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}] (n={len(values)})"


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = load(argv[0]), load(argv[1])
    backends = {r["stamp"]["kernel_backend"] for r in before + after}
    if len(backends) != 1:
        print(f"refusing to compare results from different kernel backends: {sorted(map(str, backends))}",
              file=sys.stderr)
        return 2
    a, b = table(before), table(after)
    for key in sorted(a.keys() & b.keys()):
        workload, _, name, unit = key
        med_a = statistics.median(a[key])
        ratio = statistics.median(b[key]) / med_a if med_a else float("nan")
        print(f"{workload:15s} {name:28s} {unit:6s} {describe(a[key]):40s} -> "
              f"{describe(b[key]):40s} x{ratio:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
