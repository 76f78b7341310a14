"""End-to-end benchmark of the expsqlab command drivers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a source checkout.  Each measured run of a workload
is a fresh single-threaded child process (``child.py``); children are
started one after another for about ``--seconds``, and the run reports
medians over them.  With ``--trace 0`` every child is untraced and the
end-to-end metrics are reported; with ``--trace 1`` untraced and traced
children alternate and the per-layer metrics are reported, with
``trace.overhead`` the ratio of their median CPU times.

Times are CPU time (user + system) of the child, not wall-clock time:
on a host whose virtual CPUs are shared, wall time includes time stolen
by other guests, which moved the medians of identical runs by up to 40%
while their CPU time moved by under 10%.  The programs measured are
single-threaded and do not wait on I/O, so on an idle host the two agree.

Every child is checked: exit status 0, a report whose ``body_digest``
equals the pinned digest (default seed) or the run's first digest (any
other seed), the same kernel backend throughout, and for the field dump
a byte-identical ``samples.bin``.  The last stdout line is the result
object; the environment stamp goes to stderr and, with every child's raw
numbers, to ``.perfbench/results.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
WORK_DIR = ROOT / ".perfbench"

# a run must end well inside three minutes, whatever --seconds asks
RUN_BUDGET_S = 165.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# report exit codes that mean the command ran: 0 passed its checks, 2 a
# statistical check rejected this seed's draws (the verdict is part of
# the digested body, so a changed verdict is still a digest mismatch)
COMPLETED = (0, 2)

END_TO_END_UNITS = {"cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "draws_per_s": "1/s"}
PER_LAYER_UNITS = {
    "spectral.fft_calls": "count",
    "spectral.fft_s": "s",
    "spectral.fft_bytes_computed": "bytes",
    "spectral.norm_calls": "count",
    "spectral.norm_s": "s",
    "rng.generators": "count",
    "rng.generator_s": "s",
    "randomfields.gff_draws": "count",
    "randomfields.gff_s": "s",
    "randomfields.ou_paths": "count",
    "randomfields.ou_s": "s",
    "wick.exp_calls": "count",
    "wick.exp_s": "s",
    "dynamics.solves": "count",
    "dynamics.steps": "count",
    "dynamics.solve_s": "s",
    "dynamics.self_s": "s",
    "measures.ensemble_draws": "count",
    "measures.ensemble_s": "s",
    "measures.evolve_s": "s",
    "measures.ess_fraction": "ratio",
    "measures.n_underflow": "count",
    "reports.bytes_written": "bytes",
    "reports.write_s": "s",
    "experiments.self_s": "s",
    "trace.overhead": "ratio",
}


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def run_child(workload: str, seed: int, traced: bool, smoke: bool, timeout: float) -> dict:
    """One fresh child process; returns its record, with ``error`` set on
    failure.  Peak RSS comes from the kernel's accounting of this child
    alone (wait4), so no earlier child's memory can show in it."""
    workdir = WORK_DIR / (workload + ("-smoke" if smoke else "") + ("-traced" if traced else ""))
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    deadline = time.monotonic() + timeout
    with (workdir / "child.log").open("wb") as log:
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "child.py"), workload, str(seed), str(workdir),
             "1" if traced else "0", "1" if smoke else "0"],
            stdout=log, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT,
        )
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    proc.kill()
                    pid, status, usage = os.wait4(proc.pid, 0)
                    break
                time.sleep(0.01)
        except BaseException:
            # interrupted or terminated: leave no child running
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)

    record = {"traced": traced, "returncode": proc.returncode,
              "peak_rss_mb": usage.ru_maxrss / 1024.0}
    result_file = workdir / "child.json"
    if proc.returncode != 0 or not result_file.is_file():
        tail = (workdir / "child.log").read_text(errors="replace").strip().splitlines()[-1:]
        record["error"] = f"child exited {proc.returncode}: {' '.join(tail)}"
        return record
    record.update(json.loads(result_file.read_text()))
    dump = workdir / "samples.bin"
    if dump.is_file():
        record["dump_digest"] = _sha256(dump)
        dump.unlink()
    return record


def check_children(children: list, workload: str, seed: int, smoke: bool):
    """Mark each child that breaks a correctness rule with ``error``."""
    pinned = WORKLOADS[workload]["digest"] if seed == DEFAULT_SEED and not smoke else None
    first = next((c for c in children if "error" not in c), None)
    for c in children:
        if "error" in c:
            continue
        if c["exit_code"] not in COMPLETED:
            c["error"] = f"command exit code {c['exit_code']}"
        elif pinned is not None and c["body_digest"] != pinned:
            c["error"] = f"body digest {c['body_digest']} != pinned {pinned}"
        elif c["body_digest"] != first["body_digest"]:
            c["error"] = "body digest differs between runs of one seed"
        elif c.get("dump_digest") != first.get("dump_digest"):
            c["error"] = "samples.bin differs between runs of one seed"
        elif c["backend"] != first["backend"]:
            c["error"] = f"kernel backend changed from {first['backend']} to {c['backend']}"


def _median(children: list, key: str) -> float:
    return statistics.median(c[key] for c in children)


def summarize(children: list, trace: bool) -> dict:
    """Medians over the good children, as ``{name: {value, unit}}``."""
    good = [c for c in children if "error" not in c]
    plain = [c for c in good if not c["traced"]]
    if trace:
        traced = [c for c in good if c["traced"]]
        values = {
            name: statistics.median(c["layers"][name] for c in traced)
            for name in PER_LAYER_UNITS if name != "trace.overhead"
        }
        values["trace.overhead"] = _median(traced, "cpu_s") / _median(plain, "cpu_s")
        units = PER_LAYER_UNITS
    else:
        values = {
            "cpu_s": _median(plain, "cpu_s"),
            "setup_s": _median(plain, "setup_s"),
            "peak_rss_mb": _median(plain, "peak_rss_mb"),
            "draws_per_s": statistics.median(c["draws"] / c["cpu_s"] for c in plain),
        }
        units = END_TO_END_UNITS
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def stamp(children: list) -> dict:
    first = next((c for c in children if "error" not in c), {})
    return {
        "python": sys.version.split()[0],
        "numpy": first.get("numpy"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "kernel_backend": first.get("backend"),
        "EXPSQLAB_PURE": os.environ.get("EXPSQLAB_PURE"),
        "threads_env": {var: child_env()[var] for var in THREAD_VARS},
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> list:
    """Start children back to back for about ``seconds``: another one
    starts while it would end nearer to ``seconds`` than stopping now.
    In a traced run untraced and traced children alternate."""
    children = []
    durations = []
    started = time.monotonic()
    while True:
        traced = trace and len(children) % 2 == 1
        t0 = time.monotonic()
        children.append(run_child(workload, seed, traced, False, RUN_BUDGET_S - (t0 - started)))
        durations.append(time.monotonic() - t0)
        elapsed = time.monotonic() - started
        typical = statistics.median(durations)
        if trace and len(children) < 2:
            continue
        if elapsed + 0.5 * typical >= seconds or elapsed + 1.5 * max(durations) > RUN_BUDGET_S:
            return children


def smoke() -> int:
    """Each workload once untraced and once traced on a tiny config; the
    emitted metrics must match BENCHMARK.json by name and unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
        print("smoke: BENCHMARK.json workloads differ from the workload table", file=sys.stderr)
        return 1
    for workload in WORKLOADS:
        children = [run_child(workload, DEFAULT_SEED, traced, True, 120.0) for traced in (False, True)]
        check_children(children, workload, DEFAULT_SEED, smoke=True)
        errors = [c["error"] for c in children if "error" in c]
        if errors:
            print(f"smoke {workload}: {errors}", file=sys.stderr)
            return 1
        for trace in (False, True):
            metrics = summarize(children, trace)
            got = {name: m["unit"] for name, m in metrics.items()}
            if got != expected[trace]:
                print(f"smoke {workload} trace={int(trace)}: metrics {got} != {expected[trace]}",
                      file=sys.stderr)
                return 1
            print(json.dumps({"workload": workload, "trace": int(trace), "metrics": metrics}))
    print("smoke ok")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny configs, validate names and units")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "expsqlab" / "__init__.py").is_file():
        print(f"no expsqlab sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if not (0 <= args.seed < 2**64):
        parser.error("--seed must be a 64-bit nonnegative integer")

    trace = bool(args.trace)
    children = measure(args.workload, args.seed, args.seconds, trace)
    check_children(children, args.workload, args.seed, smoke=False)
    env = stamp(children)
    print(json.dumps({"stamp": env}), file=sys.stderr)
    failed = [c for c in children if "error" in c]
    for c in failed:
        print(f"{args.workload}: {c['error']}", file=sys.stderr)
    good = [c for c in children if "error" not in c]
    if not any(not c["traced"] for c in good) or (trace and not any(c["traced"] for c in good)):
        print(f"{args.workload}: no usable run", file=sys.stderr)
        return 1

    metrics = summarize(children, trace)
    with (WORK_DIR / "results.jsonl").open("a") as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed, "trace": int(trace),
                             "stamp": env, "children": children, "metrics": metrics}) + "\n")
    print(json.dumps({"correct": not failed, "attempted": len(children),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
