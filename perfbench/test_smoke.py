"""Smoke test of the benchmark itself: every workload once, traced and
untraced, on tiny configs, with the emitted metric names and units
checked against BENCHMARK.json.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_smoke_mode_emits_the_declared_metrics():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[-1] == "smoke ok"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = [json.loads(line) for line in lines[:-1]]
    assert {(r["workload"], r["trace"]) for r in runs} == {
        (w["name"], t) for w in spec["workloads"] for t in (0, 1)
    }
    for r in runs:
        for m in r["metrics"].values():
            assert isinstance(m["value"], (int, float))
        if r["trace"] == 1:
            # every layer that runs in a workload reports work
            assert r["metrics"]["spectral.fft_calls"]["value"] > 0
            assert r["metrics"]["experiments.self_s"]["value"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sqe-M256", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_layer_times_count_nested_spans_once():
    sys.path.insert(0, str(ROOT / "perfbench"))
    import tracing

    t = tracing.Tracer()
    # experiments [0, 10] > solve [1, 9] > (fft [2, 3], solve [4, 8] > norm [5, 6])
    t.spans = [
        ["experiments", 0.0, 10.0, -1],
        ["dynamics.solve", 1.0, 9.0, 0],
        ["spectral.fft", 2.0, 3.0, 1],
        ["dynamics.solve", 4.0, 8.0, 1],
        ["spectral.norm", 5.0, 6.0, 3],
    ]
    m = tracing.layer_metrics(t)
    assert m["dynamics.solves"] == 2
    assert m["dynamics.solve_s"] == 8.0
    assert m["dynamics.self_s"] == (8.0 - 1.0 - 4.0) + (4.0 - 1.0)
    assert m["spectral.fft_calls"] == 1 and m["spectral.fft_s"] == 1.0
    assert m["experiments.self_s"] == 2.0
