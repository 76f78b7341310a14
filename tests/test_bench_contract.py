"""What the benchmark under ``perfbench/`` needs from the package.

The benchmark wraps named functions, calls every ``cmd_*`` driver with
``threads=1`` and stamps ``expsqlab.KERNEL_BACKEND``; deleting or renaming
any of these must fail here rather than in a benchmark run.  Every
benchmark run also checks each workload's report body against a digest
pinned at seed 0, so a body drift must fail here too.  Before the digest,
each body is compared field by field with its value golden in
``tests/golden/workloads.json`` (``json.loads(report.body_bytes())`` of
each workload at seed 0): floats to a relative 1e-12, every other value
exactly, so a drift names the field that moved.  The same run pins the
work each workload does (``WORK_COUNTS``), so a change that adds or
drops transforms or generators fails here, not only as a slower
benchmark.  The tracing and workload modules are loaded from their files
and nothing is installed.
"""

import importlib
import importlib.util
import inspect
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import expsqlab
from expsqlab import RngStream, experiments, parse_config
from golden_values import GOLDEN_DIR, value_drift

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
GOLDEN = GOLDEN_DIR / "workloads.json"


def _load(name: str):
    """The module ``perfbench/<name>.py``, loaded from its file."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load("workloads")


def test_every_traced_target_resolves():
    for module_name, attr, _, _ in _load("tracing").TARGETS:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module_name, attr)


def test_every_command_accepts_threads():
    commands = [name for name in vars(experiments) if name.startswith("cmd_")]
    assert commands
    for name in commands:
        assert "threads" in inspect.signature(getattr(experiments, name)).parameters, name


def test_kernel_backend_is_stamped():
    assert isinstance(expsqlab.KERNEL_BACKEND, str)


def test_value_drift_names_the_field():
    want = {"a": 1.0, "b": [1, "x"], "c": {"d": True}}
    assert value_drift({"a": 1.0 + 1e-13, "b": [1, "x"], "c": {"d": True}}, want) == []
    assert value_drift({"a": 1.0 + 1e-11, "b": [1.0, "x"], "c": {"d": 1}}, want) == [
        f"body.a: {1.0 + 1e-11!r} != 1.0", "body.b[0]: 1.0 != 1", "body.c.d: 1 != True"
    ]
    assert value_drift({"a": 1.0, "b": [1], "c": {}}, want) == [
        "body.b: [1] != [1, 'x']", "body.c: keys [] != ['d']"
    ]


# the work each workload does at seed 0: calls into numpy's FFT pair,
# 2-D transforms (a call transforms the product of its leading axes) and
# RngStream generators built
WORK_COUNTS = {
    "sqe-M256": {"fft_calls": 1410, "transforms": 1410, "generators": 4},
    "invariance-M32": {"fft_calls": 3161, "transforms": 49000, "generators": 5401},
    "gff-dump-M64": {"fft_calls": 1000, "transforms": 4000, "generators": 4000},
}


def _counting(monkeypatch) -> Counter:
    """Counts of the work named in WORK_COUNTS, taken from here on."""
    counts = Counter()

    def transform(fn):
        def counted(a, *args, **kwargs):
            counts["fft_calls"] += 1
            counts["transforms"] += math.prod(a.shape[:-2])
            return fn(a, *args, **kwargs)

        return counted

    for name in ("fft2", "ifftn"):
        monkeypatch.setattr(np.fft, name, transform(getattr(np.fft, name)))
    generator = RngStream.generator

    def counted_generator(self):
        counts["generators"] += 1
        return generator(self)

    monkeypatch.setattr(RngStream, "generator", counted_generator)
    return counts


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_workload_digest_at_seed_0(name, monkeypatch):
    # the full config as the benchmark child parses it; no out_dir, so
    # the dump of gff-dump-M64 is not written
    spec = WORKLOADS.WORKLOADS[name]
    cfg = parse_config(WORKLOADS.config_text(name), {"seed": WORKLOADS.DEFAULT_SEED})
    cmd = getattr(experiments, "cmd_" + spec["command"].replace("-", "_"))
    counts = _counting(monkeypatch)
    report = cmd(cfg, out_dir=None, threads=1)
    assert report.exit_code == 0
    golden = json.loads(GOLDEN.read_text())[name]
    assert value_drift(json.loads(report.body_bytes()), golden) == []
    assert report.body_digest() == spec["digest"]
    assert counts == WORK_COUNTS[name]
