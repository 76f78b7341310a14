"""What the benchmark under ``perfbench/`` needs from the package.

The benchmark wraps named functions, calls every ``cmd_*`` driver with
``threads=1`` and stamps ``expsqlab.KERNEL_BACKEND``; deleting or renaming
any of these must fail here rather than in a benchmark run.  Every
benchmark run also checks each workload's report body against a digest
pinned at seed 0, so a body drift must fail here too.  The tracing and
workload modules are loaded from their files and nothing is installed.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import expsqlab
from expsqlab import experiments, parse_config

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_workload_digest_at_seed_0(name):
    # the full config as the benchmark child parses it; no out_dir, so
    # the dump of gff-dump-M64 is not written
    spec = WORKLOADS.WORKLOADS[name]
    cfg = parse_config(WORKLOADS.config_text(name), {"seed": WORKLOADS.DEFAULT_SEED})
    cmd = getattr(experiments, "cmd_" + spec["command"].replace("-", "_"))
    report = cmd(cfg, out_dir=None, threads=1)
    assert report.exit_code == 0
    assert report.body_digest() == spec["digest"]
