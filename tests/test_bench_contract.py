"""What the benchmark under ``perfbench/`` needs from the package.

The benchmark wraps named functions, calls every ``cmd_*`` driver with
``threads=1`` and stamps ``expsqlab.KERNEL_BACKEND``; deleting or renaming
any of these must fail here rather than in a benchmark run.  The tracing
module is loaded from its file and nothing is installed.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import expsqlab
from expsqlab import experiments

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    for module_name, attr, _, _ in _tracing().TARGETS:
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
