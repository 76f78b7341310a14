"""Backend selector for the per-point kernels.

The compiled extension is used only where benchmarks show it winning:
recurrences, reductions and fused complex updates (hermite_rec,
weighted_abs2_sum, ou_step, apply_multiplier).  scaled_exp stays with
numpy at either setting: its cost is the exponential itself and numpy's
SIMD exp beats a scalar libc loop several-fold; see
benchmarks/kernel_bench.py for the numbers on this host.

The package itself no longer calls ou_step or scaled_exp: the OU step
and the Wick exponential work on stacks of fields (n, M, M), which these
flat 1-D kernels do not take; randomfields.ou_chain and wick.scaled_exp
compute the same expressions with numpy.

``EXPSQLAB_PURE=1`` in the environment forces the numpy fallback for
everything (used by the parity tests and the benchmark).
"""

import os

from . import _kernels_py

PURE = _kernels_py
try:
    from . import _kernels as COMPILED  # type: ignore[attr-defined]
except ImportError:
    COMPILED = None

if os.environ.get("EXPSQLAB_PURE", "") == "1" or COMPILED is None:
    _fused = PURE
    BACKEND = "python"
else:
    _fused = COMPILED
    BACKEND = "compiled"

hermite_rec = _fused.hermite_rec
weighted_abs2_sum = _fused.weighted_abs2_sum
ou_step = _fused.ou_step
apply_multiplier = _fused.apply_multiplier
scaled_exp = PURE.scaled_exp

__all__ = [
    "BACKEND",
    "PURE",
    "COMPILED",
    "hermite_rec",
    "scaled_exp",
    "ou_step",
    "apply_multiplier",
    "weighted_abs2_sum",
]
