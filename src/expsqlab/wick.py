"""Cutoff profiles, spectral projections, renormalization constants and
Wick exponentials.

The Wick exponential of a field phi at charge alpha and cutoff level N is
the closed form exp(alpha * P_N phi(x) - alpha^2 C_N / 2), with C_N the
variance of P_N phi at a point under the free field.  The Hermite series
that defines it is kept only as a test oracle (see hermite); the closed
form is exact and cheaper.

``WickParams`` is the one description of that exponential: it carries
its cutoff profile psi next to the level N and the C_N computed from
them, so the projection P_N (``WickParams.multiplier``) and the shift
alpha^2 C_N / 2 (``WickParams.shift``) cannot come from different
cutoffs.  Every Wick-facing function takes the parameters alone; only
the primitives C_N is computed from (``CutoffProfile``,
``renorm_constant``, ``green_kernel_point``) take a profile and a level.
All read the one symbol psi(2^{-N} k) that ``CutoffProfile.multiplier``
caches per grid, kind and level (``TorusGrid.cached``), and C_N is
K_N(0), one mode sum.  ``wick_exp`` is the one Wick exponential: the
guarded ``wick_exp_values`` and the flows' drift and forcing call it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import SpectralField, TorusGrid, to_values

__all__ = [
    "WickOverflowError",
    "CutoffProfile",
    "WickParams",
    "make_wick_params",
    "hermite",
    "renorm_constant",
    "wick_exp",
    "wick_exp_values",
    "scaled_exp",
    "analytic_wick_cov",
    "green_kernel_point",
    "ALPHA_MAX",
]

# admissible charge window for the L^2 chaos regime
ALPHA_MAX = math.sqrt(4.0 * math.pi)

OVERFLOW_EXPONENT = 700.0
# exponents are capped here before exp only to dodge the overflow warning;
# every caller rejects fields whose exponent passes OVERFLOW_EXPONENT
_EXP_CAP = 705.0


class WickOverflowError(FloatingPointError):
    """Raised when the Wick exponent exceeds the overflow guard; carries the
    offending exponent so drivers can report the flagged replica."""

    def __init__(self, max_exponent: float):
        super().__init__(
            f"Wick exponent {max_exponent:.1f} exceeds the overflow guard "
            f"({OVERFLOW_EXPONENT:g}); replica must be flagged, not clamped"
        )
        self.max_exponent = max_exponent


@dataclass(frozen=True)
class CutoffProfile:
    """Radial Fourier multiplier profile psi.

    kind is 'sharp' (indicator of the unit ball) or 'smooth' (Gaussian
    exp(-|x|^2)).  Both are admissible for (theta, m) = (0.99, 4):
    |psi(x) - 1| <~ |x|^theta near 0 and sup |x|^m psi(x) < inf, which
    the test suite checks by sampling ``_radial``, psi as a function of
    the radius; no operator reads theta or m.
    """

    kind: str

    def __post_init__(self):
        if self.kind not in ("sharp", "smooth"):
            raise ValueError(f"unknown cutoff kind {self.kind!r}")

    def _radial(self, r: np.ndarray) -> np.ndarray:
        """psi(r): the sharp indicator as a boolean mask, the smooth in float64."""
        if self.kind == "sharp":
            return r <= 1.0
        return np.exp(-(r * r))

    def max_level(self, grid: TorusGrid) -> int:
        """Largest admissible cutoff level: 2^(N+2) <= M/2."""
        return int(math.floor(math.log2(grid.modes_per_dim / 2))) - 2

    def multiplier(self, grid: TorusGrid, level: int) -> np.ndarray:
        """psi(2^{-N} k) over the grid modes, cached read-only per grid, kind
        and level; the sharp one is a boolean mask, which numpy multiplies
        as exactly 1.0 or 0.0, the bits of the float indicator."""
        if level < 0:
            raise ValueError(f"cutoff level must be nonnegative, got {level}")
        if level > self.max_level(grid):
            raise ValueError(
                f"cutoff level {level} too high for grid M={grid.modes_per_dim} "
                f"(need 2^(N+2) <= M/2)"
            )
        key = ("cutoff", self.kind, level)
        return grid.cached(key, lambda: self._radial(np.sqrt(grid.ksq) / 2.0**level))

    def tail_bound(self, grid: TorusGrid, level: int) -> float:
        """Upper bound on the part of the renormalization sum carried by
        modes outside the grid, sum_{|k| > M/2} psi(2^{-N}k)^2/(1+|k|^2)/(4 pi^2)."""
        R = grid.modes_per_dim / 2
        if self.kind == "sharp":
            # compact support |k| <= 2^N, inside the grid by the level guard
            return 0.0
        # integral comparison: sum over |k| > R bounded by the shifted
        # radial integral 2 pi * int_{R-1} r e^{-2 r^2/4^N}/(1+r^2) dr
        a = 2.0 / 4.0**level
        r0 = R - 1.0
        return (2.0 * math.pi) / (1.0 + r0 * r0) * math.exp(-a * r0 * r0) / (2.0 * a) / (
            4.0 * math.pi**2
        )


@dataclass(frozen=True)
class WickParams:
    """Charge alpha, cutoff level and profile psi, the renormalization
    constant c_n derived from them and the regularity exponent beta in
    (alpha^2/(4 pi), 1)."""

    alpha: float
    level: int
    psi: CutoffProfile
    c_n: float
    beta: float

    def __post_init__(self):
        if abs(self.alpha) >= ALPHA_MAX:
            raise ValueError(f"|alpha| must be below sqrt(4 pi) ~ {ALPHA_MAX:.4f}")
        if self.level < 0 or self.level != int(self.level):
            raise ValueError("level must be a nonnegative integer")
        if self.c_n < 0:
            raise ValueError("renormalization constant must be nonnegative")
        lo = self.alpha**2 / (4.0 * math.pi)
        if not (lo < self.beta < 1.0):
            raise ValueError(f"beta must lie strictly inside ({lo:.4f}, 1), got {self.beta}")

    @property
    def shift(self) -> float:
        """The Wick shift alpha^2 C_N / 2 subtracted in the exponent."""
        return 0.5 * self.alpha**2 * self.c_n

    def multiplier(self, grid: TorusGrid) -> np.ndarray:
        """The cutoff multiplier psi(2^{-N} k) of P_N over the grid modes,
        the grid's one cached array (``CutoffProfile.multiplier``)."""
        return self.psi.multiplier(grid, self.level)


def make_wick_params(
    alpha: float,
    level: int,
    psi: CutoffProfile,
    grid: TorusGrid,
    beta: float | None = None,
) -> WickParams:
    """WickParams holding ``psi`` and c_n computed from (psi, level, grid);
    beta defaults to 0.5 when admissible, else the midpoint of the
    admissible window."""
    lo = alpha**2 / (4.0 * math.pi)
    if beta is None:
        beta = 0.5 if lo < 0.5 else 0.5 * (lo + 1.0)
    return WickParams(
        alpha=alpha, level=level, psi=psi, c_n=renorm_constant(psi, level, grid), beta=beta
    )


def hermite(n: int, x, sigma: float):
    """Hermite polynomial H_n(x; sigma) with variance parameter sigma.

    Stable three-term recurrence H_{n+1} = x H_n - n sigma H_{n-1},
    H_0 = 1, H_1 = x; generating function exp(a x - a^2 sigma / 2).
    Accepts scalar or array x; documented range n <= 64.
    """
    if not (0 <= n <= 64):
        raise ValueError(f"order must lie in [0, 64], got {n}")
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    x = np.asarray(x, dtype=np.float64)
    sigma = float(sigma)
    h_prev, h = np.ones_like(x), x.copy()
    if n == 0:
        h = h_prev
    for j in range(1, n):
        h, h_prev = x * h - (j * sigma) * h_prev, h
    return float(h) if x.ndim == 0 else h


def renorm_constant(psi: CutoffProfile, level: int, grid: TorusGrid) -> float:
    """C_N = (1/(4 pi^2)) sum_k psi(2^{-N} k)^2 / (1 + |k|^2) over grid
    modes: K_N(0), ``green_kernel_point``'s sum at the origin (cos 0 = 1).

    Diverges like (log 2 / (2 pi)) * N; the truncation tail outside the
    grid must stay below 1e-8 (always true for the built-in profiles at
    admissible levels) or the call is rejected.
    """
    tail = psi.tail_bound(grid, level)
    if tail > 1e-8:
        raise ValueError(f"renormalization sum tail {tail:.2e} above tolerance 1e-8")
    return green_kernel_point(psi, level, grid, (0.0, 0.0))


def scaled_exp(values: np.ndarray, alpha: float, shift) -> tuple[np.ndarray, np.ndarray]:
    """exp(alpha * values - shift) on grid values of one field (M, M) or a
    stack (n, M, M), written over ``values``, and each field's largest
    exponent (one per field): the input of the overflow guard.  ``shift``
    is one float, or one per field of a stack shaped (n, 1, 1)."""
    expo = np.subtract(np.multiply(alpha, values, out=values), shift, out=values)
    peaks = expo.reshape(-1, values.shape[-2] * values.shape[-1]).max(axis=1)
    return np.exp(np.minimum(expo, _EXP_CAP, out=expo), out=expo), peaks


def wick_exp(
    coeffs: np.ndarray,
    params: WickParams,
    grid: TorusGrid,
    spec: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """exp(alpha P_N phi - shift) on the grid and each field's largest
    exponent (``scaled_exp``), for bare coefficients (M, M) or (n, M, M):
    P_N into ``spec``, inverse-transformed there, the values into ``out``
    (each allocated if not given, same bits); the caller guards the peaks."""
    proj = np.multiply(params.multiplier(grid), coeffs, out=spec)
    return scaled_exp(to_values(proj, grid, proj, out), params.alpha, params.shift)


def wick_exp_values(field: SpectralField, params: WickParams) -> np.ndarray:
    """``wick_exp`` of a field or stack, guarded: its values, or
    WickOverflowError with the exponent of the first field that passes
    (a NaN exponent passes, as in ``dynamics._guarded``)."""
    vals, peaks = wick_exp(field.coeffs, params, field.grid)
    over = np.flatnonzero(~(peaks <= OVERFLOW_EXPONENT))
    if over.size:
        raise WickOverflowError(float(peaks[over[0]]))
    return vals


def green_kernel_point(psi: CutoffProfile, level: int, grid: TorusGrid, z) -> float:
    """Truncated Green kernel K_N(z) = (4 pi^2)^{-1} sum_k psi(2^{-N} k)^2
    cos(k.z) / (1 + |k|^2) by direct mode summation; K_N(0) = C_N."""
    z = np.asarray(z, dtype=np.float64)
    m = psi.multiplier(grid, level)
    k = grid.mode_axis
    phase = k[:, None] * z[0] + k[None, :] * z[1]
    return float(np.sum(m * m * np.cos(phase) / (1.0 + grid.ksq))) / (4.0 * math.pi**2)


def analytic_wick_cov(params: WickParams, x, y, grid: TorusGrid) -> float:
    """Second-moment oracle E[wick(x) wick(y)] = exp(alpha^2 K_N(x - y))."""
    z = np.asarray(x, dtype=np.float64) - np.asarray(y, dtype=np.float64)
    return math.exp(params.alpha**2 * green_kernel_point(params.psi, params.level, grid, z))

