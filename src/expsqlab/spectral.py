"""Torus geometry, Fourier transforms, Sobolev norms and heat semigroups
on the two-dimensional torus [0, 2*pi)^2.

Conventions
-----------
A real field ``u`` is represented by the coefficients of the complex
orthonormal basis ``(2*pi)^{-1} exp(i k.x)``, so

    coeff(k) = <u, basis_k> = (2*pi / M^2) * fft2(u)[k],
    u(x_j)   = (M^2 / (2*pi)) * ifft2(coeff)[j],

with the numpy FFT mode layout ``k in [-M/2, M/2)`` per axis.  A constant
field ``c`` therefore has ``coeff(0) = 2*pi*c``, and discrete Parseval
holds exactly: ``sum_k |coeff(k)|^2 = (2*pi/M)^2 * sum_j u_j^2``.

Real-valuedness is the Hermitian symmetry ``coeff(-k) = conj(coeff(k))``
(indices mod M, which also ties the Nyquist rows to themselves); every
operation in this module preserves it because all multipliers are real
and even in k.

``to_coeffs``/``to_values`` are the package's one grid <-> spectral
transform pair, on bare arrays of one field (M, M) or a stack (n, M, M)
and without validation; the solver loops call them directly,
``to_spectral`` wraps the forward one for fields and
``SpectralField.values`` the inverse one.  Beneath the forward one is
the package's one forward FFT, ``scaled_fft``: ``to_coeffs`` is it at
2*pi/M^2, and ``randomfields`` calls it on grid white noise at each
mode's standard deviation.  ``heat_multiplier`` is the symbol of the
semigroup exp(t (Lap - 1)/2) for the OU decay and the flows' one
exponential-Euler step (``dynamics._mild_step``), and
``TorusGrid.sobolev_weight`` the one Sobolev symbol (1 + |k|^2)^s; both
are computed once per grid and argument (``TorusGrid.cached``), so every
user of one holds the same read-only array (``heat_semigroup`` forms
the symbol uncached, at any t).

Workspaces: ``scaled_fft``, ``to_coeffs`` and ``to_values`` take
optional output arrays, so a step loop allocates its spectral and grid
temporaries once per call and overwrites them every step, with the same
ufuncs on the same operands as the allocating path, so every bit is the
same.  The stochastic flows of ``dynamics`` yield one state buffer that
the next step overwrites, as ``experiments.cmd_sample_gff`` yields
workspace views, each written to the dump before the next block is
drawn; a caller that keeps a state copies it.  The inverse transform
calls ``ifftn`` over the last two axes, not ``ifft2``: numpy's ``ifft2``
(2.4) does not pass ``out`` on to the transform and returns a new array,
while ``ifftn`` over those axes is the same transform and writes into
``out``.  The forward FFT casts its real input into a complex ``out``
and transforms there in place: ``fft2`` of real input makes that cast
into a temporary of its own per call, as the pocketfft gufunc has
complex loops only, so the same bits come with no temporary.
``sobolev_norms`` likewise forms |coeff|^2 one field at a time in a
workspace of one field, and the norms of a difference (``minus``) from
its real and imaginary parts in the same workspace, so no complex
difference is formed.

``blocks`` is the package's one block policy: stacks of fields are
evaluated BLOCK_BYTES per complex (n, M, M) array at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "TorusGrid",
    "SpectralField",
    "BLOCK_BYTES",
    "blocks",
    "scaled_fft",
    "to_coeffs",
    "to_values",
    "to_spectral",
    "field_from_coeffs",
    "zero_field",
    "sobolev_norm",
    "sobolev_norms",
    "heat_multiplier",
    "heat_semigroup",
    "grid_quadrature",
    "hermitian_defect",
]

TWO_PI = 2.0 * np.pi


class TorusGrid:
    """Uniform M x M collocation grid on the torus, M a power of two, M >= 8.

    Mode arrays are precomputed; Sobolev weights and other per-grid mode
    arrays are computed lazily once (``cached``) and kept read-only, so
    instances are immutable and safe to share between workers.
    """

    def __init__(self, modes_per_dim: int):
        M = modes_per_dim
        if not isinstance(M, (int, np.integer)):
            raise TypeError(f"modes_per_dim must be an integer, got {M!r}")
        M = int(M)
        if M < 8:
            raise ValueError(f"grid must have at least 8 modes per axis, got {M}")
        if M & (M - 1) != 0:
            raise ValueError(f"modes_per_dim must be a power of two, got {M}")
        self.modes_per_dim = M
        self.spacing = TWO_PI / M
        # integer wavenumbers in FFT layout: 0, 1, ..., M/2-1, -M/2, ..., -1
        self.mode_axis = np.fft.fftfreq(M, d=1.0 / M).astype(np.int64)
        # |k|^2 at [i, j] for k = (mode_axis[i], mode_axis[j]), broadcast
        # from the axis in exact int64 arithmetic
        kx, ky = self.mode_axis[:, None], self.mode_axis[None, :]
        self.ksq = (kx * kx + ky * ky).astype(np.float64)
        self._cache: dict = {}
        for arr in (self.mode_axis, self.ksq):
            arr.setflags(write=False)

    @property
    def npoints(self) -> int:
        return self.modes_per_dim**2

    @property
    def cell_area(self) -> float:
        return self.spacing**2

    def cached(self, key, build) -> np.ndarray:
        """The array ``build()`` returns, computed on the first call with
        ``key`` on this grid and kept read-only for the later ones."""
        arr = self._cache.get(key)
        if arr is None:
            arr = build()
            arr.setflags(write=False)
            self._cache[key] = arr
        return arr

    def sobolev_weight(self, s: float) -> np.ndarray:
        """Flattened (1 + |k|^2)^s over all grid modes."""
        s = float(s)
        return self.cached(("sobolev", s), lambda: (1.0 + self.ksq.ravel()) ** s)

    def __eq__(self, other) -> bool:
        return isinstance(other, TorusGrid) and other.modes_per_dim == self.modes_per_dim

    def __hash__(self) -> int:
        return hash(("TorusGrid", self.modes_per_dim))

    def __repr__(self) -> str:
        return f"TorusGrid(M={self.modes_per_dim})"


# bytes of one complex (n, M, M) block array in blocked evaluation; larger
# blocks save little more call overhead and add their temporaries to the
# peak memory of the run (fixed, not tunable: results never depend on it)
BLOCK_BYTES = 256 * 1024


def blocks(count: int, grid: TorusGrid) -> list:
    """Index ranges covering 0..count-1 in blocks of BLOCK_BYTES per field stack."""
    size = max(1, BLOCK_BYTES // (16 * grid.npoints))
    return [range(lo, min(lo + size, count)) for lo in range(0, count, size)]


@dataclass(frozen=True)
class SpectralField:
    """A real torus field stored as Hermitian-symmetric complex coefficients.

    ``coeffs`` is the full M x M complex array in FFT layout and is
    read-only.  Arithmetic helpers return new fields on the same grid.

    A stack of n fields on one grid is the same type with coeffs of shape
    (n, M, M).  Sampling (``gff_sample``), ``values`` and the Wick
    exponential (``wick.wick_exp``) evaluate a stack in one call, row by
    row bit-for-bit as one call per field; everything else takes one
    field at a time (``SpectralField(grid, row)`` is a row's field, a
    read-only view).
    """

    grid: TorusGrid
    coeffs: np.ndarray

    def __post_init__(self):
        M = self.grid.modes_per_dim
        c = self.coeffs
        if c.ndim not in (2, 3) or c.shape[-2:] != (M, M) or c.dtype != np.complex128:
            raise ValueError(
                f"coeffs must be complex128 of shape ({M}, {M}) or (n, {M}, {M}), "
                f"got {c.dtype} {c.shape}"
            )
        c.setflags(write=False)

    def values(self) -> np.ndarray:
        """Physical M x M samples, or (n, M, M) for a stack."""
        return to_values(self.coeffs, self.grid)

    def copy_coeffs(self) -> np.ndarray:
        return np.array(self.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        self._check_same_grid(other)
        return SpectralField(self.grid, self.coeffs - other.coeffs)

    def _check_same_grid(self, other: "SpectralField"):
        if other.grid != self.grid:
            raise ValueError("fields live on different grids")


def field_from_coeffs(grid: TorusGrid, coeffs: np.ndarray) -> SpectralField:
    """A field or stack; rejects non-finite coefficients and a Hermitian
    defect above 1e-10 of the largest |coeff|."""
    coeffs = np.ascontiguousarray(coeffs, dtype=np.complex128)
    if not np.all(np.isfinite(coeffs)):
        raise ValueError("coefficients contain non-finite entries")
    field = SpectralField(grid, coeffs)
    defect = hermitian_defect(field)
    scale = max(float(np.abs(coeffs).max()), 1.0)
    if defect > 1e-10 * scale:
        raise ValueError(f"coefficients are not Hermitian-symmetric (defect {defect:.3e})")
    return field


def zero_field(grid: TorusGrid) -> SpectralField:
    return SpectralField(grid, np.zeros((grid.modes_per_dim,) * 2, dtype=np.complex128))


def scaled_fft(values: np.ndarray, scale, out: np.ndarray | None = None) -> np.ndarray:
    """The package's one forward FFT, scale * fft2(values) per field of a
    stack (``scale`` a float or per mode): real ``values`` are cast into the
    complex ``out`` (allocated only if not given), transformed and scaled there."""
    if out is None:
        out = np.empty(values.shape, dtype=np.complex128)
    np.copyto(out, values)
    return np.multiply(np.fft.fft2(out, out=out), scale, out=out)


def to_coeffs(values: np.ndarray, grid: TorusGrid, out: np.ndarray | None = None) -> np.ndarray:
    """Grid samples -> coefficients, per field of a stack: ``scaled_fft`` at 2*pi/M^2."""
    return scaled_fft(values, TWO_PI / grid.npoints, out)


def to_values(
    coeffs: np.ndarray,
    grid: TorusGrid,
    work: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Coefficients -> grid samples, (M^2 / (2*pi)) * real(ifft2(coeffs)),
    per field of a stack (the imaginary residue of a Hermitian coefficient
    array is at rounding level).  The complex transform is written into
    ``work`` and the samples into ``out`` (real, the shape of ``coeffs``)
    when given; ``work`` may be ``coeffs`` itself only if its contents are
    no longer needed."""
    work = np.fft.ifftn(coeffs, axes=(-2, -1), out=work)
    return np.multiply(work.real, grid.npoints / TWO_PI, out=out)


def to_spectral(values: np.ndarray, grid: TorusGrid) -> SpectralField:
    """Physical M x M samples -> SpectralField.  Rejects non-finite input."""
    values = np.asarray(values, dtype=np.float64)
    M = grid.modes_per_dim
    if values.shape != (M, M):
        raise ValueError(f"expected shape ({M}, {M}), got {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError("physical values contain non-finite entries")
    return SpectralField(grid, to_coeffs(values, grid))


def hermitian_defect(field: SpectralField) -> float:
    """max |coeff(k) - conj(coeff(-k))| over the grid and a stack's rows (0 for real fields)."""
    c = field.coeffs
    mirrored = np.roll(np.flip(c, axis=(-2, -1)), shift=1, axis=(-2, -1))
    return float(np.abs(c - np.conj(mirrored)).max())


def grid_quadrature(values: np.ndarray, grid: TorusGrid):
    """Trapezoid-on-torus (= rectangle) quadrature, exact for trig
    polynomials of degree < M per axis.  A stack of fields (n, M, M) gives
    one value per field, each summed as the single field would be."""
    if values.ndim == 2:
        return float(values.sum()) * grid.cell_area
    return values.reshape(len(values), grid.npoints).sum(axis=1) * grid.cell_area


def sobolev_norms(coeffs: np.ndarray, grid: TorusGrid, orders, minus=None) -> np.ndarray:
    """The package's one norm kernel (level and contraction gaps, Besov
    blocks): ``sobolev_norm`` at each of ``orders`` for each field of a
    bare coefficient stack (n, M, M), as an array (len(orders), n); given
    a stack ``minus`` of the same shape, the norms of ``coeffs - minus``.

    |coeff|^2 is formed once per field for all orders, one field at a time
    in two (M^2,) workspace rows, and each sum is the ``np.dot`` of it (a
    matrix product would sum in another order), so every entry is
    bit-for-bit ``sobolev_norm``'s and no stack-sized temporary is made.
    With ``minus`` the rows first take the real and imaginary differences,
    which is how complex subtraction works, so no complex difference is
    formed and the bits are those of the norms of the difference.
    """
    weights = [grid.sobolev_weight(s) for s in orders]
    sums = np.empty((len(weights), len(coeffs)))
    abs2, im2 = np.empty((2, grid.npoints))
    flat = coeffs.reshape(len(coeffs), grid.npoints)
    if minus is not None:
        minus = minus.reshape(flat.shape)
    for i, field in enumerate(flat):
        re, im = field.real, field.imag
        if minus is not None:
            re = np.subtract(re, minus[i].real, out=abs2)
            im = np.subtract(im, minus[i].imag, out=im2)
        np.multiply(re, re, out=abs2)
        np.multiply(im, im, out=im2)
        np.add(abs2, im2, out=abs2)
        for k, w in enumerate(weights):
            sums[k, i] = np.dot(w, abs2)
    return np.sqrt(sums)


def sobolev_norm(field: SpectralField, s: float) -> float:
    """sqrt( sum_k (1+|k|^2)^s |coeff(k)|^2 ) of one field; a stack
    goes through ``sobolev_norms``."""
    if field.coeffs.ndim != 2:
        raise ValueError("need one field (M, M), not a stack")
    return float(sobolev_norms(field.coeffs[None], field.grid, (s,))[0, 0])


def _heat_symbol(grid: TorusGrid, t: float) -> np.ndarray:
    return np.exp(-0.5 * t * (1.0 + grid.ksq))


def heat_multiplier(grid: TorusGrid, t: float) -> np.ndarray:
    """exp(-(1+|k|^2) t / 2) over the grid modes: the symbol of exp(t*(Lap - 1)/2).

    Computed once per (grid, t) (``TorusGrid.cached``) and read-only, so
    the OU chain, its increments and the flows' one exponential-Euler
    step (``dynamics._mild_step``) share one array."""
    t = float(t)
    return grid.cached(("heat", t), lambda: _heat_symbol(grid, t))


def heat_semigroup(field: SpectralField, t: float) -> SpectralField:
    """exp(t*(Lap - 1)/2): multiplies coeff(k) by exp(-(1+|k|^2) t / 2)."""
    if t < 0:
        raise ValueError(f"semigroup time must be nonnegative, got {t}")
    return SpectralField(field.grid, _heat_symbol(field.grid, float(t)) * field.coeffs)
