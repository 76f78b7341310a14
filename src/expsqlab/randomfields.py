"""Exact Gaussian sampling on the torus grid.

Free field and per-mode Ornstein-Uhlenbeck transitions, both exact in
distribution (no time discretization error in the linear dynamics).

Real vs complex basis bookkeeping
---------------------------------
The noise is defined mode-wise on the real basis {(2*pi)^{-1},
cos(k.x)/(sqrt(2)*pi), sin(k.x)/(sqrt(2)*pi)}.  With cosine/sine
coefficients a_k, b_k the complex coefficient is

    coeff(k) = (a_k - i b_k) / sqrt(2),        coeff(-k) = conj(coeff(k)),

so i.i.d. N(0, v) real coefficients correspond to E|coeff(k)|^2 = v with
Re/Im each of variance v/2, and the k = 0 coefficient real with variance
v.  Sampling is realized by transforming grid white noise: fft2(white)/M
has exactly this law with v = 1, including the self-conjugate Nyquist
modes.  ``white_noise_fft`` is the one forward FFT outside ``spectral``:
it is the raw fft2 without the 2*pi/M^2 field normalization.

Workspaces (the rule of ``spectral``): ``white_noise_fft``, and through
it ``gff_sample`` and ``ou_chain``, draw the real noise into a ``white``
array and transform it in place in a complex ``out`` array, both
allocated only when not given.  Copying the noise into ``out`` is the
same real -> complex cast that ``fft2`` makes of real input into a
temporary of its own, so every bit is the same and a caller that holds
the two workspaces (``experiments.cmd_sample_gff``, ``ou_chain``)
allocates no noise or transform array per draw.  ``ou_chain`` takes
the same two workspaces, so the flows of ``dynamics`` lend it their step
workspaces, and writes every state into one state buffer, so it
allocates nothing per step and yields that buffer each time, as the
flows do; ``ou_path`` copies the states it keeps.

Parameters named ``stream`` are :class:`~expsqlab.rng.RngStream` values;
every sampler is a pure function of (inputs, stream).  The samplers work
on stacks of fields (n, M, M) with one generator per row, and a single
field is the stack of one: row i of a stack is bit-for-bit the field its
own stream gives alone.

A path of fields is a :class:`FieldPath` (dt, states) at the times 0, dt,
2 dt, ...: ``ou_path`` returns one, every solver in ``dynamics`` returns
one, and the shifted equation reads its OU trajectory as one.  The OU
decay is ``spectral.heat_multiplier``, the symbol of the drift (Lap-1)/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import RngStream
from .spectral import SpectralField, TorusGrid, heat_multiplier

__all__ = [
    "FieldPath",
    "gff_sample",
    "white_noise_fft",
    "gff_mode_variance",
    "ou_noise_variance",
    "ou_chain",
    "ou_path",
]


@dataclass(frozen=True)
class FieldPath:
    """Fields on one grid at the times 0, dt, 2 dt, ..., one state per
    time: the package's one path type (OU trajectories and solver outputs
    alike)."""

    dt: float
    states: list

    def __post_init__(self):
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not self.states:
            raise ValueError("a path needs at least one state")
        grids = {s.grid for s in self.states}
        if len(grids) > 1:
            raise ValueError("all states must share one grid")

    @property
    def times(self) -> np.ndarray:
        """0, dt, ..., as ``dynamics.time_grid`` spells it."""
        return np.arange(len(self.states)) * self.dt

    @property
    def grid(self) -> TorusGrid:
        return self.states[0].grid

    def final(self) -> SpectralField:
        return self.states[-1]


def white_noise_fft(grid: TorusGrid, generators, white=None, out=None) -> np.ndarray:
    """fft2 of grid white noise, a stack (n, M, M) with row i drawn from
    ``generators[i]``: the one white-noise sampler behind every Gaussian
    draw of the package.  The noise is drawn into ``white`` (real),
    copied into ``out`` (complex) and transformed there in place; either
    workspace is allocated only when not given."""
    M = grid.modes_per_dim
    if white is None:
        white = np.empty((len(generators), M, M))
    for row, g in zip(white, generators):
        g.standard_normal(out=row)
    if out is None:
        out = np.empty(white.shape, dtype=np.complex128)
    # the same real -> complex cast fft2 makes of real input, into out
    np.copyto(out, white)
    return np.fft.fft2(out, out=out)


def _white_spectral(grid: TorusGrid, generators, white=None, out=None) -> np.ndarray:
    """Hermitian coefficient stack with unit variance per mode, through the
    workspaces of ``white_noise_fft``.  The scaling divides the float64
    view: numpy divides a complex array by a complex scalar (Smith's
    rule, which multiplies by 1/M), about ten times slower, and with M a
    power of two both give the same bits."""
    coeffs = white_noise_fft(grid, generators, white, out)
    parts = coeffs.view(np.float64)
    parts /= grid.modes_per_dim
    return coeffs


def gff_mode_variance(grid: TorusGrid) -> np.ndarray:
    """Stationary per-mode variance (1 + |k|^2)^{-1}."""
    return 1.0 / (1.0 + grid.ksq)


def gff_sample(grid: TorusGrid, stream, white=None, out=None) -> SpectralField:
    """One draw from the massive free field: independent mode coefficients
    with E|coeff(k)|^2 = (1+|k|^2)^{-1}, coeff(0) real with variance 1.

    Given a sequence of streams instead of one, returns the stack of their
    draws in one pass, row i the draw of ``stream[i]``.  ``white`` and
    ``out`` are the workspaces of ``white_noise_fft``; when ``out`` is
    given the draw is a read-only view of it, valid until ``out`` is
    written again.  The mode standard deviation is computed once per grid
    (``TorusGrid.cached``).
    """
    streams = [stream] if isinstance(stream, RngStream) else stream
    coeffs = _white_spectral(grid, [s.generator() for s in streams], white, out)
    coeffs *= grid.cached("gff_sd", lambda: np.sqrt(gff_mode_variance(grid)))
    # a view: the field freezes it, not the caller's workspace
    return SpectralField(grid, coeffs[0] if isinstance(stream, RngStream) else coeffs[:])


def ou_noise_variance(grid: TorusGrid, dt: float) -> np.ndarray:
    """Exact transition noise variance (1 - exp(-(1+|k|^2) dt))/(1+|k|^2).

    Satisfies the two-half-step identity
    v(dt/2) * (1 + exp(-(1+|k|^2) dt/2)) = v(dt) exactly.
    """
    c = 1.0 + grid.ksq
    return -np.expm1(-dt * c) / c


def ou_chain(grid: TorusGrid, coeffs: np.ndarray, dt, n_steps, generators, white=None, noise=None):
    """The exact OU chain: yields the coefficient stack after each of
    ``n_steps`` steps of ``dt`` from the stack ``coeffs`` (n, M, M).  Row
    i draws its noise from ``generators[i]``, one step at a time, so a
    row is bit-for-bit the chain of that generator alone.  The decay is
    the grid's one heat multiplier of ``dt``.  Every state is written
    into one state buffer, allocated once: every yielded stack is that
    buffer, valid until the next stack is pulled.  The first step writes
    the decayed datum there before it computes the noise scale, once, so
    ``coeffs`` is not held beside that scale's temporaries nor past the
    first step.  ``white`` (real) and ``noise`` (complex) are the
    workspaces of ``white_noise_fft``, allocated once when not given;
    the chain writes them only while the next stack is pulled, so a
    caller may use them between pulls."""
    state = np.empty(coeffs.shape, dtype=np.complex128)
    if white is None:
        white = np.empty(coeffs.shape)
    if noise is None:
        noise = np.empty(coeffs.shape, dtype=np.complex128)
    decay = heat_multiplier(grid, dt)
    for step in range(n_steps):
        coeffs = np.multiply(decay, coeffs, out=state)
        if step == 0:
            noise_sd = np.sqrt(ou_noise_variance(grid, dt))
        np.multiply(_white_spectral(grid, generators, white, noise), noise_sd, out=noise)
        np.add(state, noise, out=state)
        yield state


def ou_path(init: SpectralField, dt: float, n_steps: int, stream: RngStream) -> FieldPath:
    """Chain ``n_steps`` exact transitions of ``dt`` from ``init``.

    The noise is drawn sequentially from one generator, so the same
    (stream, dt, n_steps) always yields the identical trajectory.  Each
    state is a copy of the ``ou_chain`` buffer.
    """
    if not (np.isfinite(dt) and dt > 0 and n_steps >= 0):
        raise ValueError(f"need dt > 0 finite and n_steps >= 0, got {dt}, {n_steps}")
    grid = init.grid
    chain = ou_chain(grid, init.coeffs[None], dt, n_steps, [stream.generator()])
    states = [init] + [SpectralField(grid, coeffs[0].copy()) for coeffs in chain]
    return FieldPath(dt, states)
