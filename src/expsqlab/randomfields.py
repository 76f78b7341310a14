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
modes.  ``white_noise_fft`` draws that noise and transforms it through
``spectral.scaled_fft``, the package's one forward FFT, at each
sampler's per-mode standard deviation sqrt(v)/M, which carries the
noise's 1/M, so a draw is scaled in the transform's one multiply.  Both
standard deviations, the free field's and the OU transition's of each
dt, are built by ``_noise_sd`` and cached read-only on the grid.  M is
a power of two (``TorusGrid``), so x/M is exact and fft2(white) *
(sqrt(v)/M) is (fft2(white)/M) * sqrt(v) to the bit, signed zeros of the
self-conjugate modes included.

Workspaces (the rule of ``spectral``, whose docstring explains the
in-place cast): ``white_noise_fft``, and through it ``gff_sample`` and
``ou_chain``, draw the real noise into a ``white`` array and transform
it in place in a complex ``out`` array, both allocated only when not
given, so a caller that holds the two workspaces
(``experiments.cmd_sample_gff``, ``ou_chain``) allocates no noise or
transform array per draw.  ``ou_chain`` takes
the same two workspaces, so the flows of ``dynamics`` lend it their step
workspaces.  It is the one place that runs the OU transition: each step
forms the decayed state once, adds the noise into one state buffer and
writes the exact increment over the decayed state, so it allocates
nothing per step and yields those two buffers each time, as the flows
yield theirs.  The flows take its increments; ``ou_path`` copies the
states it keeps.

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
from .spectral import SpectralField, TorusGrid, heat_multiplier, scaled_fft

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


def white_noise_fft(grid: TorusGrid, generators, scale, white=None, out=None) -> np.ndarray:
    """``scaled_fft`` of grid white noise at ``scale``, a stack (n, M, M)
    with row i drawn from ``generators[i]``: the one white-noise sampler
    behind every Gaussian draw of the package.  The noise is drawn into
    ``white`` (real), allocated only when not given; ``out`` is
    ``scaled_fft``'s."""
    M = grid.modes_per_dim
    if white is None:
        white = np.empty((len(generators), M, M))
    for row, g in zip(white, generators):
        g.standard_normal(out=row)
    return scaled_fft(white, scale, out)


def gff_mode_variance(grid: TorusGrid) -> np.ndarray:
    """Stationary per-mode variance (1 + |k|^2)^{-1}."""
    return 1.0 / (1.0 + grid.ksq)


def _noise_sd(grid: TorusGrid, key, variance) -> np.ndarray:
    """The per-mode standard deviation sqrt(v)/M of the mode variance v
    that ``variance()`` builds, with the white noise's 1/M in it: the
    grid's cached array under ``key`` (``TorusGrid.cached``), built once."""
    M = grid.modes_per_dim
    return grid.cached(key, lambda: np.divide(sd := np.sqrt(variance()), M, out=sd))


def gff_sample(grid: TorusGrid, stream, white=None, out=None) -> SpectralField:
    """One draw from the massive free field: independent mode coefficients
    with E|coeff(k)|^2 = (1+|k|^2)^{-1}, coeff(0) real with variance 1.

    Given a sequence of streams instead of one, returns the stack of their
    draws in one pass, row i the draw of ``stream[i]``.  ``white`` and
    ``out`` are the workspaces of ``white_noise_fft``; when ``out`` is
    given the draw is a read-only view of it, valid until ``out`` is
    written again.  The scale sqrt(v)/M, the mode standard deviation with
    the noise's 1/M, is computed once per grid (``TorusGrid.cached``).
    """
    streams = [stream] if isinstance(stream, RngStream) else stream
    sd = _noise_sd(grid, "gff_sd", lambda: gff_mode_variance(grid))
    coeffs = white_noise_fft(grid, [s.generator() for s in streams], sd, white, out)
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
    """The exact OU chain: yields (state, increment) after each of
    ``n_steps`` steps of ``dt`` from the stack ``coeffs`` (n, M, M), the
    increment being the step's noise, state - decay * previous state.  Row
    i draws its noise from ``generators[i]``, one step at a time, so a
    row is bit-for-bit the chain of that generator alone.  The decay is
    the grid's one heat multiplier of ``dt``; the noise is
    ``white_noise_fft`` at the grid's cached scale sqrt(ou_noise_variance)/M,
    which carries the white noise's 1/M.  Each step forms the decayed
    state once, in one buffer, and writes the increment over it; every
    state is written into one state buffer.  So every yielded pair is
    the same two buffers, valid until the next pair is pulled, and
    ``coeffs`` is dropped once it is decayed.  ``white`` (real) and
    ``noise`` (complex) are the workspaces of ``white_noise_fft``,
    allocated once when not given; the chain writes them only while the
    next pair is pulled, so a caller may use them between pulls."""
    decay = heat_multiplier(grid, dt)
    decayed = np.multiply(decay, coeffs)
    del coeffs
    if white is None:
        white = np.empty(decayed.shape)
    if noise is None:
        noise = np.empty(decayed.shape, dtype=np.complex128)
    sd = _noise_sd(grid, ("ou_sd", dt), lambda: ou_noise_variance(grid, dt))
    state = None
    for _ in range(n_steps):
        state = np.add(decayed, white_noise_fft(grid, generators, sd, white, noise), out=state)
        yield state, np.subtract(state, decayed, out=decayed)
        np.multiply(decay, state, out=decayed)


def ou_path(init: SpectralField, dt: float, n_steps: int, stream: RngStream) -> FieldPath:
    """Chain ``n_steps`` exact transitions of ``dt`` from ``init``.

    The noise is drawn sequentially from one generator, so the same
    (stream, dt, n_steps) always yields the identical trajectory.  Each
    state is a copy of the ``ou_chain`` state buffer.
    """
    if not (np.isfinite(dt) and dt > 0 and n_steps >= 0):
        raise ValueError(f"need dt > 0 finite and n_steps >= 0, got {dt}, {n_steps}")
    grid = init.grid
    chain = ou_chain(grid, init.coeffs[None], dt, n_steps, [stream.generator()])
    states = [init] + [SpectralField(grid, state[0].copy()) for state, _ in chain]
    return FieldPath(dt, states)
