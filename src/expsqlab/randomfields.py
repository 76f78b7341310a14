"""Exact Gaussian sampling on the torus grid.

Free field, per-mode Ornstein-Uhlenbeck transitions and cylindrical
Wiener increments, all exact in distribution (no time discretization
error in the linear dynamics).

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

Parameters named ``stream`` are :class:`~expsqlab.rng.RngStream` values;
every sampler is a pure function of (inputs, stream).  The samplers work
on stacks of fields (n, M, M) with one generator per row, and a single
field is the stack of one: row i of a stack is bit-for-bit the field its
own stream gives alone.

A path of fields is a :class:`FieldPath` (times, states): ``ou_path``
returns one, ``ou_increments`` reads one, and the Wick-exponential
forcing and every solver in ``dynamics`` use the same type.
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
    "ou_transition",
    "ou_decay",
    "ou_noise_variance",
    "ou_chain",
    "ou_path",
    "ou_increments",
    "wiener_increment",
]


@dataclass(frozen=True)
class FieldPath:
    """Fields on one grid at strictly increasing times, one state per
    time: the package's one path type (OU trajectories, Wick-exponential
    forcing paths and solver outputs alike)."""

    times: np.ndarray
    states: list

    def __post_init__(self):
        if len(self.times) != len(self.states):
            raise ValueError("times and states must have equal length")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")
        grids = {s.grid for s in self.states}
        if len(grids) > 1:
            raise ValueError("all states must share one grid")

    @property
    def grid(self) -> TorusGrid:
        return self.states[0].grid

    def final(self) -> SpectralField:
        return self.states[-1]


def white_noise_fft(grid: TorusGrid, generators) -> np.ndarray:
    """fft2 of grid white noise, a stack (n, M, M) with row i drawn from
    ``generators[i]``: the one white-noise sampler behind every Gaussian
    draw of the package."""
    M = grid.modes_per_dim
    white = np.empty((len(generators), M, M))
    for row, g in zip(white, generators):
        g.standard_normal(out=row)
    return np.fft.fft2(white)


def _white_spectral(grid: TorusGrid, generators) -> np.ndarray:
    """Hermitian coefficient stack with unit variance per mode."""
    return white_noise_fft(grid, generators) / grid.modes_per_dim


def gff_mode_variance(grid: TorusGrid) -> np.ndarray:
    """Stationary per-mode variance (1 + |k|^2)^{-1}."""
    return 1.0 / (1.0 + grid.ksq)


def gff_sample(grid: TorusGrid, stream) -> SpectralField:
    """One draw from the massive free field: independent mode coefficients
    with E|coeff(k)|^2 = (1+|k|^2)^{-1}, coeff(0) real with variance 1.

    Given a sequence of streams instead of one, returns the stack of their
    draws in one pass, row i the draw of ``stream[i]``.
    """
    streams = [stream] if isinstance(stream, RngStream) else stream
    coeffs = _white_spectral(grid, [s.generator() for s in streams]) * np.sqrt(
        gff_mode_variance(grid)
    )
    return SpectralField(grid, coeffs[0] if isinstance(stream, RngStream) else coeffs)


def ou_decay(grid: TorusGrid, dt: float) -> np.ndarray:
    """Mode-wise decay exp(-(1+|k|^2) dt / 2) of the drift (Lap-1)/2, the
    heat multiplier of ``spectral``."""
    return heat_multiplier(grid, dt)


def ou_noise_variance(grid: TorusGrid, dt: float) -> np.ndarray:
    """Exact transition noise variance (1 - exp(-(1+|k|^2) dt))/(1+|k|^2).

    Satisfies the two-half-step identity
    v(dt/2) * (1 + exp(-(1+|k|^2) dt/2)) = v(dt) exactly.
    """
    c = 1.0 + grid.ksq
    return -np.expm1(-dt * c) / c


def ou_transition(
    state: SpectralField,
    dt: float,
    stream: RngStream,
    include_noise: bool = True,
) -> SpectralField:
    """One exact OU step.  ``include_noise=False`` is the zero-variance test
    hook returning the pure per-mode decay."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    grid = state.grid
    if not include_noise:
        return SpectralField(grid, ou_decay(grid, dt) * state.coeffs)
    (out,) = ou_chain(grid, state.coeffs[None], np.array([0.0, dt]), [stream.generator()])
    return SpectralField(grid, out[0])


def ou_chain(grid: TorusGrid, coeffs: np.ndarray, times, generators):
    """The exact OU chain: yields the coefficient stack after each step of
    ``times``, starting from the stack ``coeffs`` (n, M, M).  Row i draws
    its noise from ``generators[i]``, one step at a time, so a row is
    bit-for-bit the chain of that generator alone."""
    for dt in np.diff(times):
        noise = _white_spectral(grid, generators) * np.sqrt(ou_noise_variance(grid, dt))
        coeffs = ou_decay(grid, dt) * coeffs + noise
        yield coeffs


def ou_path(init: SpectralField, times, stream: RngStream) -> FieldPath:
    """Chain exact transitions over the given times (increasing from 0).

    The noise is drawn sequentially from one generator, so the same
    (stream, times) always yields the identical trajectory.
    """
    times = np.asarray(times, dtype=np.float64)
    if times.ndim != 1 or len(times) < 1 or times[0] != 0.0 or np.any(np.diff(times) <= 0):
        raise ValueError("times must be a 1-d strictly increasing array starting at 0")
    grid = init.grid
    chain = ou_chain(grid, init.coeffs[None], times, [stream.generator()])
    states = [init] + [SpectralField(grid, coeffs[0]) for coeffs in chain]
    return FieldPath(times=times, states=states)


def ou_increments(traj: FieldPath, stride: int = 1) -> tuple[np.ndarray, list]:
    """Exact stochastic-convolution increments recovered from a path.

    Over a step [t, t+h] the mild solution satisfies
    X_{t+h} = decay(h) * X_t + eta with eta the semigroup-filtered noise
    integral; eta is therefore X_{t+h} - decay(h) * X_t, exactly.  With
    ``stride`` > 1 the increments of the coarsened path are returned,
    which is how one fine noise realization drives solvers at dt and
    dt/2 consistently.

    Returns (coarsened times, list of coefficient arrays).
    """
    idx = range(0, len(traj.times), stride)
    times = traj.times[list(idx)]
    grid = traj.grid
    increments = []
    for a, b in zip(list(idx)[:-1], list(idx)[1:]):
        h = traj.times[b] - traj.times[a]
        increments.append(traj.states[b].coeffs - ou_decay(grid, h) * traj.states[a].coeffs)
    return times, increments


def wiener_increment(grid: TorusGrid, dt: float, stream: RngStream) -> SpectralField:
    """Cylindrical Wiener increment over a step of length dt: independent
    N(0, dt) per real basis direction, i.e. E|coeff(k)|^2 = dt."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    return SpectralField(grid, _white_spectral(grid, [stream.generator()])[0] * np.sqrt(dt))
