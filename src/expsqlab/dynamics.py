"""Time integration of the approximating stochastic dynamics.

Three equations share one mild stepping pattern:

  full:       d Phi = (Lap-1)/2 Phi dt - (alpha/2) exp(alpha Phi - a^2 C_N/2) dt + P_N dW,
              initial datum P_N phi;
  projected:  d Phi = (Lap-1)/2 Phi dt - (alpha/2) P_N exp(alpha P_N Phi - a^2 C_N/2) dt + dW,
              initial datum phi (the ensemble-stationary variant);
  shifted:    d Y = (Lap-1)/2 Y dt - (alpha/2) M(exp(alpha Y), chi_t) dt,
              deterministic, driven by a nonnegative forcing path chi.

Default scheme is exponential-Euler: the nonlinear term is frozen over the
step and the exact semigroup is applied afterwards,

    state_{t+dt} = exp((Lap-1) dt/2) [ state_t - (alpha/2) dt * nonlin(state_t) ] + eta_t,

which treats the stiff linear part exactly, is exact at alpha = 0, and
preserves the comparison sign structure (the nonlinear update keeps the
bracket <= state when alpha > 0, and the semigroup is positivity
preserving up to spectral-truncation ringing far below the solution
scale).  The noise increments eta_t are recovered exactly from an OU
trajectory of the same time grid (see randomfields.ou_increments), which
is what makes common-noise coupling across cutoff levels and across dt
refinements exact.

The alternative 'semi-implicit' scheme replaces the semigroup by the
resolvent (1 - dt (Lap-1)/2)^{-1} and drives the stochastic equations
with raw Wiener increments; it is first order but not exact at alpha = 0
and does not support the decomposition bookkeeping.

Every solver returns a randomfields.FieldPath of its states on the time
grid 0, dt, ..., T, and the shifted equation takes its forcing as one.
The split Phi = X + Y of a full solve is a separate step,
``decompose(path, x_traj, config)``: X is the projected OU trajectory
that drove the solve, Y = Phi - X, and the shifted equation forced by
the Wick exponential of X gives Y again, solved on its own.

Every loop moves between the grid and spectral space with the pair
spectral.to_values/to_coeffs, and the exponential-Euler step multiplier
is spectral.heat_multiplier, the same symbol as the OU decay.  Noise
increments are produced one step at a time, never stored for the whole
horizon.

The projected equation steps a stack of replicas (n, M, M) at once
(``evolve_projected``); ``solve_sqe_projected`` is the stack of one that
keeps every state.  Each replica draws its noise from its own stream one
step at a time, so its states are bit-for-bit those of a solve of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .randomfields import FieldPath, ou_chain, ou_decay, ou_path, white_noise_fft
from .rng import RngStream
from .spectral import (
    SpectralField,
    TorusGrid,
    heat_multiplier,
    heat_semigroup_massless,
    sobolev_norm,
    to_coeffs,
    to_spectral,
    to_values,
    zero_field,
)
from .wick import (
    OVERFLOW_EXPONENT,
    CutoffProfile,
    WickOverflowError,
    WickParams,
    guarded_exp,
    scaled_exp,
    wick_exp_ou,
)

__all__ = [
    "SqeConfig",
    "ContractionReport",
    "STABILITY_CAP",
    "measure_product",
    "solve_shifted",
    "solve_sqe_full",
    "decompose",
    "solve_sqe_projected",
    "evolve_projected",
    "contraction_check",
    "time_grid",
]

SCHEMES = ("exponential-euler", "semi-implicit")
EQUATIONS = ("full", "projected", "shifted")

# hard guard on dt * 2^(2N): the linear part is handled exactly (or
# unconditionally stably), so this only rules out grossly inaccurate steps
STABILITY_CAP = 16.0

NONNEG_TOL = -1e-10


@dataclass(frozen=True)
class SqeConfig:
    """Solver configuration: horizon T, step dt, scheme, equation flavor,
    Wick parameters, cutoff profile and the mollifier scale used by the
    measure product."""

    horizon: float
    dt: float
    params: WickParams
    psi: CutoffProfile
    scheme: str = "exponential-euler"
    equation: str = "full"
    mollifier_scale: float = 0.0

    def __post_init__(self):
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if not (0 < self.dt <= self.horizon):
            raise ValueError("need 0 < dt <= horizon")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.equation not in EQUATIONS:
            raise ValueError(f"equation must be one of {EQUATIONS}, got {self.equation!r}")
        if self.mollifier_scale < 0:
            raise ValueError("mollifier scale must be nonnegative")
        if self.dt * 4.0**self.params.level > STABILITY_CAP:
            raise ValueError(
                f"dt * 2^(2N) = {self.dt * 4.0 ** self.params.level:.3g} exceeds the "
                f"stability cap {STABILITY_CAP}"
            )

    def n_steps(self) -> int:
        n = round(self.horizon / self.dt)
        if abs(n * self.dt - self.horizon) > 1e-9 * self.horizon:
            raise ValueError("horizon must be an integer multiple of dt")
        return int(n)


def time_grid(config: SqeConfig) -> np.ndarray:
    return np.arange(config.n_steps() + 1) * config.dt


@dataclass(frozen=True)
class ContractionReport:
    times: np.ndarray
    gaps: np.ndarray
    weighted: np.ndarray
    max_rate_per_unit_time: float
    tolerance: float
    passed: bool


def measure_product(f: SpectralField, xi: SpectralField, mollifier_scale: float = 0.0) -> SpectralField:
    """Pointwise product of f with the (optionally heat-mollified)
    nonnegative field xi, returned spectrally.

    mollifier_scale = 0 is the raw grid product; a positive scale applies
    exp(scale * Lap) to xi first, probing the distributional formulation.
    Rejects xi with grid values below the -1e-10 tolerance.
    """
    if f.grid != xi.grid:
        raise ValueError("fields live on different grids")
    xi_vals = xi.values()
    if xi_vals.min() < NONNEG_TOL:
        raise ValueError(f"xi has negative values (min {xi_vals.min():.3e}) below tolerance")
    if mollifier_scale > 0.0:
        xi_vals = heat_semigroup_massless(xi, mollifier_scale).values()
    return to_spectral(f.values() * xi_vals, f.grid)


def _step_multiplier(grid: TorusGrid, dt: float, scheme: str) -> np.ndarray:
    if scheme == "exponential-euler":
        return heat_multiplier(grid, dt)
    return 1.0 / (1.0 + 0.5 * dt * (1.0 + grid.ksq))


def _check_initial_regularity(upsilon: SpectralField, beta: float):
    """Numerical stand-in for 'initial datum lies in H^{2-beta}': finite
    coefficients and no rough-field signature (at most half of the
    (1+|k|^2)^{2-beta}-weighted mass above |k| > M/4; a free-field draw
    concentrates about two thirds of it there, a resolved smooth datum
    essentially none)."""
    if not np.all(np.isfinite(upsilon.coeffs)):
        raise ValueError("initial datum has non-finite coefficients")
    grid = upsilon.grid
    w = (1.0 + grid.ksq) ** (2.0 - beta) * np.abs(upsilon.coeffs) ** 2
    total = float(w.sum())
    if total == 0.0:
        return
    hi = float(w[grid.ksq > (grid.modes_per_dim / 4.0) ** 2].sum())
    if hi / total >= 0.5:
        raise ValueError(
            "initial datum looks rough (>= 50% of the H^(2-beta) mass above |k| > M/4); "
            "shifted-equation initial data must be grid-resolved"
        )


def _validate_path_times(times: np.ndarray, config: SqeConfig):
    n = config.n_steps()
    expected = np.arange(n + 1) * config.dt
    if len(times) != n + 1 or not np.allclose(times, expected, rtol=0, atol=1e-9 * config.dt):
        raise ValueError("path times must be the uniform solver grid 0, dt, ..., T")


def solve_shifted(upsilon: SpectralField, chi_path: FieldPath, config: SqeConfig) -> FieldPath:
    """Integrate the deterministic shifted equation from ``upsilon`` driven
    by the nonnegative forcing path ``chi_path`` (given on the solver's
    own time grid).

    The per-step update freezes the nonlinearity and applies the exact
    semigroup, so with zero initial datum the state keeps the sign
    opposite to alpha at every grid point (comparison structure), and
    with zero forcing the flow is the exact heat semigroup.
    """
    if config.equation != "shifted":
        raise ValueError(f"config.equation must be 'shifted', got {config.equation!r}")
    _validate_path_times(chi_path.times, config)
    params = config.params
    _check_initial_regularity(upsilon, params.beta)
    grid = upsilon.grid
    if chi_path.grid != grid:
        raise ValueError("forcing path and initial datum live on different grids")

    chi_vals = []
    for f in chi_path.states:
        if config.mollifier_scale > 0.0:
            f = heat_semigroup_massless(f, config.mollifier_scale)
        v = f.values()
        if v.min() < NONNEG_TOL:
            raise ValueError(f"forcing has negative values (min {v.min():.3e}) below tolerance")
        chi_vals.append(v)

    mult = _step_multiplier(grid, config.dt, config.scheme)
    alpha = params.alpha
    half_adt = 0.5 * alpha * config.dt

    coeffs = upsilon.coeffs.copy()
    u = to_values(coeffs, grid)
    states = [SpectralField(grid, coeffs.copy())]
    for j in range(config.n_steps()):
        nonlin = half_adt * guarded_exp(u, alpha, 0.0) * chi_vals[j]
        coeffs = mult * (coeffs - to_coeffs(nonlin, grid))
        if not np.isfinite(coeffs[0, 0]):
            raise FloatingPointError(f"shifted solve lost finiteness at step {j}")
        u = to_values(coeffs, grid)
        states.append(SpectralField(grid, coeffs.copy()))

    return FieldPath(times=np.array(chi_path.times), states=states)


def _noise_increments(x_traj: FieldPath, config: SqeConfig):
    """Exact OU increments of a stored trajectory, one per step."""
    decay = ou_decay(x_traj.grid, config.dt)
    for prev, state in zip(x_traj.states, x_traj.states[1:]):
        yield state.coeffs - decay * prev.coeffs


def _wiener_increments(grid: TorusGrid, config: SqeConfig, streams):
    """Raw Wiener increment stacks, one per step, row i from streams[i]."""
    generators = [s.child("wiener").generator() for s in streams]
    scale = math.sqrt(config.dt) / grid.modes_per_dim
    for _ in range(config.n_steps()):
        yield white_noise_fft(grid, generators) * scale


def _ou_increments(grid: TorusGrid, coeffs: np.ndarray, config: SqeConfig, streams):
    """Exact OU increment stacks, one per step, recovered on the fly from
    the OU chain of each row's stream, as _noise_increments recovers them
    from a stored trajectory."""
    decay = ou_decay(grid, config.dt)
    generators = [s.child("ou").generator() for s in streams]
    for x_next in ou_chain(grid, coeffs, time_grid(config), generators):
        yield x_next - decay * coeffs
        coeffs = x_next


def _noise_stacks(grid: TorusGrid, coeffs: np.ndarray, config: SqeConfig, streams):
    if config.scheme == "exponential-euler":
        return _ou_increments(grid, coeffs, config, streams)
    return _wiener_increments(grid, config, streams)


def _resolve_x_traj(
    phi0: SpectralField, config: SqeConfig, stream: RngStream, x_traj: FieldPath | None
) -> FieldPath:
    times = time_grid(config)
    if x_traj is None:
        return ou_path(phi0, times, stream.child("ou"))
    _validate_path_times(x_traj.times, config)
    if x_traj.grid != phi0.grid:
        raise ValueError("OU trajectory and initial datum live on different grids")
    if not np.allclose(x_traj.states[0].coeffs, phi0.coeffs, rtol=0, atol=1e-12):
        raise ValueError("OU trajectory must start at the initial datum")
    return x_traj


def solve_sqe_full(
    phi0: SpectralField,
    config: SqeConfig,
    stream: RngStream,
    x_traj: FieldPath | None = None,
) -> FieldPath:
    """Integrate the full approximating equation from initial datum
    P_N phi0 with projected noise.

    Args:
        phi0: initial datum (projection applied internally).
        config: solver configuration with equation='full'.
        stream: noise stream; ignored for the noise itself when ``x_traj``
            is supplied (common-noise coupling across levels or steps).
        x_traj: optional precomputed OU trajectory on the solver grid,
            starting at phi0; its exact increments drive the solver.
            Without it the exponential-Euler scheme uses
            ``ou_path(phi0, time_grid(config), stream.child("ou"))``.

    Returns:
        the FieldPath of states on ``time_grid(config)``; ``decompose``
        splits it into its OU and remainder parts.
    """
    if config.equation != "full":
        raise ValueError(f"config.equation must be 'full', got {config.equation!r}")
    grid = phi0.grid
    params = config.params
    psi_mult = config.psi.multiplier(grid, params.level)

    if config.scheme == "exponential-euler":
        x_traj = _resolve_x_traj(phi0, config, stream, x_traj)
        noise = _noise_increments(x_traj, config)
    else:
        noise = (w[0] for w in _wiener_increments(grid, config, [stream]))

    mult = _step_multiplier(grid, config.dt, config.scheme)
    alpha = params.alpha
    shift = 0.5 * alpha**2 * params.c_n
    half_adt = 0.5 * alpha * config.dt

    coeffs = psi_mult * phi0.coeffs
    states = [SpectralField(grid, coeffs.copy())]
    for eta in noise:
        u = to_values(coeffs, grid)
        nonlin = half_adt * guarded_exp(u, alpha, shift)
        coeffs = mult * (coeffs - to_coeffs(nonlin, grid)) + psi_mult * eta
        states.append(SpectralField(grid, coeffs.copy()))

    return FieldPath(times=time_grid(config), states=states)


def decompose(
    path: FieldPath, x_traj: FieldPath, config: SqeConfig
) -> tuple[FieldPath, FieldPath, FieldPath]:
    """Split a full exponential-Euler solve into Phi = X + Y.

    Args:
        path: the solve_sqe_full output under ``config``.
        x_traj: the OU trajectory whose increments drove it.
        config: the full solve's configuration.

    Returns:
        (x_part, y_part, shifted): x_part = P_N x_traj and y_part =
        state - x_part, so x + y = state exactly; ``shifted`` is the
        remainder solved independently from zero as the shifted equation
        forced by the Wick exponential of x_traj.  On a shared time grid
        the two remainders coincide to rounding: the splitting commutes
        with this discretization because the full nonlinearity factors as
        exp(alpha y) * exp(alpha P_N x - shift) pointwise.  A genuine
        O(dt) residual appears only against a reconstruction on a finer
        grid driven by the same noise.
    """
    if config.scheme != "exponential-euler":
        raise ValueError("decomposition bookkeeping requires the exponential-Euler scheme")
    _validate_path_times(path.times, config)
    grid = path.grid
    psi_mult = config.psi.multiplier(grid, config.params.level)
    x_part = [SpectralField(grid, psi_mult * s.coeffs) for s in x_traj.states]
    y_part = [st - xp for st, xp in zip(path.states, x_part)]
    chi_path = wick_exp_ou(x_traj, config.params, config.psi)
    shifted = solve_shifted(zero_field(grid), chi_path, replace(config, equation="shifted"))
    return FieldPath(path.times, x_part), FieldPath(path.times, y_part), shifted


def _projected_flow(grid: TorusGrid, coeffs: np.ndarray, config: SqeConfig, noise, overflow):
    """The projected equation's one step loop, on a stack of replicas
    (n, M, M): yields the state stack after each step, each step driven by
    the next increment stack of ``noise``.

    A replica whose Wick exponent passes the overflow guard has that
    exponent written to ``overflow`` (NaN until then) at its first
    overflowing step and is zeroed from then on, so the other replicas
    step on unharmed; the flow ends early once every replica has failed.
    """
    psi_mult = config.psi.multiplier(grid, config.params.level)
    mult = _step_multiplier(grid, config.dt, config.scheme)
    alpha = config.params.alpha
    shift = 0.5 * alpha**2 * config.params.c_n
    half_adt = 0.5 * alpha * config.dt
    failed = np.zeros(len(coeffs), dtype=bool)
    for eta in noise:
        u_proj = to_values(psi_mult * coeffs, grid)
        values, peaks = scaled_exp(u_proj, alpha, shift)
        new = ~failed & (peaks > OVERFLOW_EXPONENT)
        if new.any():
            overflow[new] = peaks[new]
            failed |= new
        nonlin = half_adt * values
        coeffs = mult * (coeffs - psi_mult * to_coeffs(nonlin, grid)) + eta
        if failed.any():
            coeffs[failed] = 0.0
            if failed.all():
                return
        yield coeffs


def evolve_projected(
    phi0: SpectralField, config: SqeConfig, streams
) -> tuple[SpectralField, np.ndarray]:
    """Final states of the projected equation for a stack of replicas.

    Args:
        phi0: stack of initial data (n, M, M), one replica per row.
        config: solver configuration with equation='projected'.
        streams: one noise stream per row; row i ends bit-for-bit where
            ``solve_sqe_projected(phi0 row i, config, streams[i])`` does.

    Returns:
        (stack of final states, overflow): ``overflow[i]`` is the Wick
        exponent of row i's first overflowing step, NaN where the row
        never overflowed.  A failed row's final state is meaningless.
    """
    if config.equation != "projected":
        raise ValueError(f"config.equation must be 'projected', got {config.equation!r}")
    if phi0.coeffs.ndim != 3 or len(streams) != len(phi0.coeffs):
        raise ValueError("need a stack of initial data and one stream per row")
    grid = phi0.grid
    noise = _noise_stacks(grid, phi0.coeffs, config, streams)
    overflow = np.full(len(phi0.coeffs), np.nan)
    final = phi0.coeffs
    for final in _projected_flow(grid, phi0.coeffs, config, noise, overflow):
        pass
    return SpectralField(grid, final), overflow


def solve_sqe_projected(
    phi0: SpectralField,
    config: SqeConfig,
    stream: RngStream,
) -> FieldPath:
    """Integrate the projected-nonlinearity equation from the unprojected
    initial datum with unprojected noise (the variant whose ensemble law
    the invariance experiment probes).  With a cutoff profile that is
    identically 1 on the grid this coincides with solve_sqe_full applied
    to a projected datum.

    This is ``evolve_projected`` on a stack of one that keeps every state.
    """
    if config.equation != "projected":
        raise ValueError(f"config.equation must be 'projected', got {config.equation!r}")
    grid = phi0.grid
    noise = _noise_stacks(grid, phi0.coeffs[None], config, [stream])
    overflow = np.full(1, np.nan)
    states = [SpectralField(grid, phi0.coeffs.copy())]
    for coeffs in _projected_flow(grid, phi0.coeffs[None], config, noise, overflow):
        states.append(SpectralField(grid, coeffs[0]))
    if not np.isnan(overflow[0]):
        raise WickOverflowError(float(overflow[0]))

    return FieldPath(times=time_grid(config), states=states)


def contraction_check(
    upsilon1: SpectralField,
    upsilon2: SpectralField,
    chi_path: FieldPath,
    config: SqeConfig,
    tolerance: float = 0.01,
) -> ContractionReport:
    """Run the shifted solve from two initial data over one forcing path
    and check the energy contraction: exp(t/2) ||Y1_t - Y2_t||_{L2} must
    be nonincreasing within ``tolerance`` per unit time."""
    path1 = solve_shifted(upsilon1, chi_path, config)
    path2 = solve_shifted(upsilon2, chi_path, config)
    times = path1.times
    gaps = np.array(
        [sobolev_norm(s1 - s2, 0.0) for s1, s2 in zip(path1.states, path2.states)]
    )
    weighted = np.exp(0.5 * times) * gaps
    if np.all(gaps == 0.0):
        return ContractionReport(times, gaps, weighted, float("-inf"), tolerance, True)
    # worst pairwise growth rate of log(weighted) per unit time
    rate = float("-inf")
    logs = np.log(np.maximum(weighted, 1e-300))
    for i in range(len(times) - 1):
        dt_ij = times[i + 1 :] - times[i]
        rate = max(rate, float(((logs[i + 1 :] - logs[i]) / dt_ij).max()))
    passed = rate <= math.log1p(tolerance)
    return ContractionReport(times, gaps, weighted, rate, tolerance, passed)
