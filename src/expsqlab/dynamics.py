"""Time integration of the approximating stochastic dynamics.

Three equations share one mild stepping pattern, and the function called
names the equation:

  full (``evolve_levels``, ``solve_sqe_full``):
              d Phi = (Lap-1)/2 Phi dt - (alpha/2) exp(alpha Phi - a^2 C_N/2) dt + P_N dW,
              initial datum P_N phi;
  projected (``evolve_projected``, ``solve_sqe_projected``):
              d Phi = (Lap-1)/2 Phi dt - (alpha/2) P_N exp(alpha P_N Phi - a^2 C_N/2) dt + dW,
              initial datum phi (the ensemble-stationary variant);
  shifted (``solve_shifted``):
              d Y = (Lap-1)/2 Y dt - (alpha/2) exp(alpha Y) exp(alpha P_N X_t - a^2 C_N/2) dt,
              deterministic, driven by an OU trajectory X.

Every solver steps in exponential-Euler (mild) form: the nonlinear term
is frozen over the step and the exact semigroup is applied afterwards,

    state_{t+dt} = exp((Lap-1) dt/2) [ state_t - (alpha/2) dt * nonlin(state_t) ] + eta_t,

which treats the stiff linear part exactly, is exact at alpha = 0, and
preserves the comparison sign structure (the nonlinear update keeps the
bracket <= state when alpha > 0, and the semigroup is positivity
preserving up to spectral-truncation ringing far below the solution
scale).  The noise increments eta_t = X_{t+dt} - exp((Lap-1) dt/2) X_t
are recovered exactly from consecutive states of an OU process X on the
same time grid, either a stored trajectory or the live OU chain of the
noise stream, which is what makes common-noise coupling across cutoff
levels and across dt refinements exact.

Every solver returns a randomfields.FieldPath of its states on the time
grid 0, dt, ..., T, and the shifted equation reads its OU trajectory X
as one.  The split Phi = X + Y of a full solve is a separate step,
``decompose(path, x_traj, config)``: X is the projected OU trajectory
that drove the solve, Y = Phi - X, and the shifted equation driven by
X gives Y again, solved on its own.

Every loop moves between the grid and spectral space with the pair
spectral.to_values/to_coeffs, and the exponential-Euler step multiplier
is spectral.heat_multiplier, the same symbol as the OU decay.  Noise
increments and the shifted equation's Wick forcing exp(alpha P_N X_t -
a^2 C_N/2) are formed from X one step at a time, never stored for the
whole horizon.

Workspace rule: each loop allocates its spectral and grid temporaries
once per call and overwrites them every step, through the ``out``
arguments of the transform pair, of wick.scaled_exp and of the cutoff
multiplier (``WickParams.multiplier``), with the same ufuncs on the same
operands as the allocating expressions, so every bit is theirs.  The
two stochastic flows also write each new state into one state buffer
per call, so every stack they yield is that buffer, valid
until the next stack is pulled; a caller that keeps a state copies it
(``solve_sqe_full``, ``solve_sqe_projected``).  Their noise allocates
nothing per step either: the live OU chain steps in one state buffer
(``randomfields.ou_chain``) and every increment is written over one
workspace, so neither the initial datum nor any previous noise state
is held past the step that reads it.  The chain draws its noise in the
flow's own spectral and grid workspaces, which it writes only while the
next increment is pulled, and it drops the initial datum at its first
decay, before it computes its noise scale.  The chain, the increments
and the step loop step by ``config.dt`` and share its one heat multiplier
(``spectral.heat_multiplier``).  The full flow steps its levels one at
a time through workspaces of one field and writes each level's cutoff
multiplier into the grid workspace once that level's drift is formed,
so it holds no stack of multipliers; the projected flow steps its
replicas (small blocks at M = 32, where per-call overhead dominates) as
one stack.  The states ``solve_shifted`` keeps are new arrays.

The two stochastic equations step a stack of rows under one flow
contract, every row advancing one step before any row takes the next.
``evolve_levels`` steps the cutoff levels (L, M, M) of the full
equation under one common noise (each increment computed once per step
drives every level); ``evolve_projected`` steps replicas (n, M, M) of
the projected equation, each drawing its noise from its own stream.
Either call checks its arguments at once and returns a generator of
the state stack at every time of ``time_grid`` (one buffer, overwritten
by the next step), each row bit-for-bit the solve of that row alone.
Both share one overflow rule:
a row whose Wick exponent passes the guard is flagged at its first
overflowing step and zeroed from then on, so the other rows step on
unharmed; the flow stops once every row has failed, and after its last
step raises WickOverflowError with the lowest failing row's exponent,
the error a loop over the rows one at a time raises first.
``solve_sqe_full`` and ``solve_sqe_projected`` are these flows on one
row that keep every state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .randomfields import FieldPath, ou_chain
from .rng import RngStream
from .spectral import (
    SpectralField,
    TorusGrid,
    heat_multiplier,
    sobolev_norm,
    to_coeffs,
    to_values,
    zero_field,
)
from .wick import (
    OVERFLOW_EXPONENT,
    WickOverflowError,
    WickParams,
    guarded_exp,
    scaled_exp,
)

__all__ = [
    "SqeConfig",
    "ContractionReport",
    "STABILITY_CAP",
    "solve_shifted",
    "solve_sqe_full",
    "evolve_levels",
    "decompose",
    "solve_sqe_projected",
    "evolve_projected",
    "contraction_check",
    "time_grid",
]

# hard guard on dt * 2^(2N): the linear part is handled exactly, so this
# only rules out grossly inaccurate steps
STABILITY_CAP = 16.0

# contraction_check passes when exp(t/2) ||Y1_t - Y2_t|| grows by at most
# this fraction per unit time
CONTRACTION_TOLERANCE = 0.01


@dataclass(frozen=True)
class SqeConfig:
    """Solver configuration: horizon T, step dt and the Wick parameters,
    which carry the cutoff profile (``params.psi``), so the drift's shift
    and its projection come from one cutoff.  It names no equation: the
    solver called does."""

    horizon: float
    dt: float
    params: WickParams

    def __post_init__(self):
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if not (0 < self.dt <= self.horizon):
            raise ValueError("need 0 < dt <= horizon")
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
    passed: bool


def _check_initial_regularity(upsilon: SpectralField, beta: float):
    """Numerical stand-in for 'initial datum lies in H^{2-beta}': finite
    coefficients and no rough-field signature (at most half of the
    (1+|k|^2)^{2-beta}-weighted mass above |k| > M/4; a free-field draw
    concentrates about two thirds of it there, a resolved smooth datum
    essentially none)."""
    if not np.all(np.isfinite(upsilon.coeffs)):
        raise ValueError("initial datum has non-finite coefficients")
    grid = upsilon.grid
    w = grid.sobolev_weight(2.0 - beta) * np.abs(upsilon.coeffs.ravel()) ** 2
    total = float(w.sum())
    if total == 0.0:
        return
    hi = float(w[grid.ksq.ravel() > (grid.modes_per_dim / 4.0) ** 2].sum())
    if hi / total >= 0.5:
        raise ValueError(
            "initial datum looks rough (>= 50% of the H^(2-beta) mass above |k| > M/4); "
            "shifted-equation initial data must be grid-resolved"
        )


def _validate_path_times(path: FieldPath, config: SqeConfig):
    if len(path.states) != config.n_steps() + 1 or abs(path.dt - config.dt) > 1e-9 * config.dt:
        raise ValueError("path times must be the uniform solver grid 0, dt, ..., T")


def solve_shifted(upsilon: SpectralField, x_traj: FieldPath, config: SqeConfig) -> FieldPath:
    """Integrate the deterministic shifted equation from ``upsilon`` driven
    by the OU trajectory ``x_traj`` (given on the solver's own time grid).

    The step from time t_j is forced by the Wick exponential
    exp(alpha P_N X_{t_j} - shift) of ``x_traj.states[j]``, formed in the
    solver's grid workspace with the ufuncs of ``wick.wick_exp_values``,
    so it is that function's value bit for bit; it raises
    WickOverflowError at the first step whose exponent passes the guard.
    The last state, which no step reads, is not evaluated.

    The per-step update freezes the nonlinearity and applies the exact
    semigroup, so with zero initial datum the state keeps the sign
    opposite to alpha at every grid point (comparison structure), and at
    alpha = 0 the flow is the exact heat semigroup.
    """
    _validate_path_times(x_traj, config)
    params = config.params
    _check_initial_regularity(upsilon, params.beta)
    grid = upsilon.grid
    if x_traj.grid != grid:
        raise ValueError("OU trajectory and initial datum live on different grids")

    psi_mult = params.multiplier(grid)
    mult = heat_multiplier(grid, config.dt)
    alpha = params.alpha
    half_adt = 0.5 * alpha * config.dt

    coeffs = upsilon.coeffs.copy()
    spec = np.empty_like(coeffs)
    u, forcing = np.empty((2, *coeffs.shape))
    to_values(coeffs, grid, spec, u)
    states = [SpectralField(grid, coeffs)]
    for j, x in enumerate(x_traj.states[:-1]):
        nonlin = guarded_exp(u, alpha, 0.0, out=u)
        np.multiply(half_adt, nonlin, out=nonlin)
        to_values(np.multiply(psi_mult, x.coeffs, out=spec), grid, spec, forcing)
        nonlin *= guarded_exp(forcing, alpha, params.shift, out=forcing)
        coeffs = np.subtract(coeffs, to_coeffs(nonlin, grid, out=spec))
        np.multiply(mult, coeffs, out=coeffs)
        if not np.isfinite(coeffs[0, 0]):
            raise FloatingPointError(f"shifted solve lost finiteness at step {j}")
        to_values(coeffs, grid, spec, u)
        states.append(SpectralField(grid, coeffs))

    return FieldPath(x_traj.dt, states)


def _ou_increments(grid: TorusGrid, initial: np.ndarray, states, dt: float):
    """Exact OU increments next - exp((Lap-1) dt/2) * prev, one per step,
    over the coefficient array ``initial`` and the arrays of ``states``
    after it (a stored trajectory or the live OU chain).  The decayed
    state is formed in one workspace before the next state is pulled, and
    every increment is written over it: every yielded increment is that
    buffer, valid until the next is pulled, and neither ``initial`` nor
    any previous state is held."""
    decay = heat_multiplier(grid, dt)
    work = np.multiply(decay, initial)
    del initial
    for state in states:
        yield np.subtract(state, work, out=work)
        np.multiply(decay, state, out=work)


def _noise_stacks(grid: TorusGrid, coeffs: np.ndarray, config: SqeConfig, streams, values, spec):
    """Noise increment stacks from ``coeffs``, row i from the OU chain of
    streams[i].child("ou"), which draws in the flow's grid and spectral
    workspaces ``values`` and ``spec`` (the shape of ``coeffs``): it
    writes them only while the next increment is pulled, and the
    increment itself is held in ``_ou_increments``' own buffer."""
    generators = [s.child("ou").generator() for s in streams]
    x_chain = ou_chain(grid, coeffs, config.dt, config.n_steps(), generators, values, spec)
    return _ou_increments(grid, coeffs, x_chain, config.dt)


def _check_x_traj(phi0: SpectralField, config: SqeConfig, x_traj: FieldPath):
    _validate_path_times(x_traj, config)
    if x_traj.grid != phi0.grid:
        raise ValueError("OU trajectory and initial datum live on different grids")
    if not np.allclose(x_traj.states[0].coeffs, phi0.coeffs, rtol=0, atol=1e-12):
        raise ValueError("OU trajectory must start at the initial datum")


def _guarded(initial: np.ndarray, steps):
    """The overflow rule of both stochastic flows.  Yields the initial
    stack, then each step's stack from ``steps``, which pairs it with the
    largest Wick exponent of each row: a row whose exponent passes the
    guard is flagged at its first overflowing step and zeroed from then
    on.  Stops once every row has failed; after the last step, raises
    WickOverflowError with the flagged exponent of the lowest failing
    row.  ``initial`` is the flow's state buffer, which every step
    overwrites, so nothing is held beyond the current stack."""
    yield initial
    overflow = np.full(len(initial), np.nan)
    failed = np.zeros(len(initial), dtype=bool)
    for coeffs, peaks in steps:
        new = ~failed & (peaks > OVERFLOW_EXPONENT)
        if new.any():
            overflow[new] = peaks[new]
            failed |= new
        if failed.any():
            coeffs[failed] = 0.0
            if failed.all():
                break
        yield coeffs
    if failed.any():
        raise WickOverflowError(float(overflow[failed][0]))


def _full_flow(grid: TorusGrid, coeffs: np.ndarray, configs, noise, spec, values):
    """The full equation's one step loop, on a stack of cutoff levels
    (L, M, M) with row l under ``configs[l]``: writes the state after each
    step into the buffer ``coeffs`` and yields it with its rows' Wick
    exponents, each step driven by the next increment of ``noise``, which
    every level projects with its own cutoff multiplier.  The levels are
    stepped one at a time, each row through the spectral and grid
    workspaces ``spec`` and ``values`` of one field, so no temporary is
    stack-sized; once a level's drift is formed, its cutoff multiplier is
    written into the free grid workspace, so no multiplier is held."""
    config = configs[0]
    mult = heat_multiplier(grid, config.dt)
    alpha = config.params.alpha
    half_adt = 0.5 * alpha * config.dt
    levels = [c.params for c in configs]
    peaks = np.empty(len(coeffs))
    for eta in noise:
        # the live chain's increment is a stack of one
        eta = eta.reshape(spec.shape)
        for level, (row, params) in enumerate(zip(coeffs, levels)):
            to_values(row, grid, spec, values)
            _, peak = scaled_exp(values, alpha, params.shift, out=values)
            peaks[level] = peak[0]
            np.multiply(half_adt, values, out=values)
            drift = np.subtract(row, to_coeffs(values, grid, out=spec), out=spec)
            np.multiply(mult, drift, out=drift)
            np.multiply(params.multiplier(grid, out=values), eta, out=row)
            np.add(drift, row, out=row)
        yield coeffs, peaks


def evolve_levels(
    phi0: SpectralField,
    configs,
    stream: RngStream,
    x_traj: FieldPath | None = None,
):
    """States of the full equation at several cutoff levels, stepped in
    lockstep under one noise.

    Args:
        phi0: initial datum, projected by each level's cutoff.
        configs: one configuration per level; they may differ only in
            their Wick parameters (level, cutoff and C_N).
        stream: noise stream, as for ``solve_sqe_full``; each increment
            is computed once per step and drives every level.
        x_traj: optional OU trajectory, as for ``solve_sqe_full``.

    Returns:
        a generator of the coefficient stack (L, M, M) at each time of
        ``time_grid(configs[0])``, row l bit-for-bit the state of
        ``solve_sqe_full(phi0, configs[l], stream, x_traj)``.  Every stack
        is one buffer, overwritten when the next is pulled.  The
        arguments are checked on the call.  After the last step it raises
        WickOverflowError if a level overflowed, with the exponent of the
        lowest failing level at its first overflowing step.
    """
    config = configs[0]
    for c in configs:
        if (c.horizon, c.dt, c.params.alpha) != (config.horizon, config.dt, config.params.alpha):
            raise ValueError("levels must share horizon, dt and alpha")
    grid = phi0.grid
    # the one field's workspaces of the step loop and the OU chain
    spec = np.empty(phi0.coeffs.shape, dtype=np.complex128)
    values = np.empty(phi0.coeffs.shape)
    if x_traj is not None:
        _check_x_traj(phi0, config, x_traj)
        states = (s.coeffs for s in x_traj.states[1:])
        noise = _ou_increments(grid, x_traj.states[0].coeffs, states, config.dt)
    else:
        noise = _noise_stacks(grid, phi0.coeffs[None], config, [stream], values[None], spec[None])
    coeffs = np.empty((len(configs), *phi0.coeffs.shape), dtype=np.complex128)
    for row, c in zip(coeffs, configs):
        np.multiply(c.params.multiplier(grid, out=values), phi0.coeffs, out=row)
    return _guarded(coeffs, _full_flow(grid, coeffs, configs, noise, spec, values))


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
        config: solver configuration.
        stream: noise stream; ignored for the noise itself when ``x_traj``
            is supplied (common-noise coupling across levels or steps).
        x_traj: optional precomputed OU trajectory on the solver grid,
            starting at phi0; its exact increments drive the solve.
            Without it the solve is driven by the increments of the OU
            chain of ``stream.child("ou")``, bit-for-bit those of
            ``ou_path(phi0, config.dt, config.n_steps(),
            stream.child("ou"))``, drawn one step at a time.

    Returns:
        the FieldPath of states on ``time_grid(config)``; ``decompose``
        splits it into its OU and remainder parts.

    This is ``evolve_levels`` on one level that keeps a copy of every
    state.
    """
    grid = phi0.grid
    flow = evolve_levels(phi0, [config], stream, x_traj)
    states = [SpectralField(grid, s[0].copy()) for s in flow]
    return FieldPath(config.dt, states)


def decompose(
    path: FieldPath, x_traj: FieldPath, config: SqeConfig
) -> tuple[FieldPath, FieldPath, FieldPath]:
    """Split a full solve into Phi = X + Y.

    Args:
        path: the solve_sqe_full output under ``config``.
        x_traj: the OU trajectory whose increments drove it.
        config: the full solve's configuration.

    Returns:
        (x_part, y_part, shifted): x_part = P_N x_traj and y_part =
        state - x_part, so x + y = state exactly; ``shifted`` is the
        remainder solved independently from zero as the shifted equation
        driven by x_traj.  On a shared time grid
        the two remainders coincide to rounding: the splitting commutes
        with this discretization because the full nonlinearity factors as
        exp(alpha y) * exp(alpha P_N x - shift) pointwise.  A genuine
        O(dt) residual appears only against a reconstruction on a finer
        grid driven by the same noise.
    """
    _validate_path_times(path, config)
    grid = path.grid
    psi_mult = config.params.multiplier(grid)
    x_part = [SpectralField(grid, psi_mult * s.coeffs) for s in x_traj.states]
    y_part = [st - xp for st, xp in zip(path.states, x_part)]
    shifted = solve_shifted(zero_field(grid), x_traj, config)
    return FieldPath(config.dt, x_part), FieldPath(config.dt, y_part), shifted


def _projected_flow(grid: TorusGrid, coeffs: np.ndarray, config: SqeConfig, noise, spec, values):
    """The projected equation's one step loop, on a stack of replicas
    (n, M, M): writes the state after each step into the buffer ``coeffs``
    and yields it with its rows' Wick exponents, each step driven by the
    next increment stack of ``noise``, through the spectral and grid
    workspaces ``spec`` and ``values`` of the stack."""
    psi_mult = config.params.multiplier(grid)
    mult = heat_multiplier(grid, config.dt)
    alpha = config.params.alpha
    shift = config.params.shift
    half_adt = 0.5 * alpha * config.dt
    for eta in noise:
        proj = np.multiply(psi_mult, coeffs, out=spec)
        _, peaks = scaled_exp(to_values(proj, grid, spec, values), alpha, shift, out=values)
        np.multiply(half_adt, values, out=values)
        drift = np.multiply(psi_mult, to_coeffs(values, grid, out=spec), out=spec)
        np.subtract(coeffs, drift, out=drift)
        np.multiply(mult, drift, out=drift)
        np.add(drift, eta, out=coeffs)
        yield coeffs, peaks


def evolve_projected(phi0: SpectralField, config: SqeConfig, streams):
    """States of the projected equation for a stack of replicas.

    Args:
        phi0: stack of initial data (n, M, M), one replica per row.
        config: solver configuration.
        streams: one noise stream per row.

    Returns:
        a generator of the coefficient stack (n, M, M) at each time of
        ``time_grid(config)``, row i bit-for-bit the state of
        ``solve_sqe_projected(phi0 row i, config, streams[i])``.  Every
        stack is one buffer, overwritten when the next is pulled.  The
        arguments are checked on the call.  After the last step it raises
        WickOverflowError if a replica overflowed, with the exponent of
        the lowest failing replica at its first overflowing step.
    """
    if phi0.coeffs.ndim != 3 or len(streams) != len(phi0.coeffs):
        raise ValueError("need a stack of initial data and one stream per row")
    grid = phi0.grid
    # the stack's workspaces of the step loop and the OU chain
    spec = np.empty(phi0.coeffs.shape, dtype=np.complex128)
    values = np.empty(phi0.coeffs.shape)
    noise = _noise_stacks(grid, phi0.coeffs, config, streams, values, spec)
    coeffs = phi0.coeffs.copy()
    return _guarded(coeffs, _projected_flow(grid, coeffs, config, noise, spec, values))


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

    This is ``evolve_projected`` on a stack of one that keeps a copy of
    every state.
    """
    grid = phi0.grid
    stack = SpectralField(grid, phi0.coeffs[None])
    flow = evolve_projected(stack, config, [stream])
    states = [SpectralField(grid, s[0].copy()) for s in flow]
    return FieldPath(config.dt, states)


def contraction_check(
    upsilon1: SpectralField,
    upsilon2: SpectralField,
    x_traj: FieldPath,
    config: SqeConfig,
) -> ContractionReport:
    """Run the shifted solve from two initial data driven by one OU
    trajectory and check the energy contraction: exp(t/2) ||Y1_t - Y2_t||_{L2}
    must be nonincreasing within CONTRACTION_TOLERANCE per unit time."""
    path1 = solve_shifted(upsilon1, x_traj, config)
    path2 = solve_shifted(upsilon2, x_traj, config)
    times = path1.times
    gaps = np.array(
        [sobolev_norm(s1 - s2, 0.0) for s1, s2 in zip(path1.states, path2.states)]
    )
    weighted = np.exp(0.5 * times) * gaps
    if np.all(gaps == 0.0):
        return ContractionReport(times, gaps, weighted, float("-inf"), True)
    # worst pairwise growth rate of log(weighted) per unit time
    rate = float("-inf")
    logs = np.log(np.maximum(weighted, 1e-300))
    for i in range(len(times) - 1):
        dt_ij = times[i + 1 :] - times[i]
        rate = max(rate, float(((logs[i + 1 :] - logs[i]) / dt_ij).max()))
    passed = rate <= math.log1p(CONTRACTION_TOLERANCE)
    return ContractionReport(times, gaps, weighted, rate, passed)
