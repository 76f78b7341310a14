"""Time integration of the approximating stochastic dynamics.

Three equations share one mild stepping pattern, and the function called
names the equation:

  full (``evolve_levels``, ``solve_sqe_full``):
              d Phi = (Lap-1)/2 Phi dt - (alpha/2) exp(alpha Phi - a^2 C_N/2) dt + P_N dW,
              initial datum P_N phi;
  projected (``evolve_projected``, ``solve_sqe_projected``):
              d Phi = (Lap-1)/2 Phi dt - (alpha/2) P_N exp(alpha P_N Phi - a^2 C_N/2) dt + dW,
              initial datum phi (the ensemble-stationary variant);
  shifted (``evolve_shifted``, ``solve_shifted``):
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
are those of an OU process X on the same time grid: the live OU chain of
the noise stream yields each with its state, and the increments of a
stored trajectory are recovered exactly from its consecutive states,
which is what makes common-noise coupling across cutoff levels and
across dt refinements exact.

Every solver returns a randomfields.FieldPath of its states on the time
grid 0, dt, ..., T, and the shifted equation reads its OU trajectory X
as one.  The split Phi = X + Y of a full solve is a separate step,
``decompose(path, x_traj, config)``: X is the projected OU trajectory
that drove the solve, Y = Phi - X, and the shifted equation driven by
X gives Y again, solved on its own.

One kernel, ``_mild_step``, takes the step of every flow in place: it
transforms the flow's grid forcing with spectral.to_coeffs, projects it
when the equation does, subtracts it from the state and applies
spectral.heat_multiplier, the same symbol as the OU decay.  Each flow
forms its own forcing, alpha dt/2 times its exponential, and adds its
own noise after the step.  The full flow's exponential is
wick.scaled_exp of its state's grid values; the projected drift's
exp(alpha P_N Phi - a^2 C_N/2) and the shifted equation's forcing
exp(alpha P_N X_t - a^2 C_N/2) are wick.wick_exp in the step
workspaces.  The forcing and the noise increments are formed from X
one step at a time, never stored for the whole horizon.

Workspace rule: each loop allocates its spectral and grid temporaries
once per call and overwrites them every step, through the ``out``
arguments of the transform pair and of wick.wick_exp, in place by
wick.scaled_exp and by ``_mild_step``, with the allocating expressions'
ufuncs on the same operands, so every bit is theirs; every cutoff
multiplier is the grid's cached one (``WickParams.multiplier``).  The
live OU chain (``randomfields.ou_chain``) steps in one state buffer,
forms each decayed state once and writes the increment over it, and
draws its noise in the flow's own workspaces while the next increment
is pulled; a stored trajectory's increments are written over one
workspace of ``_ou_increments``.  The chain, the increments and
``_mild_step`` step by ``config.dt`` and share its one cached heat
multiplier.  The full flow steps its levels one at a time through
workspaces of one field; the projected flow steps its replicas (small
blocks at M = 32, where per-call overhead dominates) as one stack.

Three flows, one contract: ``evolve_levels``, ``evolve_projected`` and
``evolve_shifted`` check their arguments on the call, a datum of the
wrong rank included, and return ``_guarded`` over their step loop: a
generator of the stack of states at every time of ``time_grid``, one
buffer per call overwritten by the next step; ``solve_sqe_full``,
``solve_sqe_projected`` and ``solve_shifted`` are these flows on one
field that keep a copy of row 0 of every stack (``_kept``).  Each flow
steps a stack of rows in lockstep, each row bit-for-bit the solve of
that row alone: the cutoff levels (L, M, M) of the full equation under
one common noise, replicas (n, M, M) of the projected equation, each
with its own stream, or data (n, M, M) of the shifted equation over one
X, whose Wick forcing is formed once per step for every row
(``contraction_check`` steps its two data as one stack).  One guard,
``_guarded``, fails a row of any of them at its first step whose Wick
exponent passes the guard or whose state lost finiteness (exponent
inf).  A failed row is zeroed while the others step on, and the flow
then raises WickOverflowError with the lowest failing row's exponent.
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
    sobolev_norms,
    to_coeffs,
    to_values,
    zero_field,
)
from .wick import (
    OVERFLOW_EXPONENT,
    WickOverflowError,
    WickParams,
    scaled_exp,
    wick_exp,
)

__all__ = [
    "SqeConfig",
    "ContractionReport",
    "STABILITY_CAP",
    "evolve_shifted",
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
    solver called does.  It is refused when built (ValueError) unless
    the horizon is positive, finite and an integer multiple of dt, and
    dt * 4^N is within the stability cap, so ``n_steps`` cannot fail."""

    horizon: float
    dt: float
    params: WickParams

    def __post_init__(self):
        if not 0 < self.horizon < math.inf:
            raise ValueError("horizon must be positive and finite")
        if not (0 < self.dt <= self.horizon):
            raise ValueError("need 0 < dt <= horizon")
        if self.dt * 4.0**self.params.level > STABILITY_CAP:
            raise ValueError(
                f"dt * 2^(2N) = {self.dt * 4.0 ** self.params.level:.3g} exceeds the "
                f"stability cap {STABILITY_CAP}"
            )
        if abs(self.n_steps() * self.dt - self.horizon) > 1e-9 * self.horizon:
            raise ValueError("horizon must be an integer multiple of dt")

    def n_steps(self) -> int:
        return round(self.horizon / self.dt)


def time_grid(config: SqeConfig) -> np.ndarray:
    return np.arange(config.n_steps() + 1) * config.dt


@dataclass(frozen=True)
class ContractionReport:
    times: np.ndarray
    gaps: np.ndarray
    max_rate_per_unit_time: float
    passed: bool


def _check_initial_regularity(coeffs: np.ndarray, grid: TorusGrid, beta: float):
    """Numerical stand-in for 'initial datum lies in H^{2-beta}': finite
    coefficients and no rough-field signature (at most half of the
    (1+|k|^2)^{2-beta}-weighted mass above |k| > M/4; a free-field draw
    concentrates about two thirds of it there, a resolved smooth datum
    essentially none)."""
    if not np.all(np.isfinite(coeffs)):
        raise ValueError("initial datum has non-finite coefficients")
    w = grid.sobolev_weight(2.0 - beta) * np.abs(coeffs.ravel()) ** 2
    total = float(w.sum())
    if total == 0.0:
        return
    hi = float(w[grid.ksq.ravel() > (grid.modes_per_dim / 4.0) ** 2].sum())
    if hi / total >= 0.5:
        raise ValueError(
            "initial datum looks rough (>= 50% of the H^(2-beta) mass above |k| > M/4); "
            "shifted-equation initial data must be grid-resolved"
        )


def _check_path(path: FieldPath, config: SqeConfig, *grids: TorusGrid):
    if len(path.states) != config.n_steps() + 1 or abs(path.dt - config.dt) > 1e-9 * config.dt:
        raise ValueError("path times must be the uniform solver grid 0, dt, ..., T")
    if any(path.grid != grid for grid in grids):
        raise ValueError("path lives on a different grid")


def _mild_step(state, forcing, grid: TorusGrid, dt: float, spec, proj=None):
    """The flows' one exponential-Euler step, in place: state <-
    H (state - proj * to_coeffs(forcing)), with H the heat multiplier at
    ``dt`` and no projection when ``proj`` is None.  The transform is
    written into the spectral workspace ``spec``; returns ``state``."""
    drift = to_coeffs(forcing, grid, out=spec)
    if proj is not None:
        drift *= proj
    state -= drift
    state *= heat_multiplier(grid, dt)
    return state


def evolve_shifted(upsilon: SpectralField, x_states, config: SqeConfig):
    """States of the deterministic shifted equation from a stack of data
    ``upsilon`` (n, M, M), all driven by ``x_states``, the coefficient
    arrays of X at the times of ``time_grid(config)`` (a stored path's
    states or the live OU chain): a generator of the stack (n, M, M) at
    each of those times, one buffer overwritten by the next step, row i
    bit-for-bit the state of ``solve_shifted`` from row i.  The data are
    checked on the call; once ``x_states`` ends, a count other than
    n_steps + 1 raises ValueError.

    The step from t_j is forced by exp(alpha P_N X_{t_j} - shift), which
    is ``wick.wick_exp`` of X_{t_j} in the flow's workspaces, formed once
    for every row, so it is ``wick_exp_values``' value bit for bit.  A row
    fails as ``_guarded`` rules; a forcing that fails the guard fails
    every row, so the flow raises WickOverflowError at that step, before
    the next state of X is read.  The last state, which no step reads, is
    not evaluated.
    """
    if upsilon.coeffs.ndim != 3:
        raise ValueError("need a stack of initial data (n, M, M)")
    for row in upsilon.coeffs:
        _check_initial_regularity(row, upsilon.grid, config.params.beta)
    coeffs = upsilon.coeffs.copy()
    return _guarded(coeffs, _shifted_flow(upsilon.grid, coeffs, x_states, config))


def _shifted_flow(grid: TorusGrid, coeffs: np.ndarray, x_states, config: SqeConfig):
    """The shifted equation's step loop in the state buffer ``coeffs``, a
    stack (n, M, M), yielded with each row's larger exponent of its two
    factors: each step is ``_mild_step`` forced by (alpha dt/2 exp(alpha Y))
    times the Wick forcing of X, multiplied in that order.  The forcing is
    formed once per step, in one grid buffer and the spectral workspace's
    row 0, and multiplies every row by broadcasting."""
    n_steps = config.n_steps()
    params = config.params
    alpha = params.alpha
    half_adt = 0.5 * alpha * config.dt
    spec = np.empty_like(coeffs)
    u = np.empty(coeffs.shape)
    forcing = np.empty(coeffs.shape[1:])
    j = -1
    for j, x in enumerate(x_states):
        if j >= n_steps:
            continue
        nonlin, y_peaks = scaled_exp(to_values(coeffs, grid, spec, u), alpha, 0.0)
        np.multiply(half_adt, nonlin, out=nonlin)
        wick, forcing_peaks = wick_exp(x, params, grid, spec[0], forcing)
        nonlin *= wick
        _mild_step(coeffs, nonlin, grid, config.dt, spec)
        yield coeffs, np.maximum(y_peaks, forcing_peaks)
    if j != n_steps:
        raise ValueError(f"the shifted flow needs {n_steps + 1} states of X, got {j + 1}")


def _kept(flow, grid: TorusGrid, dt: float) -> FieldPath:
    """A copy of row 0 of every stack ``flow`` yields, as a FieldPath: what
    the ``solve_*`` wrappers keep of their flows."""
    return FieldPath(dt, [SpectralField(grid, s[0].copy()) for s in flow])


def solve_shifted(upsilon: SpectralField, x_traj: FieldPath, config: SqeConfig) -> FieldPath:
    """The shifted equation driven by the OU trajectory ``x_traj`` on the
    solver's time grid: ``evolve_shifted`` on a stack of one over its
    states, keeping a copy of every state."""
    grid = upsilon.grid
    _check_path(x_traj, config, grid)
    stack = SpectralField(grid, upsilon.coeffs[None])
    flow = evolve_shifted(stack, (s.coeffs for s in x_traj.states), config)
    return _kept(flow, grid, x_traj.dt)


def _ou_increments(grid: TorusGrid, initial: np.ndarray, states, dt: float):
    """Exact OU increments next - exp((Lap-1) dt/2) * prev, one per step,
    over the coefficient array ``initial`` and the arrays of ``states``
    after it: the increments of a stored trajectory, as ``ou_chain``
    yields those of the live chain.  The decayed state is formed in one
    workspace before the next state is pulled, and every increment is
    written over it: every yielded increment is that buffer, valid until
    the next is pulled, and neither ``initial`` nor any previous state is
    held."""
    decay = heat_multiplier(grid, dt)
    work = np.multiply(decay, initial)
    del initial
    for state in states:
        yield np.subtract(state, work, out=work)
        np.multiply(decay, state, out=work)


def _noise_stacks(grid: TorusGrid, coeffs: np.ndarray, config: SqeConfig, streams, values, spec):
    """Noise increment stacks from ``coeffs``: the increments of the OU
    chain with row i drawn from streams[i].child("ou"), which draws in the
    flow's grid and spectral workspaces ``values`` and ``spec`` (the shape
    of ``coeffs``) while the next increment is pulled.  Every increment
    is the chain's one increment buffer."""
    generators = [s.child("ou").generator() for s in streams]
    chain = ou_chain(grid, coeffs, config.dt, config.n_steps(), generators, values, spec)
    return (eta for _, eta in chain)


def _guarded(initial: np.ndarray, steps):
    """The overflow rule of every flow.  Yields the initial stack, then
    each step's stack from ``steps``, which pairs it with the largest Wick
    exponent of each row.  A row is flagged at its first step whose
    exponent passes the guard or is NaN, or whose state has a non-finite
    mode 0 (exponent inf: the nonlinearity is positive, so |F_k| <= F_0),
    and zeroed from then on.  Stops once every row has failed; after the
    last step, raises WickOverflowError with the flagged exponent of the
    lowest failing row.  ``initial`` is the flow's state buffer, which
    every step overwrites, so nothing is held beyond the current stack.
    Steps run with numpy's overflow and invalid warnings off: a row that
    overflows is the guard's to flag, not a warning's."""
    yield initial
    overflow = np.full(len(initial), np.nan)
    failed = np.zeros(len(initial), dtype=bool)
    while True:
        with np.errstate(over="ignore", invalid="ignore"):
            coeffs, peaks = next(steps, (None, None))
        if coeffs is None:
            break
        passed = ~(peaks <= OVERFLOW_EXPONENT)
        new = ~failed & (passed | ~np.isfinite(coeffs[:, 0, 0]))
        if new.any():
            overflow[new] = np.where(passed, peaks, np.inf)[new]
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
    exponents: each row's step is ``_mild_step`` forced by its own
    alpha dt/2 exp(alpha Phi - shift), plus the next increment of
    ``noise``, which every level projects with its own cached cutoff
    multiplier.  The levels are stepped one at a time, each row through
    the spectral and grid workspaces ``spec`` and ``values`` of one field,
    so no temporary is stack-sized."""
    dt, alpha = configs[0].dt, configs[0].params.alpha
    half_adt = 0.5 * alpha * dt
    levels = [(c.params.shift, c.params.multiplier(grid)) for c in configs]
    peaks = np.empty(len(coeffs))
    for eta in noise:
        # the live chain's increment is a stack of one
        eta = eta.reshape(spec.shape)
        for level, (row, (shift, psi_mult)) in enumerate(zip(coeffs, levels)):
            to_values(row, grid, spec, values)
            _, peak = scaled_exp(values, alpha, shift)
            peaks[level] = peak[0]
            np.multiply(half_adt, values, out=values)
            _mild_step(row, values, grid, dt, spec)
            row += np.multiply(psi_mult, eta, out=spec)
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
        phi0: initial datum, one field (M, M), projected by each
            level's cutoff.
        configs: one configuration per level, at least one; they may
            differ only in their Wick parameters (level, cutoff and C_N).
        stream: noise stream, as for ``solve_sqe_full``; each increment
            is computed once per step and drives every level.
        x_traj: optional OU trajectory, as for ``solve_sqe_full``.

    Returns:
        a generator of the coefficient stack (L, M, M) at each time of
        ``time_grid(configs[0])``, row l bit-for-bit the state of
        ``solve_sqe_full(phi0, configs[l], stream, x_traj)``.  Every stack
        is one buffer, overwritten when the next is pulled.  The
        arguments are checked on the call.  A level fails as ``_guarded``
        rules, overflow or lost finiteness, and the flow then raises
        WickOverflowError with the lowest failing level's exponent.
    """
    if phi0.coeffs.ndim != 2 or not configs:
        raise ValueError("need one initial field (M, M) and at least one level")
    config = configs[0]
    for c in configs:
        if (c.horizon, c.dt, c.params.alpha) != (config.horizon, config.dt, config.params.alpha):
            raise ValueError("levels must share horizon, dt and alpha")
    grid = phi0.grid
    # the one field's workspaces of the step loop and the OU chain
    spec = np.empty(phi0.coeffs.shape, dtype=np.complex128)
    values = np.empty(phi0.coeffs.shape)
    if x_traj is not None:
        _check_path(x_traj, config, grid)
        if not np.allclose(x_traj.states[0].coeffs, phi0.coeffs, rtol=0, atol=1e-12):
            raise ValueError("OU trajectory must start at the initial datum")
        states = (s.coeffs for s in x_traj.states[1:])
        noise = _ou_increments(grid, x_traj.states[0].coeffs, states, config.dt)
    else:
        noise = _noise_stacks(grid, phi0.coeffs[None], config, [stream], values[None], spec[None])
    coeffs = np.empty((len(configs), *phi0.coeffs.shape), dtype=np.complex128)
    for row, c in zip(coeffs, configs):
        np.multiply(c.params.multiplier(grid), phi0.coeffs, out=row)
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
    return _kept(evolve_levels(phi0, [config], stream, x_traj), phi0.grid, config.dt)


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
    grid = path.grid
    _check_path(path, config, x_traj.grid)
    psi_mult = config.params.multiplier(grid)
    x_part = [SpectralField(grid, psi_mult * s.coeffs) for s in x_traj.states]
    y_part = [st - xp for st, xp in zip(path.states, x_part)]
    shifted = solve_shifted(zero_field(grid), x_traj, config)
    return FieldPath(config.dt, x_part), FieldPath(config.dt, y_part), shifted


def _projected_flow(grid: TorusGrid, coeffs: np.ndarray, config: SqeConfig, noise, spec, values):
    """The projected equation's one step loop, on a stack of replicas
    (n, M, M): writes the state after each step into the buffer ``coeffs``
    and yields it with its rows' Wick exponents: each step is
    ``_mild_step`` forced by alpha dt/2 ``wick_exp`` of the state and
    projected by the cutoff multiplier, plus the next increment stack of
    ``noise``, through the spectral and grid workspaces ``spec`` and
    ``values`` of the stack."""
    params = config.params
    psi_mult = params.multiplier(grid)
    half_adt = 0.5 * params.alpha * config.dt
    for eta in noise:
        _, peaks = wick_exp(coeffs, params, grid, spec, values)
        np.multiply(half_adt, values, out=values)
        _mild_step(coeffs, values, grid, config.dt, spec, psi_mult)
        coeffs += eta
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
        arguments are checked on the call.  A replica fails as ``_guarded``
        rules, overflow or lost finiteness, and the flow then raises
        WickOverflowError with the lowest failing replica's exponent.
    """
    if phi0.coeffs.ndim != 3 or len(streams) != len(phi0.coeffs):
        raise ValueError("need a stack of initial data (n, M, M) and one stream per row")
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
    stack = SpectralField(phi0.grid, phi0.coeffs[None])
    return _kept(evolve_projected(stack, config, [stream]), phi0.grid, config.dt)


def contraction_check(
    upsilon1: SpectralField,
    upsilon2: SpectralField,
    x_traj: FieldPath,
    config: SqeConfig,
) -> ContractionReport:
    """Step the shifted flow from a stack of two data over one OU
    trajectory, keeping only their gaps: exp(t/2) ||Y1_t - Y2_t||_{L2}
    must be nonincreasing within CONTRACTION_TOLERANCE per unit time."""
    grid = x_traj.grid
    _check_path(x_traj, config, upsilon1.grid, upsilon2.grid)
    data = SpectralField(grid, np.stack([upsilon1.coeffs, upsilon2.coeffs]))
    flow = evolve_shifted(data, (s.coeffs for s in x_traj.states), config)
    # the flow's state buffer is the only copy of the data it steps
    del data
    gaps = np.ravel([sobolev_norms(s[:1], grid, (0.0,), minus=s[1:]) for s in flow])
    times = x_traj.times
    weighted = np.exp(0.5 * times) * gaps
    if np.all(gaps == 0.0):
        return ContractionReport(times, gaps, float("-inf"), True)
    # worst pairwise growth rate of log(weighted) per unit time
    rate = float("-inf")
    logs = np.log(np.maximum(weighted, 1e-300))
    for i in range(len(times) - 1):
        dt_ij = times[i + 1 :] - times[i]
        rate = max(rate, float(((logs[i + 1 :] - logs[i]) / dt_ij).max()))
    passed = rate <= math.log1p(CONTRACTION_TOLERANCE)
    return ContractionReport(times, gaps, rate, passed)
