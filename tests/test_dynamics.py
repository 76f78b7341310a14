"""Solver checks: scalar ODE oracle, exact linear limits, splitting
bookkeeping, sign structure and contraction."""

from itertools import combinations

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from expsqlab import (
    ContractionReport,
    CutoffProfile,
    FieldPath,
    SqeConfig,
    constant_field,
    contraction_check,
    decompose,
    evolve_levels,
    evolve_projected,
    gff_sample,
    heat_semigroup,
    make_grid,
    make_wick_params,
    ou_path,
    solve_shifted,
    solve_sqe_full,
    solve_sqe_projected,
    time_grid,
    to_spectral,
    wick_exp_ou,
    zero_field,
)
from expsqlab.spectral import heat_multiplier


def _params(grid, alpha=1.0, level=2, sharp=None):
    psi = sharp or CutoffProfile("sharp")
    return make_wick_params(alpha, level, psi, grid), psi


def _constant_forcing(config, grid, value=1.0):
    times = time_grid(config)
    return FieldPath(times=times, states=[constant_field(grid, value)] * len(times))


def _shifted_config(grid, dt, horizon=1.0, alpha=1.0, level=0, **kw):
    params, psi = _params(grid, alpha=alpha, level=level)
    return SqeConfig(horizon=horizon, dt=dt, params=params, psi=psi, **kw)


def _constant_mode_final(grid, dt, u0, alpha=1.0):
    config = _shifted_config(grid, dt, alpha=alpha)
    path = solve_shifted(
        constant_field(grid, u0), _constant_forcing(config, grid), config
    )
    return float(path.final().values()[0, 0])


def test_scalar_ode_oracle():
    # constant data and forcing reduce every grid point to the scalar ODE
    # u' = -u/2 - (alpha/2) e^{alpha u}; integrate it to rtol 1e-12 and
    # check the stepper converges at first order to that value
    grid = make_grid(8)
    u0, alpha = 0.4, 1.0
    ivp = solve_ivp(
        lambda t, u: -0.5 * u - 0.5 * alpha * np.exp(alpha * u),
        (0.0, 1.0),
        [u0],
        rtol=1e-12,
        atol=1e-14,
        dense_output=False,
    )
    ref = float(ivp.y[0, -1])
    ps = np.array([3, 4, 5, 6])
    errs = np.array(
        [abs(_constant_mode_final(grid, 2.0**-p, u0, alpha) - ref) for p in ps]
    )
    assert np.all(np.diff(errs) < 0)
    order = -np.polyfit(ps, np.log2(errs), 1)[0]
    assert order > 0.9
    # first-order structure: Richardson extrapolation removes most of it
    u_h = _constant_mode_final(grid, 2.0**-8, u0, alpha)
    u_h2 = _constant_mode_final(grid, 2.0**-9, u0, alpha)
    assert abs(2.0 * u_h2 - u_h - ref) < 0.05 * abs(u_h2 - ref)


def test_zero_forcing_is_heat_flow(grid32, stream):
    # chi = 0 switches the nonlinearity off: the flow must be the exact
    # per-mode decay of (Lap - 1)/2
    config = _shifted_config(grid32, dt=1.0 / 16, level=1)
    times = time_grid(config)
    zeros = FieldPath(times=times, states=[zero_field(grid32)] * len(times))
    upsilon = heat_semigroup(gff_sample(grid32, stream), 0.2)
    path = solve_shifted(upsilon, zeros, config)
    expected = upsilon.coeffs * heat_multiplier(grid32, 1.0)
    assert np.abs(path.final().coeffs - expected).max() < 1e-13


def test_alpha_zero_full_solve_is_projected_ou(grid32, stream):
    params, psi = _params(grid32, alpha=0.0, level=2)
    config = SqeConfig(horizon=0.5, dt=1.0 / 32, params=params, psi=psi)
    phi0 = gff_sample(grid32, stream.child("init"))
    x_traj = ou_path(phi0, time_grid(config), stream.child("noise"))
    path = solve_sqe_full(phi0, config, stream, x_traj=x_traj)
    mult = psi.multiplier(grid32, 2)
    for state, x in zip(path.states, x_traj.states):
        assert np.abs(state.coeffs - mult * x.coeffs).max() < 1e-12
    _, y_part, _ = decompose(path, x_traj, config)
    assert all(np.abs(y.coeffs).max() < 1e-12 for y in y_part.states)
    # a trajectory at dt/2 thinned to every other state drives the dt
    # solve: its increments compose two fine ones, so the solve still
    # reproduces P_N x at the coarse times
    fine = ou_path(phi0, np.arange(2 * config.n_steps() + 1) * (config.dt / 2),
                   stream.child("fine"))
    coarse = FieldPath(time_grid(config), fine.states[::2])
    path = solve_sqe_full(phi0, config, stream, x_traj=coarse)
    for state, x in zip(path.states, coarse.states):
        assert np.abs(state.coeffs - mult * x.coeffs).max() < 1e-12


def _decomposed_full_solve(grid, stream):
    params, psi = _params(grid, alpha=1.0, level=2)
    config = SqeConfig(horizon=0.5, dt=1.0 / 32, params=params, psi=psi)
    phi0 = gff_sample(grid, stream.child("init"))
    path = solve_sqe_full(phi0, config, stream.child("noise"))
    # without x_traj the solve draws its OU trajectory from the "ou" child
    x_traj = ou_path(phi0, time_grid(config), stream.child("noise").child("ou"))
    return path, decompose(path, x_traj, config)


def test_decomposition_sums_exactly(grid32, stream):
    path, (x_part, y_part, _) = _decomposed_full_solve(grid32, stream)
    for state, x, y in zip(path.states, x_part.states, y_part.states):
        assert np.abs(x.coeffs + y.coeffs - state.coeffs).max() < 1e-13


def test_remainder_matches_independent_shifted_solve(grid32, stream):
    # on a shared time grid the subtraction remainder and the directly
    # integrated shifted equation coincide to rounding
    _, (_, y_part, shifted) = _decomposed_full_solve(grid32, stream)
    gaps = [
        np.abs(y.coeffs - s.coeffs).max()
        for y, s in zip(y_part.states, shifted.states)
    ]
    assert max(gaps) < 1e-10


def test_remainder_sign_structure(grid32, stream):
    # from zero initial datum with positive charge the remainder stays
    # nonpositive at every grid point and every step
    config = _shifted_config(grid32, dt=1.0 / 32, horizon=0.5, level=2)
    times = time_grid(config)
    traj = ou_path(gff_sample(grid32, stream.child("x0")), times, stream.child("ou"))
    chi = wick_exp_ou(traj, config.params, config.psi)
    path = solve_shifted(zero_field(grid32), chi, config)
    assert max(s.values().max() for s in path.states) <= 1e-12


def test_contraction_identical_inputs(grid32, stream):
    config = _shifted_config(grid32, dt=1.0 / 16, horizon=0.5, level=1)
    upsilon = heat_semigroup(gff_sample(grid32, stream), 0.2)
    report = contraction_check(upsilon, upsilon, _constant_forcing(config, grid32), config)
    assert isinstance(report, ContractionReport)
    assert report.max_rate_per_unit_time == float("-inf")
    assert report.passed


def test_contraction_random_pair(grid32, stream):
    config = _shifted_config(grid32, dt=1.0 / 32, horizon=0.5, level=2)
    times = time_grid(config)
    traj = ou_path(gff_sample(grid32, stream.child("x0")), times, stream.child("ou"))
    chi = wick_exp_ou(traj, config.params, config.psi)
    u1 = heat_semigroup(gff_sample(grid32, stream.child("a")), 0.1)
    u2 = heat_semigroup(gff_sample(grid32, stream.child("b")), 0.1)
    report = contraction_check(u1, u2, chi, config)
    assert report.passed
    assert report.gaps[0] > 0


def test_negative_forcing_rejected(grid32, stream):
    # a forcing state with negative values is rejected wherever it sits,
    # the last one included although no step reads it
    config = _shifted_config(grid32, dt=1.0 / 16, horizon=0.5, level=1)
    upsilon = heat_semigroup(gff_sample(grid32, stream), 0.2)
    signed = to_spectral(0.5 + np.cos(grid32.points)[:, None] + np.zeros((32, 32)), grid32)
    times = time_grid(config)
    for j in (0, 3, len(times) - 1):
        states = [constant_field(grid32, 2.0)] * len(times)
        states[j] = signed
        with pytest.raises(ValueError, match="negative"):
            solve_shifted(upsilon, FieldPath(times=times, states=states), config)


def test_config_validation(grid32):
    params, psi = _params(grid32, level=2)
    with pytest.raises(ValueError):
        SqeConfig(horizon=0.0, dt=0.1, params=params, psi=psi)
    with pytest.raises(ValueError):
        SqeConfig(horizon=1.0, dt=2.0, params=params, psi=psi)
    with pytest.raises(ValueError):
        # dt * 4^N = 2 * 16 above the stability cap
        SqeConfig(horizon=4.0, dt=2.0, params=params, psi=psi)
    bad = SqeConfig(horizon=1.0, dt=0.3, params=params, psi=psi)
    with pytest.raises(ValueError):
        bad.n_steps()
    ok = SqeConfig(horizon=1.0, dt=0.25, params=params, psi=psi)
    assert ok.n_steps() == 4
    assert np.array_equal(time_grid(ok), np.array([0.0, 0.25, 0.5, 0.75, 1.0]))


def test_forcing_times_enforced(grid32):
    # the forcing path must sit on the solver's own grid of times
    config = _shifted_config(grid32, dt=1.0 / 16, horizon=0.25, level=2)
    wrong_times = FieldPath(
        times=np.array([0.0, 0.3]), states=[zero_field(grid32)] * 2
    )
    with pytest.raises(ValueError, match="uniform solver grid"):
        solve_shifted(zero_field(grid32), wrong_times, config)


def test_rough_initial_datum_rejected(stream):
    grid = make_grid(64)
    config = _shifted_config(grid, dt=1.0 / 16, horizon=0.25, level=2)
    rough = gff_sample(grid, stream)
    forcing = _constant_forcing(config, grid)
    with pytest.raises(ValueError, match="rough"):
        solve_shifted(rough, forcing, config)
    smooth = heat_semigroup(rough, 0.1)
    path = solve_shifted(smooth, forcing, config)
    assert np.all(np.isfinite(path.final().coeffs))


def test_x_traj_validation(grid32, stream):
    params, psi = _params(grid32, level=2)
    config = SqeConfig(horizon=0.25, dt=1.0 / 16, params=params, psi=psi)
    phi0 = gff_sample(grid32, stream.child("init"))
    other = gff_sample(grid32, stream.child("other"))
    traj = ou_path(other, time_grid(config), stream.child("ou"))
    with pytest.raises(ValueError, match="start"):
        solve_sqe_full(phi0, config, stream, x_traj=traj)
    short = ou_path(phi0, np.array([0.0, 0.25]), stream.child("ou"))
    with pytest.raises(ValueError):
        solve_sqe_full(phi0, config, stream, x_traj=short)


def test_projected_solver_deterministic(grid32, stream):
    params, psi = _params(grid32, alpha=1.0, level=2)
    config = SqeConfig(horizon=0.25, dt=1.0 / 16, params=params, psi=psi)
    phi0 = gff_sample(grid32, stream.child("init"))
    a = solve_sqe_projected(phi0, config, stream.child("n"))
    b = solve_sqe_projected(phi0, config, stream.child("n"))
    assert np.array_equal(a.final().coeffs, b.final().coeffs)
    assert np.array_equal(a.times, time_grid(config))
    assert len(a.states) == config.n_steps() + 1


def test_flows_yield_fresh_states(grid32, stream):
    # the step loops overwrite their workspaces, never a state: kept
    # states share no memory, and no yielded stack changes afterwards
    params, psi = _params(grid32, level=2)
    config = SqeConfig(horizon=0.25, dt=1.0 / 16, params=params, psi=psi)
    coarse = SqeConfig(horizon=0.25, dt=1.0 / 16, params=_params(grid32, level=1)[0], psi=psi)
    phi0 = gff_sample(grid32, stream.child("init"))
    for path in (
        solve_sqe_full(phi0, config, stream),
        solve_sqe_projected(phi0, config, stream),
        ou_path(phi0, time_grid(config), stream.child("ou")),
    ):
        for a, b in combinations(path.states, 2):
            assert not np.shares_memory(a.coeffs, b.coeffs)

    stack = gff_sample(grid32, [stream.for_replica(i) for i in range(3)])
    streams = [stream.for_replica(i).child("dyn") for i in range(3)]
    for flow in (
        evolve_levels(phi0, [coarse, config], stream),
        evolve_projected(stack, config, streams),
    ):
        kept = [(s, s.copy()) for s in flow]
        assert len(kept) == config.n_steps() + 1
        for s, copy in kept:
            assert s.tobytes() == copy.tobytes()
