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
    WickOverflowError,
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
    wick_exp_values,
    zero_field,
)
from expsqlab.randomfields import ou_chain
from expsqlab.spectral import heat_multiplier


def _params(grid, alpha=1.0, level=2):
    return make_wick_params(alpha, level, CutoffProfile("sharp"), grid)


def _zero_trajectory(config, grid):
    """The OU trajectory X = 0 on the solver grid: its Wick forcing is the
    constant exp(-shift)."""
    return FieldPath(config.dt, [zero_field(grid)] * (config.n_steps() + 1))


def _shifted_config(grid, dt, horizon=1.0, alpha=1.0, level=0, **kw):
    params = _params(grid, alpha=alpha, level=level)
    return SqeConfig(horizon=horizon, dt=dt, params=params, **kw)


def _constant_mode_final(grid, dt, u0, alpha=1.0):
    config = _shifted_config(grid, dt, alpha=alpha)
    path = solve_shifted(constant_field(grid, u0), _zero_trajectory(config, grid), config)
    return float(path.final().values()[0, 0])


def test_scalar_ode_oracle():
    # constant data and X = 0, whose Wick forcing is the constant
    # exp(-shift), reduce every grid point to the scalar ODE
    # u' = -u/2 - (alpha/2) e^{-shift} e^{alpha u}; integrate it to rtol
    # 1e-12 and check the stepper converges at first order to that value
    grid = make_grid(8)
    u0, alpha = 0.4, 1.0
    forcing = np.exp(-_params(grid, alpha=alpha, level=0).shift)
    ivp = solve_ivp(
        lambda t, u: -0.5 * u - 0.5 * alpha * forcing * np.exp(alpha * u),
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
    # alpha = 0 switches the drift off whatever X is: the flow must be the
    # exact per-mode decay of (Lap - 1)/2
    config = _shifted_config(grid32, dt=1.0 / 16, alpha=0.0, level=1)
    traj = ou_path(gff_sample(grid32, stream.child("x0")), config.dt, config.n_steps(),
                   stream.child("ou"))
    upsilon = heat_semigroup(gff_sample(grid32, stream), 0.2)
    path = solve_shifted(upsilon, traj, config)
    expected = upsilon.coeffs * heat_multiplier(grid32, 1.0)
    assert np.abs(path.final().coeffs - expected).max() < 1e-13


def test_alpha_zero_full_solve_is_projected_ou(grid32, stream):
    params = _params(grid32, alpha=0.0, level=2)
    config = SqeConfig(horizon=0.5, dt=1.0 / 32, params=params)
    phi0 = gff_sample(grid32, stream.child("init"))
    x_traj = ou_path(phi0, config.dt, config.n_steps(), stream.child("noise"))
    path = solve_sqe_full(phi0, config, stream, x_traj=x_traj)
    mult = params.multiplier(grid32)
    for state, x in zip(path.states, x_traj.states):
        assert np.abs(state.coeffs - mult * x.coeffs).max() < 1e-12
    _, y_part, _ = decompose(path, x_traj, config)
    assert all(np.abs(y.coeffs).max() < 1e-12 for y in y_part.states)
    # a trajectory at dt/2 thinned to every other state drives the dt
    # solve: its increments compose two fine ones, so the solve still
    # reproduces P_N x at the coarse times
    fine = ou_path(phi0, config.dt / 2, 2 * config.n_steps(), stream.child("fine"))
    coarse = FieldPath(fine.dt * 2, fine.states[::2])
    path = solve_sqe_full(phi0, config, stream, x_traj=coarse)
    for state, x in zip(path.states, coarse.states):
        assert np.abs(state.coeffs - mult * x.coeffs).max() < 1e-12


def test_non_dyadic_step_is_one_step(stream):
    # at dt = 0.01 the steps of time_grid differ from dt in the last bit;
    # the chain, a stored path and the solver all step by config.dt, so the
    # live chain is ou_path byte for byte, the stored path drives the live
    # solve's bytes, and the grid holds one heat multiplier
    grid = make_grid(16)
    config = SqeConfig(horizon=1.0, dt=0.01, params=_params(grid, level=1))
    n = config.n_steps()
    phi0 = gff_sample(grid, stream.child("init"))
    live = ou_chain(grid, phi0.coeffs[None], config.dt, n, [stream.child("ou").generator()])
    stored = ou_path(phi0, config.dt, n, stream.child("ou"))
    assert [s[0].tobytes() for s in live] == [s.coeffs.tobytes() for s in stored.states[1:]]
    a = solve_sqe_full(phi0, config, stream)
    b = solve_sqe_full(phi0, config, stream, x_traj=stored)
    assert [s.coeffs.tobytes() for s in a.states] == [s.coeffs.tobytes() for s in b.states]
    heat = [k for k in grid._cache if isinstance(k, tuple) and k[0] == "heat"]
    assert heat == [("heat", 0.01)]


def _decomposed_full_solve(grid, stream):
    params = _params(grid, alpha=1.0, level=2)
    config = SqeConfig(horizon=0.5, dt=1.0 / 32, params=params)
    phi0 = gff_sample(grid, stream.child("init"))
    path = solve_sqe_full(phi0, config, stream.child("noise"))
    # without x_traj the solve draws its OU trajectory from the "ou" child
    x_traj = ou_path(phi0, config.dt, config.n_steps(), stream.child("noise").child("ou"))
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
    traj = ou_path(gff_sample(grid32, stream.child("x0")), config.dt, config.n_steps(),
                   stream.child("ou"))
    path = solve_shifted(zero_field(grid32), traj, config)
    assert max(s.values().max() for s in path.states) <= 1e-12


def test_contraction_identical_inputs(grid32, stream):
    config = _shifted_config(grid32, dt=1.0 / 16, horizon=0.5, level=1)
    upsilon = heat_semigroup(gff_sample(grid32, stream), 0.2)
    report = contraction_check(upsilon, upsilon, _zero_trajectory(config, grid32), config)
    assert isinstance(report, ContractionReport)
    assert report.max_rate_per_unit_time == float("-inf")
    assert report.passed


def test_contraction_random_pair(grid32, stream):
    config = _shifted_config(grid32, dt=1.0 / 32, horizon=0.5, level=2)
    traj = ou_path(gff_sample(grid32, stream.child("x0")), config.dt, config.n_steps(),
                   stream.child("ou"))
    u1 = heat_semigroup(gff_sample(grid32, stream.child("a")), 0.1)
    u2 = heat_semigroup(gff_sample(grid32, stream.child("b")), 0.1)
    report = contraction_check(u1, u2, traj, config)
    assert report.passed
    assert report.gaps[0] > 0


def test_shifted_step_is_forced_by_wick_exp_values(grid32, stream):
    # the step from t_j is forced by wick_exp_values of X_{t_j}, bit for
    # bit: one step spelled out with it gives the solver's bytes
    config = _shifted_config(grid32, dt=1.0 / 16, horizon=1.0 / 16, level=2)
    params = config.params
    traj = ou_path(gff_sample(grid32, stream.child("x0")), config.dt, config.n_steps(),
                   stream.child("ou"))
    upsilon = heat_semigroup(gff_sample(grid32, stream.child("u")), 0.2)
    path = solve_shifted(upsilon, traj, config)
    drift = 0.5 * params.alpha * config.dt * np.exp(params.alpha * upsilon.values())
    drift *= wick_exp_values(traj.states[0], params)
    mult = heat_multiplier(grid32, config.dt)
    expected = mult * (upsilon.coeffs - to_spectral(drift, grid32).coeffs)
    assert path.final().coeffs.tobytes() == expected.tobytes()


def test_forcing_overflow_raises_at_its_step(grid32):
    # a state of X whose Wick exponent passes the guard raises at the step
    # that reads it, with its own exponent, before the next state's larger
    # one is read; the last state, which no step reads, is not evaluated
    config = _shifted_config(grid32, dt=1.0 / 16, horizon=0.5, level=1)
    shift = config.params.shift
    n = config.n_steps()

    def solve(big):
        states = [zero_field(grid32)] * (n + 1)
        for j, value in big.items():
            states[j] = constant_field(grid32, value)
        return solve_shifted(zero_field(grid32), FieldPath(config.dt, states), config)

    for j in (0, 3, n - 1):
        with pytest.raises(WickOverflowError) as info:
            solve({j: 800.0 + j, j + 1: 900.0})
        assert info.value.max_exponent == pytest.approx(800.0 + j - shift, rel=1e-12)
    path = solve({n: 900.0})
    assert np.all(np.isfinite(path.final().coeffs))


def test_config_validation(grid32):
    params = _params(grid32, level=2)
    with pytest.raises(ValueError):
        SqeConfig(horizon=0.0, dt=0.1, params=params)
    with pytest.raises(ValueError):
        SqeConfig(horizon=1.0, dt=2.0, params=params)
    with pytest.raises(ValueError):
        # dt * 4^N = 2 * 16 above the stability cap
        SqeConfig(horizon=4.0, dt=2.0, params=params)
    bad = SqeConfig(horizon=1.0, dt=0.3, params=params)
    with pytest.raises(ValueError):
        bad.n_steps()
    ok = SqeConfig(horizon=1.0, dt=0.25, params=params)
    assert ok.n_steps() == 4
    assert np.array_equal(time_grid(ok), np.array([0.0, 0.25, 0.5, 0.75, 1.0]))


def test_forcing_times_enforced(grid32):
    # the OU trajectory must sit on the solver's own grid of times: its
    # dt and its state count
    config = _shifted_config(grid32, dt=1.0 / 16, horizon=0.25, level=2)
    for dt, n in ((0.3, 2), (1.0 / 32, 5), (1.0 / 16, 4), (1.0 / 16, 6)):
        wrong_times = FieldPath(dt, [zero_field(grid32)] * n)
        with pytest.raises(ValueError, match="uniform solver grid"):
            solve_shifted(zero_field(grid32), wrong_times, config)


def test_rough_initial_datum_rejected(stream):
    grid = make_grid(64)
    config = _shifted_config(grid, dt=1.0 / 16, horizon=0.25, level=2)
    rough = gff_sample(grid, stream)
    zeros = _zero_trajectory(config, grid)
    with pytest.raises(ValueError, match="rough"):
        solve_shifted(rough, zeros, config)
    smooth = heat_semigroup(rough, 0.1)
    path = solve_shifted(smooth, zeros, config)
    assert np.all(np.isfinite(path.final().coeffs))


def test_x_traj_validation(grid32, stream):
    params = _params(grid32, level=2)
    config = SqeConfig(horizon=0.25, dt=1.0 / 16, params=params)
    phi0 = gff_sample(grid32, stream.child("init"))
    other = gff_sample(grid32, stream.child("other"))
    traj = ou_path(other, config.dt, config.n_steps(), stream.child("ou"))
    with pytest.raises(ValueError, match="start"):
        solve_sqe_full(phi0, config, stream, x_traj=traj)
    short = ou_path(phi0, 0.25, 1, stream.child("ou"))
    with pytest.raises(ValueError):
        solve_sqe_full(phi0, config, stream, x_traj=short)


def test_projected_solver_deterministic(grid32, stream):
    params = _params(grid32, alpha=1.0, level=2)
    config = SqeConfig(horizon=0.25, dt=1.0 / 16, params=params)
    phi0 = gff_sample(grid32, stream.child("init"))
    a = solve_sqe_projected(phi0, config, stream.child("n"))
    b = solve_sqe_projected(phi0, config, stream.child("n"))
    assert np.array_equal(a.final().coeffs, b.final().coeffs)
    assert np.array_equal(a.times, time_grid(config))
    assert len(a.states) == config.n_steps() + 1


def test_flows_yield_fresh_states(grid32, stream):
    # the paths keep their own states: kept states share no memory
    params = _params(grid32, level=2)
    config = SqeConfig(horizon=0.25, dt=1.0 / 16, params=params)
    coarse = SqeConfig(horizon=0.25, dt=1.0 / 16, params=_params(grid32, level=1))
    phi0 = gff_sample(grid32, stream.child("init"))
    for path in (
        solve_sqe_full(phi0, config, stream),
        solve_sqe_projected(phi0, config, stream),
        ou_path(phi0, config.dt, config.n_steps(), stream.child("ou")),
    ):
        for a, b in combinations(path.states, 2):
            assert not np.shares_memory(a.coeffs, b.coeffs)

    # a flow yields its one state buffer at every step, and what it holds
    # then is, byte for byte, the state the solve_* wrapper keeps there
    stack = gff_sample(grid32, [stream.for_replica(i) for i in range(3)])
    streams = [stream.for_replica(i).child("dyn") for i in range(3)]
    levels = [coarse, config]
    for flow, paths in (
        (
            evolve_levels(phi0, levels, stream),
            [solve_sqe_full(phi0, c, stream) for c in levels],
        ),
        (
            evolve_projected(stack, config, streams),
            [solve_sqe_projected(f, config, s) for f, s in zip(stack.unstack(), streams)],
        ),
    ):
        yielded = []
        for j, s in enumerate(flow):
            yielded.append(s)
            assert s is yielded[0]
            for row, path in zip(s, paths):
                assert row.tobytes() == path.states[j].coeffs.tobytes()
        assert len(yielded) == config.n_steps() + 1
