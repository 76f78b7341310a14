"""Blocked evaluation: stacks of fields against one field at a time.

``sample_ensemble``, ``invariance_test`` with its block observables
(``standard_observables``) and ``cmd_sample_gff`` evaluate fields in
blocks of BLOCK_BYTES per stack (16 fields at M = 32), and
``evolve_levels`` steps the cutoff levels of ``cmd_sqe`` as one stack.
Their results, overflow errors included, must be bit-identical to a
plain loop over the single-field functions; the counts here are not
multiples of the block.  An ensemble stores no proposals, so what it
rebuilds on ``take`` is checked against that loop's proposals too.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expsqlab import (
    CutoffProfile,
    DegenerateEnsembleError,
    ExperimentConfig,
    RngStream,
    SpectralField,
    SqeConfig,
    TorusGrid,
    WeightedEnsemble,
    WickOverflowError,
    cmd_invariance,
    cmd_norms_bench,
    cmd_sample_gff,
    cmd_sqe,
    cmd_wick_converge,
    contraction_check,
    evolve_levels,
    evolve_projected,
    gff_sample,
    grid_quadrature,
    heat_semigroup,
    invariance_test,
    make_wick_params,
    mode0_tilt_mean,
    ou_path,
    rn_log_weight,
    sample_ensemble,
    save_fields,
    sobolev_norm,
    solve_shifted,
    solve_sqe_full,
    solve_sqe_projected,
    standard_observables,
    to_spectral,
    wick_exp_values,
    zero_field,
)
from expsqlab import dynamics, randomfields
from expsqlab.measures import AREA, UNDERFLOW_LOG, _resample_ancestors
from expsqlab.spectral import BLOCK_BYTES, blocks, sobolev_norms, to_coeffs, to_values
from fields import constant_field


def _setup(grid, alpha=1.0, level=2):
    return make_wick_params(alpha, level, CutoffProfile("sharp"), grid)


def _block_rows(grid):
    return BLOCK_BYTES // (16 * grid.npoints)


def _reference_ensemble(grid, params, count, stream, m):
    """The one-proposal-at-a-time loop sample_ensemble must reproduce."""
    base = stream.child("proposal")
    samples, log_w = [], []
    for i in range(count):
        draw = gff_sample(grid, base.for_replica(i))
        if m != 0.0:
            coeffs = draw.copy_coeffs()
            coeffs[0, 0] += m
            draw = SpectralField(grid, coeffs)
        u0 = float(np.real(draw.coeffs[0, 0]))
        log_w.append(rn_log_weight(draw, params) - m * u0 + 0.5 * m * m)
        samples.append(draw)
    return samples, np.array(log_w)


def _stored(fields):
    """A proposal source over stored fields, for hand-built ensembles."""
    grid = fields[0].grid
    return lambda idx: SpectralField(grid, np.stack([fields[i].coeffs for i in idx]))


def _first_overflow(fn, count):
    """(index, exponent) of the first call fn(i) that overflows, or None."""
    for i in range(count):
        try:
            fn(i)
        except WickOverflowError as e:
            return i, e.max_exponent
    return None


def test_block_size_is_a_byte_budget(grid32):
    assert _block_rows(grid32) == 16


def test_gff_sample_stack_matches_single_draws(grid32, stream):
    streams = [stream.for_replica(i) for i in range(5)]
    stack = gff_sample(grid32, streams)
    assert stack.coeffs.shape == (5, 32, 32)
    for s, row in zip(streams, stack.coeffs):
        assert np.array_equal(row, gff_sample(grid32, s).coeffs)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([8, 16, 32]),
    st.integers(0, 2**64 - 1),
    st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6),
)
def test_gff_sample_stack_rows_for_any_replica_layout(M, seed, replicas):
    # repeated and unordered replica indices included: a row's draw
    # depends on its own stream only, never on its place in the stack
    grid = TorusGrid(M)
    streams = [RngStream(seed, replica=r, purpose="layout") for r in replicas]
    stack = gff_sample(grid, streams)
    for s, row in zip(streams, stack.coeffs):
        assert np.array_equal(row, gff_sample(grid, s).coeffs)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([8, 16, 32]), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_transform_stack_rows_match_single_fields(M, n, seed):
    grid = TorusGrid(M)
    values = np.random.default_rng(seed).standard_normal((n, M, M))
    coeffs = to_coeffs(values, grid)
    back = to_values(coeffs, grid)
    for i in range(n):
        assert np.array_equal(coeffs[i], to_coeffs(values[i], grid))
        assert np.array_equal(back[i], to_values(coeffs[i], grid))


@pytest.mark.parametrize("tilt", ["auto", "none"])
def test_ensemble_matches_single_proposal_loop(grid32, tilt):
    params = _setup(grid32)
    stream = RngStream(610, purpose="blocked")
    ens = sample_ensemble(grid32, params, 101, stream, tilt=tilt)
    m = mode0_tilt_mean(params.alpha) if tilt == "auto" else 0.0
    samples, log_w = _reference_ensemble(grid32, params, 101, stream, m)
    assert np.array_equal(ens.log_weights, log_w)
    assert ens.n_underflow == int((log_w < UNDERFLOW_LOG).sum())
    # the proposals are rebuilt from their streams, bit for bit as drawn
    stack = ens.take(range(101))
    assert stack.coeffs.shape == (101, 32, 32)
    for a, b in zip(stack.coeffs, samples):
        assert np.array_equal(a, b.coeffs)


def test_resample_rebuilds_repeated_unordered_ancestors(grid32):
    # 70 draws from 64 proposals repeat ancestors and pick them out of
    # order; each draw must be its reference proposal's bytes, across the
    # block boundaries of the rebuild (the untilted proposal is too
    # degenerate to resample at any size a test can afford)
    params = _setup(grid32, alpha=0.5, level=1)
    stream = RngStream(622, purpose="rebuild")
    ens = sample_ensemble(grid32, params, 64, stream)
    m = mode0_tilt_mean(params.alpha)
    samples, _ = _reference_ensemble(grid32, params, 64, stream, m)
    ancestors = _resample_ancestors(ens, 70, stream.child("pick")).tolist()
    assert len(set(ancestors)) < len(ancestors)
    assert ancestors != sorted(ancestors)
    rebuilt = [ens.take(ancestors[rows.start : rows.stop]) for rows in blocks(70, grid32)]
    assert len(rebuilt) > 1
    rows = np.concatenate([stack.coeffs for stack in rebuilt])
    assert len(rows) == 70
    for a, row in zip(ancestors, rows):
        assert row.tobytes() == samples[a].coeffs.tobytes()


def test_evolve_projected_matches_single_solves(grid32):
    params = _setup(grid32)
    config = SqeConfig(horizon=0.125, dt=1.0 / 64, params=params)
    base = RngStream(612, purpose="evolve")
    phi0 = gff_sample(grid32, [base.child("init").for_replica(i) for i in range(3)])
    streams = [base.for_replica(i) for i in range(3)]
    stacks = [s.copy() for s in evolve_projected(phi0, config, streams)]
    assert len(stacks) == config.n_steps() + 1
    for i, (row, s) in enumerate(zip(phi0.coeffs, streams)):
        path = solve_sqe_projected(SpectralField(grid32, row), config, s)
        for stack, state in zip(stacks, path.states):
            assert stack[i].tobytes() == state.coeffs.tobytes()
    # one stream per row, checked on the call: a short list would
    # silently share noise
    with pytest.raises(ValueError):
        evolve_projected(phi0, config, streams[:1])


def _stacks_until_overflow(flow):
    """A copy of every stack a flow yields before it raises (the flow
    overwrites its one buffer), and the exponent it raises."""
    stacks = []
    with pytest.raises(WickOverflowError) as info:
        for stack in flow:
            stacks.append(stack.copy())
    return stacks, info.value.max_exponent


def test_failing_replica_leaves_other_replicas_unharmed(grid32):
    # one hot constant replica among ordinary draws fails at step 0; every
    # other replica steps on exactly as its own solve
    params = _setup(grid32)
    config = SqeConfig(horizon=0.125, dt=1.0 / 64, params=params)
    base = RngStream(624, purpose="failing-replica")
    streams = [base.for_replica(i) for i in range(4)]
    coeffs = gff_sample(grid32, [base.child("init").for_replica(i) for i in range(4)]).copy_coeffs()
    coeffs[1] = constant_field(grid32, 701.0 + params.c_n / 2).coeffs
    phi0 = SpectralField(grid32, coeffs)
    fields = [SpectralField(grid32, row) for row in phi0.coeffs]
    with pytest.raises(WickOverflowError) as single:
        solve_sqe_projected(fields[1], config, streams[1])
    stacks, exponent = _stacks_until_overflow(evolve_projected(phi0, config, streams))
    assert exponent == single.value.max_exponent == pytest.approx(701.0)
    assert len(stacks) == config.n_steps() + 1
    assert not any(stack[1].any() for stack in stacks[1:])
    for i in (0, 2, 3):
        path = solve_sqe_projected(fields[i], config, streams[i])
        for stack, state in zip(stacks, path.states):
            assert stack[i].tobytes() == state.coeffs.tobytes()


def _lost_datum():
    """A constant datum at Wick exponent 699, under the guard, whose drift
    overflows the FFT at alpha = 3.5, level 1, dt = 1, M = 256, so that
    the state after step 0 is not finite; and its configuration."""
    grid = TorusGrid(256)
    params = make_wick_params(3.5, 1, CutoffProfile("sharp"), grid)
    config = SqeConfig(horizon=2.0, dt=1.0, params=params)
    return config, constant_field(grid, (699.0 + params.shift) / params.alpha)


def test_lost_finiteness_fails_the_row():
    # the exponent never passes the guard, yet both stochastic flows flag
    # the row at step 0 with exponent inf and yield no non-finite state,
    # with no numpy warning of the overflow (warnings fail the suite)
    config, phi0 = _lost_datum()
    stream = RngStream(626, purpose="lost-finiteness")
    stack = SpectralField(phi0.grid, phi0.coeffs[None])
    for flow in (evolve_levels(phi0, [config], stream), evolve_projected(stack, config, [stream])):
        stacks, exponent = _stacks_until_overflow(flow)
        assert exponent == np.inf
        assert len(stacks) == 1 and np.isfinite(stacks).all()


def test_lost_replica_leaves_other_replicas_unharmed():
    config, hot = _lost_datum()
    grid = hot.grid
    base = RngStream(627, purpose="lost-replica")
    streams = [base.for_replica(i) for i in range(3)]
    coeffs = gff_sample(grid, [base.child("init").for_replica(i) for i in range(3)]).copy_coeffs()
    coeffs[1] = hot.coeffs
    phi0 = SpectralField(grid, coeffs)
    stacks, exponent = _stacks_until_overflow(evolve_projected(phi0, config, streams))
    assert exponent == np.inf
    assert len(stacks) == config.n_steps() + 1
    assert np.isfinite(stacks).all() and not any(stack[1].any() for stack in stacks[1:])
    for i in (0, 2):
        path = solve_sqe_projected(SpectralField(grid, phi0.coeffs[i]), config, streams[i])
        for stack, state in zip(stacks, path.states):
            assert stack[i].tobytes() == state.coeffs.tobytes()


def test_invariance_matches_single_replica_loop(grid32):
    params = _setup(grid32)
    stream = RngStream(613, purpose="blocked-inv")
    ens = sample_ensemble(grid32, params, 101, stream.child("ens"))
    config = SqeConfig(horizon=0.125, dt=1.0 / 64, params=params)
    seen = []

    def record(block):
        seen.append(block.coeffs.copy())
        return {"mode0": block.coeffs[:, 0, 0].real.tolist()}

    evolve = stream.child("evolve")
    report = invariance_test(ens, config, record, evolve, replicas=37)
    assert report.replicas == 37
    # the observables see each block twice, its start stack then its end
    # stack: 37 replicas are blocks of 16, 16 and 5
    assert [len(stack) for stack in seen] == [16, 16, 16, 16, 5, 5]
    starts, ends = np.concatenate(seen[0::2]), np.concatenate(seen[1::2])
    samples, _ = _reference_ensemble(grid32, params, 101, stream.child("ens"),
                                     mode0_tilt_mean(params.alpha))
    ancestors = _resample_ancestors(ens, 37, evolve)
    for i, a in enumerate(ancestors):
        path = solve_sqe_projected(samples[a], config, evolve.for_replica(i).child("dyn"))
        assert starts[i].tobytes() == samples[a].coeffs.tobytes()
        assert ends[i].tobytes() == path.states[-1].coeffs.tobytes()
    assert report.stats["mode0"].mean_initial == float(starts[:, 0, 0].real.mean())
    assert report.stats["mode0"].mean_final == float(ends[:, 0, 0].real.mean())


def _bits(values):
    return np.array(values, dtype=np.float64).view(np.uint64).tolist()


@pytest.mark.parametrize("kind", ["sharp", "smooth"])
@pytest.mark.parametrize("M", [16, 32, 64])
def test_standard_observables_rows_match_single_fields(M, kind):
    # each row of a block's observables, for blocks of 1, 5 and 16 rows,
    # is bit for bit the one-field formula of its field
    grid = TorusGrid(M)
    params = make_wick_params(1.0, 1, CutoffProfile(kind), grid)
    observe = standard_observables(params, eps=0.125)
    stream = RngStream(629, purpose="observables")
    for n in (1, 5, 16):
        block = gff_sample(grid, [stream.for_replica(i) for i in range(n)])
        values = observe(block)
        assert all(len(v) == n for v in values.values())
        for j, row in enumerate(block.coeffs):
            f = SpectralField(grid, row)
            norm = sobolev_norm(f, -0.125)
            u0 = float(f.coeffs[0, 0].real)
            wick_mean = float(grid_quadrature(wick_exp_values(f, params), grid) / AREA)
            expected = {"hneg_norm": norm, "hneg_norm_sq": norm ** 2, "mode0": u0,
                        "mode0_sq": u0 ** 2, "wick_mean": wick_mean}
            assert list(values) == list(expected)
            assert _bits([v[j] for v in values.values()]) == _bits(list(expected.values()))


def test_ensemble_overflow_names_lowest_failing_proposal(grid32):
    # pick a tilt whose guard threshold falls between the exponents of the
    # proposals of the first block, so that the lowest failing proposal k
    # is neither the block's first row nor its largest exponent
    params = _setup(grid32)
    stream = RngStream(614, purpose="overflow")
    base = stream.child("proposal")
    shift = 0.5 * params.alpha**2 * params.c_n
    rows = _block_rows(grid32)
    psi_mult = params.multiplier(grid32)
    peaks = [
        params.alpha
        * SpectralField(grid32, psi_mult * gff_sample(grid32, base.for_replica(i)).coeffs)
        .values().max() - shift
        for i in range(rows)
    ]
    k = next(
        k for k in range(1, rows - 1)
        if peaks[k] > max(peaks[:k]) and max(peaks[k + 1 :]) > peaks[k]
    )
    lift = 700.0 - 0.5 * (peaks[k] + max(peaks[:k]))
    m = lift * 2.0 * math.pi / params.alpha

    def one(i):
        draw = gff_sample(grid32, base.for_replica(i))
        coeffs = draw.copy_coeffs()
        coeffs[0, 0] += m
        rn_log_weight(SpectralField(grid32, coeffs), params)

    index, exponent = _first_overflow(one, 40)
    assert index == k
    with pytest.raises(WickOverflowError) as info:
        sample_ensemble(grid32, params, 40, stream, tilt=m)
    assert info.value.max_exponent == exponent


def test_solver_overflow_names_lowest_failing_replica(grid32):
    # an equal-weight ensemble with a few constant fields hot enough to
    # trip the guard; the first hot replica sits inside a block, followed
    # by hotter ones in the same block
    params = _setup(grid32)
    hot = {48 + j: constant_field(grid32, 700.0 + params.c_n / 2 + j + 1) for j in range(16)}
    samples = tuple(hot.get(i, zero_field(grid32)) for i in range(64))
    ens = WeightedEnsemble(grid=grid32, proposals=_stored(samples),
                           log_weights=np.full(64, -1.0))
    config = SqeConfig(horizon=0.0625, dt=1.0 / 64, params=params)
    obs = standard_observables(params)
    stream = RngStream(617, purpose="overflow-dyn")
    ancestors = _resample_ancestors(ens, 40, stream)

    def one(i):
        solve_sqe_projected(samples[ancestors[i]], config, stream.for_replica(i).child("dyn"))

    index, exponent = _first_overflow(one, 40)
    rows = _block_rows(grid32)
    assert index % rows != 0
    block_end = (index // rows + 1) * rows
    assert any(int(a) > int(ancestors[index]) for a in ancestors[index + 1 : block_end])
    with pytest.raises(WickOverflowError) as info:
        invariance_test(ens, config, obs, stream, replicas=40)
    assert info.value.max_exponent == exponent


def test_degenerate_ensemble_has_its_own_error(grid32):
    params = _setup(grid32)
    plain = sample_ensemble(grid32, params, 60, RngStream(616, purpose="d"), tilt="none")
    config = SqeConfig(horizon=1.0 / 64, dt=1.0 / 64, params=params)
    with pytest.raises(DegenerateEnsembleError, match="ESS"):
        invariance_test(plain, config, standard_observables(params), RngStream(616), replicas=10)


def _level_configs(grid, kind, levels, horizon=0.125):
    psi = CutoffProfile(kind)
    return [
        SqeConfig(horizon=horizon, dt=1.0 / 64, params=make_wick_params(1.0, n, psi, grid))
        for n in levels
    ]


@pytest.mark.parametrize("kind", ["sharp", "smooth"])
def test_evolve_levels_match_single_level_solves(grid32, kind):
    # the reference is a loop over the levels: one stored OU path, each
    # level solved on its own from its increments
    configs = _level_configs(grid32, kind, (0, 1, 2))
    stream = RngStream(618, purpose="levels")
    phi0 = gff_sample(grid32, stream.child("init"))
    x_traj = ou_path(phi0, configs[0].dt, configs[0].n_steps(), stream.child("ou"))
    paths = [solve_sqe_full(phi0, c, stream, x_traj=x_traj) for c in configs]
    stacks = [s.copy() for s in evolve_levels(phi0, configs, stream)]
    assert len(stacks) == len(x_traj.times)
    for j, stack in enumerate(stacks):
        assert stack.shape == (3, 32, 32)
        for level, path in enumerate(paths):
            assert stack[level].tobytes() == path.states[j].coeffs.tobytes()
    # the levels must share one time grid and one noise
    with pytest.raises(ValueError, match="share"):
        evolve_levels(phi0, _level_configs(grid32, kind, (1,), 0.25) + configs, stream)


def _hot_datum(grid, configs, e2, e3):
    """a cos(3x) + b cos(6x): no mass at or below level 1's sharp cutoff
    |k| <= 2; level 2 (|k| <= 4) sees the first term only, with largest
    Wick exponent e2, level 3 both, with largest exponent e3."""
    shift = [0.5 * c.params.alpha**2 * c.params.c_n for c in configs]
    a = e2 + shift[1]
    b = e3 + shift[2] - a
    x = np.arange(grid.modes_per_dim) * 2.0 * np.pi / grid.modes_per_dim
    column = a * np.cos(3.0 * x) + b * np.cos(6.0 * x)
    return to_spectral(np.repeat(column[:, None], grid.modes_per_dim, axis=1), grid)


@pytest.mark.parametrize("case", ["later-step", "smaller-exponent"])
def test_level_overflow_names_lowest_failing_level(case):
    # level 1 never fails and level 3 fails at step 0; level 2 fails
    # either one step later ("later-step": its step-0 exponent 400 is
    # under the guard, the huge kick it gives overflows at step 1) or at
    # step 0 with a smaller exponent than level 3's.  A loop over the
    # levels raises level 2's error; the lockstep run must raise it too,
    # not the first failure in time nor the largest exponent.
    grid = TorusGrid(64)
    configs = _level_configs(grid, "sharp", (1, 2, 3), horizon=4 / 64)
    e2, e3 = (400.0, 720.0) if case == "later-step" else (710.0, 760.0)
    phi0 = _hot_datum(grid, configs, e2, e3)
    stream = RngStream(619, purpose="level-overflow")

    def one(level):
        solve_sqe_full(phi0, configs[level], stream)

    index, exponent = _first_overflow(one, 3)
    assert index == 1
    one_step = _level_configs(grid, "sharp", (1, 2, 3), horizon=1 / 64)
    step0 = _first_overflow(lambda level: solve_sqe_full(phi0, one_step[level], stream), 3)
    if case == "later-step":
        assert step0[0] == 2 and exponent > 1e100
    else:
        assert step0 == (1, exponent) and exponent < 750.0
    with pytest.raises(WickOverflowError) as info:
        list(evolve_levels(phi0, configs, stream))
    assert info.value.max_exponent == exponent


def test_failing_level_leaves_other_levels_unharmed():
    # levels 2 and 3 overflow at step 0; level 1 never fails and steps on
    # exactly as its own solve, so the flow runs to the end before raising
    grid = TorusGrid(64)
    configs = _level_configs(grid, "sharp", (1, 2, 3), horizon=4 / 64)
    phi0 = _hot_datum(grid, configs, 710.0, 760.0)
    stream = RngStream(625, purpose="failing-level")
    stacks, exponent = _stacks_until_overflow(evolve_levels(phi0, configs, stream))
    assert (1, exponent) == _first_overflow(lambda n: solve_sqe_full(phi0, configs[n], stream), 3)
    assert exponent == pytest.approx(710.0)
    reference = solve_sqe_full(phi0, configs[0], stream)
    assert len(stacks) == len(reference.states)
    for stack, state in zip(stacks, reference.states):
        assert stack[0].tobytes() == state.coeffs.tobytes()
    assert not stacks[-1][1:].any()


def test_sqe_builds_one_ou_chain_per_replica(monkeypatch):
    original = randomfields.ou_chain
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    for module in (randomfields, dynamics):
        monkeypatch.setattr(module, "ou_chain", counted)
    # one chain per replica, shared by its two levels
    cfg = ExperimentConfig(modes=32, level=2, seed=7, replicas=3, horizon=0.125, dt=1 / 64)
    assert cmd_sqe(cfg).exit_code == 0
    assert len(calls) == 3


def _reference_sample_gff(cfg, dump):
    """cmd_sample_gff's body computed one draw at a time, all draws kept."""
    grid = cfg.build_grid()
    stream = RngStream(cfg.seed, purpose="sample-gff")
    s = -cfg.eps
    draws = [gff_sample(grid, stream.for_replica(i)) for i in range(cfg.samples)]
    sq_norms = np.array([sobolev_norm(f, s) ** 2 for f in draws])
    theory = float(((1.0 + grid.ksq) ** (s - 1.0)).sum())
    se = sq_norms.std(ddof=1) / math.sqrt(len(sq_norms))
    z = (sq_norms.mean() - theory) / se
    mode0 = np.array([float(np.real(f.coeffs[0, 0])) for f in draws])
    save_fields(dump, draws)
    return {
        "samples": len(draws),
        "modes_per_dim": grid.modes_per_dim,
        "sobolev_order": s,
        "mean_sq_norm": float(sq_norms.mean()),
        "theory_sq_norm": theory,
        "z": float(z),
        "mode0_mean": float(mode0.mean()),
        "mode0_var": float(mode0.var(ddof=1)),
        "passed": bool(abs(z) <= 4.0),
    }


def test_sample_gff_matches_single_draw_loop(tmp_path, grid32):
    # 37 draws: blocks of 16, 16 and a ragged 5
    assert 37 % _block_rows(grid32) != 0
    cfg = ExperimentConfig(modes=32, seed=620, samples=37)
    report = cmd_sample_gff(cfg, out_dir=tmp_path / "blocked")
    body = _reference_sample_gff(cfg, tmp_path / "reference.bin")
    assert report.body == body
    dumps = [tmp_path / "blocked" / "samples.bin", tmp_path / "reference.bin"]
    assert dumps[0].read_bytes() == dumps[1].read_bytes()


def _peak_traced_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sample_gff_memory_does_not_grow_with_samples(tmp_path):
    # the dump streams block by block: eight times the draws may add one
    # block to the peak (the per-draw norms are 16 bytes a draw), never
    # the draws themselves (16 KiB each at M = 32)
    def run(samples):
        cfg = ExperimentConfig(modes=32, seed=621, samples=samples)
        return lambda: cmd_sample_gff(cfg, out_dir=tmp_path / str(samples))

    run(40)()  # warm caches (weights, FFT plans) outside the measurement
    small = _peak_traced_bytes(run(40))
    large = _peak_traced_bytes(run(320))
    assert large - small <= BLOCK_BYTES


def test_ensemble_memory_does_not_grow_with_samples(grid32):
    # the ensemble keeps 8 bytes of log-weight a proposal and the
    # invariance test rebuilds the resampled ancestors block by block:
    # eight times the proposals may add one block and the log-weights to
    # the peak, never the proposals themselves (16 KiB each at M = 32)
    params = _setup(grid32)
    stream = RngStream(623, purpose="ensemble-memory")
    config = SqeConfig(horizon=1.0 / 64, dt=1.0 / 64, params=params)
    obs = standard_observables(params)

    def run(samples):
        def go():
            ens = sample_ensemble(grid32, params, samples, stream)
            invariance_test(ens, config, obs, stream, replicas=40)
        return go

    run(150)()  # warm caches (weights, FFT plans) outside the measurement
    small = _peak_traced_bytes(run(150))
    large = _peak_traced_bytes(run(1200))
    assert large - small <= BLOCK_BYTES + 8 * (1200 - 150)


# the invariance command at M = 32, where a block is 16 replicas
INVARIANCE_FIELDS = dict(modes=32, level=1, seed=634, samples=64, horizon=1 / 64, dt=1 / 64)

# each command at a count and at four times it: (command, config fields,
# the field scaled, the count, whether it writes its files).  The
# invariance test starts at one block of 16 replicas.
COMMAND_COUNTS = [
    (cmd_sample_gff, dict(modes=32, seed=631), "samples", 40, True),
    (cmd_wick_converge, dict(modes=32, level=2, seed=632), "replicas", 4, True),
    (cmd_sqe, dict(modes=16, level=1, seed=633, horizon=1.25, dt=1 / 64), "replicas", 8, True),
    (cmd_invariance, INVARIANCE_FIELDS, "replicas", 16, True),
    (cmd_norms_bench, dict(modes=32, seed=635), "replicas", 8, False),
]


@pytest.mark.parametrize(
    "cmd, fields, key, count, writes", COMMAND_COUNTS, ids=[c[0].__name__ for c in COMMAND_COUNTS]
)
def test_command_memory_is_a_block_and_its_counts(tmp_path, cmd, fields, key, count, writes):
    # four times the count may add one block to a command's peak and 64
    # floats a counted draw or replica (its norms, gaps, ratios and
    # observables), never a field per draw (16 KiB at M = 32) nor the
    # paths.csv rows of every replica (81 rows of six numbers here)
    def run(n):
        cfg = ExperimentConfig(**fields, **{key: n})
        return lambda: cmd(cfg, out_dir=tmp_path / str(n) if writes else None)

    run(count)()  # warm caches (weights, FFT plans) outside the measurement
    small = _peak_traced_bytes(run(count))
    large = _peak_traced_bytes(run(4 * count))
    assert large - small <= BLOCK_BYTES + 64 * 8 * 3 * count


def test_invariance_drops_a_block_before_it_takes_the_next(tmp_path):
    # the invariance test drops a block's initial data and final states
    # before it takes the next block, so two blocks of replicas peak
    # where one does, up to their observables; holding the previous
    # block while the next is evolved adds a whole block
    def run(n):
        cfg = ExperimentConfig(**INVARIANCE_FIELDS, replicas=n)
        return lambda: cmd_invariance(cfg, out_dir=tmp_path / str(n))

    run(16)()  # warm caches (weights, FFT plans) outside the measurement
    one = _peak_traced_bytes(run(16))
    two = _peak_traced_bytes(run(32))
    assert two - one < BLOCK_BYTES // 8


def test_level_flow_holds_one_state_stack():
    # evolve_levels at M = 64 with three levels, reduced to its norms at
    # every step as cmd_sqe does; a complex field is a third of a stack
    # here and a real one a sixth.  The flow holds its one state buffer
    # (1 stack), the spectral and grid workspaces of the one level it
    # steps (half a stack), which also take the OU chain's noise draw,
    # and the noise of one field: the chain's state and its decayed state,
    # which it overwrites with the increment (2/3 of a stack).  The heat
    # multiplier, the OU noise scale and the levels' cutoff masks are the
    # grid's cached arrays, warmed outside the measurement.  That is 2.2
    # stacks live at a yield, and the norms' two rows or numpy's real ->
    # complex cast buffers add a third: 2.54 at the peak.  Noise
    # workspaces of the chain's own or a heat multiplier per user each
    # add half a stack, and stack-sized step workspaces or a second live
    # state a whole stack.
    grid = TorusGrid(64)
    configs = _level_configs(grid, "sharp", (1, 2, 3), horizon=4 / 64)
    stream = RngStream(626, purpose="flow-memory")
    phi0 = gff_sample(grid, stream.child("init"))
    stack_bytes = 3 * grid.npoints * 16

    def run():
        for stack in evolve_levels(phi0, configs, stream):
            sobolev_norms(stack, grid, (0.0, -0.5))

    run()  # warm caches (weights, heat multiplier) outside the measurement
    assert _peak_traced_bytes(run) < 3.25 * stack_bytes
    # the norms form |coeff|^2 in two rows of M^2 floats, a third of this
    # stack, and the norms of a difference form its real and imaginary
    # parts in the same rows; (n, M^2) temporaries or a complex
    # difference would take a stack or more
    stack = gff_sample(grid, [stream.for_replica(i) for i in range(3)]).coeffs
    assert _peak_traced_bytes(lambda: sobolev_norms(stack, grid, (0.0, -0.5))) < stack_bytes / 2

    def gaps():
        sobolev_norms(stack[1:], grid, (-0.5,), minus=stack[:-1])

    assert _peak_traced_bytes(gaps) < stack_bytes / 2


def test_sqe_memory_is_the_flow_and_the_grid_caches():
    # cmd_sqe at M = 64 with three levels, in stacks of three complex
    # fields as above.  Unlike the flow test, the run draws its initial
    # datum, builds the grid's cached arrays (free-field and OU noise
    # scales, heat multiplier, two Sobolev weights: 5/6 of a stack; the
    # three levels' boolean cutoff masks: 1/16) and takes the level gaps:
    # 3.64 stacks at the peak.  The OU chain allocates its state buffer
    # after it drops the datum; allocated before the decay it reads 3.97.
    # Increments formed apart from the chain, in a second decayed state,
    # read 3.81, as does a chain that builds its heat multiplier uncached;
    # float cutoff multipliers add half a stack.
    cfg = ExperimentConfig(modes=64, level=3, seed=627, replicas=2, horizon=4 / 64, dt=1 / 64)
    stack_bytes = 3 * 64 * 64 * 16
    assert cmd_sqe(cfg).exit_code == 0  # warm imports and FFT plans
    assert _peak_traced_bytes(lambda: cmd_sqe(cfg)) < 3.75 * stack_bytes


def test_sqe_builds_each_cutoff_symbol_once(monkeypatch):
    # every level of the flow reads its cutoff symbol from the grid's
    # cache: a run builds psi(2^-N k) once per level on its one grid,
    # however many replicas and steps it takes
    built = []
    radial = CutoffProfile._radial

    def counted(self, r):
        built.append(self.kind)
        return radial(self, r)

    monkeypatch.setattr(CutoffProfile, "_radial", counted)
    cfg = ExperimentConfig(modes=32, level=2, seed=636, replicas=2, horizon=4 / 64, dt=1 / 64)
    assert cmd_sqe(cfg).exit_code == 0
    assert len(built) == 2


@pytest.mark.parametrize(
    "cmd, fields",
    [
        (cmd_sqe, dict(modes=32, level=2, seed=636, replicas=2, horizon=4 / 64, dt=1 / 64)),
        (cmd_invariance, dict(INVARIANCE_FIELDS, replicas=40)),
    ],
    ids=["sqe", "invariance"],
)
def test_each_ou_noise_scale_is_built_once(monkeypatch, cmd, fields):
    # every OU chain reads its noise scale from the grid's cache: a run
    # builds sqrt(v)/M once on its one grid and dt, however many replicas
    # it steps (two for sqe) and in however many blocks (three of 16
    # replicas for invariance)
    built = []
    variance = randomfields.ou_noise_variance

    def counted(grid, dt):
        built.append(dt)
        return variance(grid, dt)

    monkeypatch.setattr(randomfields, "ou_noise_variance", counted)
    assert cmd(ExperimentConfig(**fields)).exit_code == 0
    assert built == [fields["dt"]]


def test_shifted_solve_holds_its_states_and_a_few_fields():
    # solve_shifted at M = 32 over a 65-state OU trajectory keeps its 65
    # states, 16 KiB each.  Beside them it holds the zero datum, one
    # spectral and two grid workspaces and the initial-regularity
    # check's temporaries: 70.2 fields at the peak (the cutoff multiplier
    # is the grid's cached one, warmed with the weights).
    # Each step forms its Wick forcing from its state of X in the grid
    # workspace, so a stored path of forcing states (65 more fields)
    # cannot fit under the bound.
    grid = TorusGrid(32)
    params = make_wick_params(1.0, 2, CutoffProfile("sharp"), grid)
    config = SqeConfig(horizon=1.0, dt=1 / 64, params=params)
    stream = RngStream(628, purpose="shifted-memory")
    traj = ou_path(gff_sample(grid, stream.child("x0")), config.dt, config.n_steps(),
                   stream.child("ou"))
    assert len(traj.states) == 65
    field_bytes = grid.npoints * 16

    def run():
        solve_shifted(zero_field(grid), traj, config)

    run()  # warm caches (weights, heat multiplier) outside the measurement
    assert _peak_traced_bytes(run) < (65 + 7) * field_bytes


def test_contraction_check_holds_a_few_fields_not_its_paths():
    # contraction_check steps its two shifted flows in lockstep over the
    # 65-state trajectory above and keeps one gap per state.  Each flow
    # holds its state buffer and one spectral and two grid workspaces,
    # and both read the grid's cached cutoff multiplier; with the gap's
    # rows that is 8.1 fields at the peak.  Two kept 65-state paths (130
    # fields) cannot fit.
    grid = TorusGrid(32)
    params = make_wick_params(1.0, 2, CutoffProfile("sharp"), grid)
    config = SqeConfig(horizon=1.0, dt=1 / 64, params=params)
    stream = RngStream(628, purpose="shifted-memory")
    traj = ou_path(gff_sample(grid, stream.child("x0")), config.dt, config.n_steps(),
                   stream.child("ou"))
    assert len(traj.states) == 65
    u1 = heat_semigroup(gff_sample(grid, stream.child("u1")), 0.05)
    u2 = heat_semigroup(gff_sample(grid, stream.child("u2")), 0.05)
    field_bytes = grid.npoints * 16

    def run():
        contraction_check(u1, u2, traj, config)

    run()  # warm caches (weights, heat multiplier) outside the measurement
    assert _peak_traced_bytes(run) < 12 * field_bytes
