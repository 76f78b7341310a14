"""Blocked evaluation: stacks of fields against one field at a time.

``sample_ensemble``, ``invariance_test`` and ``cmd_sample_gff`` evaluate
fields in blocks of BLOCK_BYTES per stack (16 fields at M = 32), and
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
    WeightedEnsemble,
    WickOverflowError,
    apply_PN,
    cmd_sample_gff,
    cmd_sqe,
    constant_field,
    evolve_levels,
    evolve_projected,
    gff_sample,
    invariance_test,
    make_grid,
    make_wick_params,
    mode0_tilt_mean,
    ou_path,
    resample_stationary,
    rn_log_weight,
    sample_ensemble,
    save_fields,
    sobolev_norm,
    solve_shifted,
    solve_sqe_full,
    solve_sqe_projected,
    standard_observables,
    to_spectral,
    zero_field,
)
from expsqlab import dynamics, randomfields
from expsqlab.measures import UNDERFLOW_LOG
from expsqlab.spectral import BLOCK_BYTES, sobolev_norms, to_coeffs, to_values


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
    for s, row in zip(streams, stack.unstack()):
        assert np.array_equal(row.coeffs, gff_sample(grid32, s).coeffs)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([8, 16, 32]),
    st.integers(0, 2**64 - 1),
    st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6),
)
def test_gff_sample_stack_rows_for_any_replica_layout(M, seed, replicas):
    # repeated and unordered replica indices included: a row's draw
    # depends on its own stream only, never on its place in the stack
    grid = make_grid(M)
    streams = [RngStream(seed, replica=r, purpose="layout") for r in replicas]
    stack = gff_sample(grid, streams)
    for s, row in zip(streams, stack.unstack()):
        assert np.array_equal(row.coeffs, gff_sample(grid, s).coeffs)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([8, 16, 32]), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_transform_stack_rows_match_single_fields(M, n, seed):
    grid = make_grid(M)
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
    for a, b in zip(stack.unstack(), samples):
        assert np.array_equal(a.coeffs, b.coeffs)


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
    draws = resample_stationary(ens, 70, stream.child("pick"))
    ancestors = draws.ancestors.tolist()
    assert len(set(ancestors)) < len(ancestors)
    assert ancestors != sorted(ancestors)
    assert len(draws.fields) == 70
    for a, field in zip(ancestors, draws.fields):
        assert field.coeffs.tobytes() == samples[a].coeffs.tobytes()


def test_evolve_projected_matches_single_solves(grid32):
    params = _setup(grid32)
    config = SqeConfig(horizon=0.125, dt=1.0 / 64, params=params)
    base = RngStream(612, purpose="evolve")
    phi0 = gff_sample(grid32, [base.child("init").for_replica(i) for i in range(3)])
    streams = [base.for_replica(i) for i in range(3)]
    stacks = [s.copy() for s in evolve_projected(phi0, config, streams)]
    assert len(stacks) == config.n_steps() + 1
    for i, (field, s) in enumerate(zip(phi0.unstack(), streams)):
        path = solve_sqe_projected(field, config, s)
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
    fields = phi0.unstack()
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


def test_invariance_matches_single_replica_loop(grid32):
    params = _setup(grid32)
    stream = RngStream(613, purpose="blocked-inv")
    ens = sample_ensemble(grid32, params, 101, stream.child("ens"))
    config = SqeConfig(horizon=0.125, dt=1.0 / 64, params=params)
    seen = []

    def record(f):
        seen.append(f.coeffs.copy())
        return float(np.real(f.coeffs[0, 0]))

    evolve = stream.child("evolve")
    report = invariance_test(ens, config, {"mode0": record}, evolve, replicas=37)
    assert report.replicas == 37
    draws = resample_stationary(ens, 37, evolve)
    starts, ends = seen[0::2], seen[1::2]
    assert len(ends) == 37
    for i, field in enumerate(draws.fields):
        path = solve_sqe_projected(field, config, evolve.for_replica(i).child("dyn"))
        assert np.array_equal(starts[i], field.coeffs)
        assert np.array_equal(ends[i], path.final().coeffs)


def test_ensemble_overflow_names_lowest_failing_proposal(grid32):
    # pick a tilt whose guard threshold falls between the exponents of the
    # proposals of the first block, so that the lowest failing proposal k
    # is neither the block's first row nor its largest exponent
    params = _setup(grid32)
    stream = RngStream(614, purpose="overflow")
    base = stream.child("proposal")
    shift = 0.5 * params.alpha**2 * params.c_n
    rows = _block_rows(grid32)
    peaks = [
        params.alpha * apply_PN(gff_sample(grid32, base.for_replica(i)), params.psi, params.level)
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
    draws = resample_stationary(ens, 40, stream)

    def one(i):
        solve_sqe_projected(draws.fields[i], config, stream.for_replica(i).child("dyn"))

    index, exponent = _first_overflow(one, 40)
    rows = _block_rows(grid32)
    assert index % rows != 0
    block_end = (index // rows + 1) * rows
    assert any(int(a) > int(draws.ancestors[index]) for a in draws.ancestors[index + 1 : block_end])
    with pytest.raises(WickOverflowError) as info:
        invariance_test(ens, config, obs, stream, replicas=40)
    assert info.value.max_exponent == exponent


def test_degenerate_ensemble_has_its_own_error(grid32):
    params = _setup(grid32)
    plain = sample_ensemble(grid32, params, 60, RngStream(616, purpose="d"), tilt="none")
    with pytest.raises(DegenerateEnsembleError, match="ESS"):
        resample_stationary(plain, 10, RngStream(616))


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
    grid = make_grid(64)
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
    grid = make_grid(64)
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
    # the ensemble keeps 8 bytes of log-weight a proposal and rebuilds
    # the resampled ancestors block by block: eight times the proposals
    # may add one block and the log-weights to the peak, never the
    # proposals themselves (16 KiB each at M = 32)
    params = _setup(grid32)
    stream = RngStream(623, purpose="ensemble-memory")

    def run(samples):
        def go():
            ens = sample_ensemble(grid32, params, samples, stream)
            resample_stationary(ens, 40, stream)
        return go

    run(150)()  # warm caches (weights, FFT plans) outside the measurement
    small = _peak_traced_bytes(run(150))
    large = _peak_traced_bytes(run(1200))
    assert large - small <= BLOCK_BYTES + 8 * (1200 - 150)


def test_level_flow_holds_one_state_stack():
    # evolve_levels at M = 64 with three levels, reduced to its norms at
    # every step as cmd_sqe does; a complex field is a third of a stack
    # here and a real one a sixth.  The flow holds its one state buffer
    # (1 stack), the spectral and grid workspaces of the one level it
    # steps (half a stack), which also take each level's cutoff multiplier
    # once its drift is formed and the OU chain's noise draw, and the
    # noise of one field: the chain's state, its noise scale and the
    # increment buffer (5/6 of a stack).  The heat multiplier is the
    # grid's one cached array, warmed outside the measurement.  That is
    # 2.3 stacks live at a yield, and the norms' two rows or numpy's
    # real -> complex cast buffers add a third: 2.7 at the peak.  A
    # stack of multipliers, noise workspaces of the chain's own or a heat
    # multiplier per user each add half a stack, and stack-sized step
    # workspaces or a second live state a whole stack.
    grid = make_grid(64)
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
    # datum, builds the grid's cached arrays (free-field scale, heat
    # multiplier, two Sobolev weights: 2/3 of a stack) and takes the
    # level gaps: 3.7 stacks at the peak.  Each of these adds at least a
    # sixth of a stack: the OU chain computing its noise scale before it
    # drops the datum, an uncached heat multiplier, noise workspaces of
    # the chain's own and a complex gap difference.
    cfg = ExperimentConfig(modes=64, level=3, seed=627, replicas=2, horizon=4 / 64, dt=1 / 64)
    stack_bytes = 3 * 64 * 64 * 16
    assert cmd_sqe(cfg).exit_code == 0  # warm imports and FFT plans
    assert _peak_traced_bytes(lambda: cmd_sqe(cfg)) < 3.85 * stack_bytes


def test_shifted_solve_holds_its_states_and_a_few_fields():
    # solve_shifted at M = 32 over a 65-state OU trajectory keeps its 65
    # states, 16 KiB each.  Beside them it holds the zero datum, one
    # spectral and two grid workspaces, the cutoff multiplier and the
    # initial-regularity check's temporaries: 70.6 fields at the peak.
    # Each step forms its Wick forcing from its state of X in the grid
    # workspace, so a stored path of forcing states (65 more fields)
    # cannot fit under the bound.
    grid = make_grid(32)
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
