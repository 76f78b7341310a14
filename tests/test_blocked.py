"""Blocked evaluation: stacks of fields against one field at a time.

``sample_ensemble`` and ``invariance_test`` evaluate fields in blocks of
BLOCK_BYTES per stack (16 fields at M = 32).  Their results, overflow
errors included, must be bit-identical to a plain loop over the
single-field functions; the counts here are not multiples of the block.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expsqlab import (
    CutoffProfile,
    DegenerateEnsembleError,
    RngStream,
    SpectralField,
    SqeConfig,
    WeightedEnsemble,
    WickOverflowError,
    apply_PN,
    constant_field,
    evolve_projected,
    gff_sample,
    invariance_test,
    make_grid,
    make_wick_params,
    mode0_tilt_mean,
    resample_stationary,
    rn_log_weight,
    sample_ensemble,
    solve_sqe_projected,
    standard_observables,
    zero_field,
)
from expsqlab.measures import BLOCK_BYTES
from expsqlab.spectral import to_coeffs, to_values


def _setup(grid, alpha=1.0, level=2):
    psi = CutoffProfile("sharp")
    return make_wick_params(alpha, level, psi, grid), psi


def _block_rows(grid):
    return BLOCK_BYTES // (16 * grid.npoints)


def _reference_ensemble(grid, params, psi, count, stream, m):
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
        log_w.append(rn_log_weight(draw, params, psi) - m * u0 + 0.5 * m * m)
        samples.append(draw)
    return samples, np.array(log_w)


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
    params, psi = _setup(grid32)
    stream = RngStream(610, purpose="blocked")
    ens = sample_ensemble(grid32, params, psi, 101, stream, tilt=tilt)
    m = mode0_tilt_mean(params.alpha) if tilt == "auto" else 0.0
    samples, log_w = _reference_ensemble(grid32, params, psi, 101, stream, m)
    assert np.array_equal(ens.log_weights, log_w)
    assert len(ens.samples) == len(samples)
    for a, b in zip(ens.samples, samples):
        assert np.array_equal(a.coeffs, b.coeffs)


@pytest.mark.parametrize("scheme", ["exponential-euler", "semi-implicit"])
def test_evolve_projected_matches_single_solves(grid32, scheme):
    params, psi = _setup(grid32)
    config = SqeConfig(horizon=0.125, dt=1.0 / 64, params=params, psi=psi,
                       equation="projected", scheme=scheme)
    base = RngStream(612, purpose="evolve")
    phi0 = gff_sample(grid32, [base.child("init").for_replica(i) for i in range(3)])
    streams = [base.for_replica(i) for i in range(3)]
    finals, overflow = evolve_projected(phi0, config, streams)
    assert np.all(np.isnan(overflow))
    for field, s, final in zip(phi0.unstack(), streams, finals.unstack()):
        path = solve_sqe_projected(field, config, s)
        assert np.array_equal(final.coeffs, path.final().coeffs)
    # one stream per row: a short list would silently share noise
    with pytest.raises(ValueError):
        evolve_projected(phi0, config, streams[:1])


def test_invariance_matches_single_replica_loop(grid32):
    params, psi = _setup(grid32)
    stream = RngStream(613, purpose="blocked-inv")
    ens = sample_ensemble(grid32, params, psi, 101, stream.child("ens"))
    config = SqeConfig(horizon=0.125, dt=1.0 / 64, params=params, psi=psi,
                       equation="projected")
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
    params, psi = _setup(grid32)
    stream = RngStream(614, purpose="overflow")
    base = stream.child("proposal")
    shift = 0.5 * params.alpha**2 * params.c_n
    rows = _block_rows(grid32)
    peaks = [
        params.alpha * apply_PN(gff_sample(grid32, base.for_replica(i)), psi, params.level)
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
        rn_log_weight(SpectralField(grid32, coeffs), params, psi)

    index, exponent = _first_overflow(one, 40)
    assert index == k
    with pytest.raises(WickOverflowError) as info:
        sample_ensemble(grid32, params, psi, 40, stream, tilt=m)
    assert info.value.max_exponent == exponent


def test_solver_overflow_names_lowest_failing_replica(grid32):
    # an equal-weight ensemble with a few constant fields hot enough to
    # trip the guard; the first hot replica sits inside a block, followed
    # by hotter ones in the same block
    params, psi = _setup(grid32)
    hot = {48 + j: constant_field(grid32, 700.0 + params.c_n / 2 + j + 1) for j in range(16)}
    samples = tuple(hot.get(i, zero_field(grid32)) for i in range(64))
    ens = WeightedEnsemble(samples=samples, log_weights=np.full(64, -1.0), params=params,
                           psi=psi)
    config = SqeConfig(horizon=0.0625, dt=1.0 / 64, params=params, psi=psi,
                       equation="projected")
    obs = standard_observables(params, psi)
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
    params, psi = _setup(grid32)
    plain = sample_ensemble(grid32, params, psi, 60, RngStream(616, purpose="d"), tilt="none")
    with pytest.raises(DegenerateEnsembleError, match="ESS"):
        resample_stationary(plain, 10, RngStream(616))
