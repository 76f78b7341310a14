"""Importance sampling of the approximating measures.

The alpha = 0 corner is fully solvable (every log weight is exactly
-(2 pi)^2) and anchors the weight conventions; everything else is tested
through exactness of the reweighting identities.
"""

import math

import numpy as np
import pytest

from expsqlab import (
    CutoffProfile,
    DegenerateEnsembleError,
    RngStream,
    SqeConfig,
    WeightedEnsemble,
    estimate_partition,
    gff_sample,
    invariance_test,
    make_wick_params,
    mode0_tilt_mean,
    rn_log_weight,
    sample_ensemble,
    standard_observables,
    zero_field,
)
from expsqlab.measures import AREA, _cluster_se, _resample_ancestors
from fields import constant_field


def _setup(grid, alpha=1.0, level=2):
    return make_wick_params(alpha, level, CutoffProfile("sharp"), grid)


def test_rn_weight_range(grid32, stream):
    params = _setup(grid32)
    for i in range(20):
        f = gff_sample(grid32, stream.for_replica(i))
        lw = rn_log_weight(f, params)
        assert lw < 0.0
        assert 0.0 < math.exp(lw) <= 1.0


def test_alpha_zero_exact_weights(grid32, stream):
    # alpha = 0: the Wick exponential is exp(0) = 1, the integral is the
    # torus area, every weight is exp(-4 pi^2) with no randomness at all
    params = _setup(grid32, alpha=0.0)
    ens = sample_ensemble(grid32, params, 40, stream)
    assert ens.tilt_mean == 0.0
    assert np.allclose(ens.log_weights, -AREA, rtol=1e-12)
    assert ens.ess() == pytest.approx(40.0, rel=1e-12)
    est = estimate_partition(ens)
    assert est.log_value == pytest.approx(-AREA, rel=1e-12)
    assert est.std_error <= 1e-15 * est.value + 1e-300


def test_constant_field_log_weight(grid32):
    # for a constant field c the projected field is c, so the weight is
    # exp(-4 pi^2 exp(alpha c - alpha^2 C_N / 2)) exactly
    params = _setup(grid32, alpha=1.0)
    c = -0.7
    lw = rn_log_weight(constant_field(grid32, c), params)
    assert lw == pytest.approx(-AREA * math.exp(c - 0.5 * params.c_n), rel=1e-12)


def test_mode0_tilt_mean():
    assert mode0_tilt_mean(0.0) == 0.0
    # fixed point residual at the returned value
    for alpha in (0.5, 1.0, 2.0):
        u = mode0_tilt_mean(alpha)
        a_const = AREA * math.exp(-(alpha**2) / (2.0 * AREA))
        resid = u + (alpha / (2.0 * math.pi)) * a_const * math.exp(alpha * u / (2.0 * math.pi))
        assert abs(resid) < 1e-12
        assert u < 0.0
    # frozen alpha = 1 value, independent recomputation
    assert mode0_tilt_mean(1.0) == pytest.approx(-3.5347418741, abs=1e-9)


def test_tilt_lifts_ess(grid32):
    params = _setup(grid32, alpha=1.0)
    base = RngStream(606, purpose="ess")
    plain = sample_ensemble(grid32, params, 300, base, tilt="none")
    tilted = sample_ensemble(grid32, params, 300, base, tilt="auto")
    assert plain.ess() < 30.0
    assert tilted.ess() > 150.0
    assert tilted.tilt_mean == pytest.approx(mode0_tilt_mean(1.0))


def test_tilt_choices_agree_on_partition(grid32):
    # different proposals, same target: estimates must agree within noise
    params = _setup(grid32, alpha=1.0)
    base = RngStream(607, purpose="agree")
    a = estimate_partition(
        sample_ensemble(grid32, params, 1200, base.child("a"), tilt="auto")
    )
    m = mode0_tilt_mean(1.0)
    b = estimate_partition(
        sample_ensemble(grid32, params, 1200, base.child("b"), tilt=m - 0.5)
    )
    gap = abs(a.value - b.value)
    assert gap < 4.0 * math.hypot(a.std_error, b.std_error)


def test_sample_ensemble_validation(grid32, stream):
    params = _setup(grid32)
    with pytest.raises(ValueError):
        sample_ensemble(grid32, params, 0, stream)
    with pytest.raises(ValueError):
        sample_ensemble(grid32, params, 5, stream, tilt="bogus")
    # a non-finite tilt is refused on the call, not by an overflow or a
    # degenerate weight after the draws
    for tilt in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="tilt must be 'auto', 'none' or a finite float"):
            sample_ensemble(grid32, params, 5, stream, tilt=tilt)


def test_weighted_ensemble_invariants(grid32, stream):
    params = _setup(grid32)
    ens = sample_ensemble(grid32, params, 50, stream)
    assert len(ens) == 50
    assert ens.weights.max() == 1.0
    assert 1.0 <= ens.ess() <= 50.0
    assert ens.take([49, 0, 49]).coeffs.shape == (3, 32, 32)
    # take rebuilds members only: any other index would draw a new proposal
    for bad in ([50], [-1]):
        with pytest.raises(IndexError):
            ens.take(bad)
    with pytest.raises(ValueError):
        ens.take([])
    # untilted ensembles must carry genuine sub-1 weights
    with pytest.raises(ValueError):
        WeightedEnsemble(
            grid=grid32,
            proposals=lambda idx: zero_field(grid32),
            log_weights=np.array([0.5]),
            tilt_mean=0.0,
        )
    with pytest.raises(ValueError):
        WeightedEnsemble(
            grid=grid32,
            proposals=lambda idx: zero_field(grid32),
            log_weights=np.array([np.inf]),
        )
    with pytest.raises(ValueError):
        WeightedEnsemble(
            grid=grid32,
            proposals=lambda idx: zero_field(grid32),
            log_weights=np.array([]),
        )


def test_resample_refuses_degenerate(grid32):
    params = _setup(grid32, alpha=1.0)
    base = RngStream(608, purpose="degen")
    config = SqeConfig(horizon=1.0 / 64, dt=1.0 / 64, params=params)
    obs = standard_observables(params)
    plain = sample_ensemble(grid32, params, 200, base, tilt="none")
    with pytest.raises(DegenerateEnsembleError, match="ESS"):
        invariance_test(plain, config, obs, base, replicas=100)
    tilted = sample_ensemble(grid32, params, 200, base, tilt="auto")
    ancestors = _resample_ancestors(tilted, 100, base)
    assert ancestors.shape == (100,)
    # resampling is deterministic in the stream, and its ancestors are
    # the clusters of the invariance test run on that stream
    assert np.array_equal(ancestors, _resample_ancestors(tilted, 100, base))
    report = invariance_test(tilted, config, obs, base, replicas=100)
    assert report.clusters == len(np.unique(ancestors)) < 100
    with pytest.raises(ValueError, match="count must be positive"):
        invariance_test(tilted, config, obs, base, replicas=0)


def test_out_of_range_tilts_are_degenerate(grid8):
    # a tilt of 1e100 puts every log-weight below -1e199, so the partition
    # estimate underflows to 0; at 1.4e154 the tilt's m * u0 overflows and
    # the log-weights are -inf
    params = _setup(grid8, alpha=-1.0, level=0)
    base = RngStream(630, purpose="far-tilt")
    far = sample_ensemble(grid8, params, 20, base, tilt=1e100)
    assert far.log_weights.max() < -1e199
    with pytest.raises(DegenerateEnsembleError, match="underflows"):
        estimate_partition(far)
    with pytest.raises(DegenerateEnsembleError, match="proposal 0 has log-weight -inf"):
        sample_ensemble(grid8, params, 20, base, tilt=1.4e154)


def test_cluster_se_oracle():
    # two clusters of two, diffs (a, a, b, b): the clustered variance is
    # sum over clusters of (within-cluster sums of centered diffs)^2
    a, b = 1.0, 3.0
    diffs = np.array([a, a, b, b])
    ancestors = np.array([0, 0, 1, 1])
    # centered: +-(a-b)/2 doubled per cluster -> var = 2 (a-b)^2, n = 4
    expected = math.sqrt(2.0 * (a - b) ** 2) / 4.0
    assert _cluster_se(diffs, ancestors) == pytest.approx(expected, rel=1e-12)
    # all singletons reduces to the plain (biased-normalization) iid form
    rng = np.random.default_rng(5)
    d = rng.normal(size=8)
    iid = math.sqrt(float(((d - d.mean()) ** 2).sum())) / 8.0
    assert _cluster_se(d, np.arange(8)) == pytest.approx(iid, rel=1e-12)


def test_standard_observables(grid32, stream):
    # one call takes a whole stack: one value per observable and row
    params = _setup(grid32)
    observe = standard_observables(params)
    vals = observe(gff_sample(grid32, [stream.for_replica(i) for i in range(3)]))
    assert list(vals) == ["hneg_norm", "hneg_norm_sq", "mode0", "mode0_sq", "wick_mean"]
    assert all(len(v) == 3 for v in vals.values())
    assert vals["hneg_norm_sq"] == pytest.approx([x * x for x in vals["hneg_norm"]])
    assert vals["mode0_sq"] == pytest.approx([x * x for x in vals["mode0"]])
    assert min(vals["wick_mean"]) > 0.0


def test_invariance_quick(grid8):
    # small but real end-to-end run; the acceptance suite does the heavy one
    params = _setup(grid8, alpha=1.0, level=0)
    base = RngStream(609, purpose="inv-quick")
    ens = sample_ensemble(grid8, params, 1500, base.child("ens"))
    config = SqeConfig(horizon=0.5, dt=1.0 / 32, params=params)
    obs = standard_observables(params)
    report = invariance_test(ens, config, obs, base.child("test"), replicas=120)
    assert report.replicas == 120
    assert 0 < report.clusters <= 120
    assert list(report.stats) == ["hneg_norm", "hneg_norm_sq", "mode0", "mode0_sq", "wick_mean"]
    assert report.max_abs_z == pytest.approx(
        max(abs(s.z) for s in report.stats.values())
    )
    assert report.max_abs_z < 5.0  # generous: 120 replicas only
    assert report.passed == (report.max_abs_z <= 3.0)
