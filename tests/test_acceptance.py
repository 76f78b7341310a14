"""Acceptance battery: every shipping criterion at its stated tolerance.

One test per criterion, each printing a single pass/fail line (run with
``pytest tests/test_acceptance.py -v -s`` to see them).  All randomness
is pinned to one seed; statistical gates were chosen so the suite is
deterministic at this seed while the margins stay honest (3 sigma style,
not tuned-to-pass epsilons).
"""

import math
from dataclasses import replace
from itertools import chain

import numpy as np
import pytest

from expsqlab import (
    CutoffProfile,
    FieldPath,
    RngStream,
    SpectralField,
    SqeConfig,
    TorusGrid,
    analytic_wick_cov,
    besov_norm,
    contraction_check,
    decompose,
    estimate_partition,
    evolve_levels,
    evolve_shifted,
    field_from_coeffs,
    gff_mode_variance,
    gff_sample,
    heat_semigroup,
    hermite,
    invariance_test,
    make_wick_params,
    ou_noise_variance,
    ou_path,
    sample_ensemble,
    sobolev_norm,
    solve_shifted,
    solve_sqe_full,
    standard_observables,
    to_spectral,
    wick_exp_values,
    zero_field,
)
from expsqlab.measures import AREA
from expsqlab.randomfields import ou_chain
from expsqlab.spectral import heat_multiplier, sobolev_norms
from golden_values import load_golden, value_drift

SEED = 20260814

# c06-c08's measured quantities by value (tests/golden/shifted.json), and
# those behind every other verdict (tests/golden/criteria.json): each
# criterion matches them to a relative 1e-12, finer than its verdict prints
SHIFTED = load_golden("shifted")
CRITERIA = load_golden("criteria")


def _stream(tag: str) -> RngStream:
    return RngStream(SEED, purpose=f"accept-{tag}")


def _keeping(states, every: int, kept: list):
    """Pass the arrays ``states`` on, keeping a copy of every ``every``-th
    one (the first included) in ``kept``."""
    for j, state in enumerate(states):
        if j % every == 0:
            kept.append(state.copy())
        yield state


def _verdict(num: int, name: str, passed: bool, detail: str):
    line = f"criterion {num:02d} {name}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line, flush=True)
    assert passed, line


def test_criterion_01_hermite_orthogonality():
    # E[H_n(X;1) H_m(Y;1)] = delta_nm n! r^n for jointly gaussian (X, Y)
    # with correlation r; 10^5 draws, every (n, m, r) within 3 MC errors
    n_draws = 100_000
    g = _stream("c01").child("draws").generator()
    z1 = g.standard_normal(n_draws)
    z2 = g.standard_normal(n_draws)
    worst = 0.0
    count = 0
    for r in (0.0, 0.5, 1.0):
        y = r * z1 + math.sqrt(1.0 - r * r) * z2
        hx = {n: hermite(n, z1, 1.0) for n in range(5)}
        hy = {m: hermite(m, y, 1.0) for m in range(5)}
        for n in range(5):
            for m in range(5):
                prods = hx[n] * hy[m]
                target = math.factorial(n) * r**n if n == m else 0.0
                se = prods.std(ddof=1) / math.sqrt(n_draws)
                if se == 0.0:
                    z = 0.0 if abs(float(prods.mean()) - target) < 1e-12 else math.inf
                else:
                    z = (float(prods.mean()) - target) / se
                worst = max(worst, abs(z))
                count += 1
    _verdict(1, "hermite orthogonality", worst <= 3.0,
             f"worst |z| = {worst:.2f} over {count} statistics, gate 3")
    got = {"worst_abs_z": worst, "statistics": count}
    assert value_drift(got, CRITERIA["c01"], "c01") == []


def test_criterion_02_wick_mean_one():
    # pointwise mean of the renormalized exponential is 1 at both levels
    grid = TorusGrid(64)
    psi = CutoffProfile("sharp")
    params = {n: make_wick_params(1.0, n, psi, grid) for n in (1, 3)}
    base = _stream("c02")
    n_draws = 10_000
    vals = {n: np.empty(n_draws) for n in (1, 3)}
    for i in range(n_draws):
        f = gff_sample(grid, base.for_replica(i))
        for n in (1, 3):
            vals[n][i] = wick_exp_values(f, params[n])[5, 11]
    zs = {}
    for n in (1, 3):
        se = vals[n].std(ddof=1) / math.sqrt(n_draws)
        zs[n] = (vals[n].mean() - 1.0) / se
    worst = max(abs(z) for z in zs.values())
    _verdict(2, "wick mean one", worst <= 3.0,
             f"z(N=1) = {zs[1]:.2f}, z(N=3) = {zs[3]:.2f}, gate 3")
    got = {"z": [float(zs[1]), float(zs[3])]}
    assert value_drift(got, CRITERIA["c02"], "c02") == []


def test_criterion_03_wick_covariance():
    # E[wick(x) wick(y)] against the closed form exp(alpha^2 K_N(x - y))
    grid = TorusGrid(64)
    psi = CutoffProfile("sharp")
    params = make_wick_params(1.0, 2, psi, grid)
    pairs = [
        ((0, 0), (1, 0)), ((0, 0), (2, 3)), ((5, 11), (5, 12)),
        ((3, 3), (30, 30)), ((10, 0), (10, 16)), ((7, 21), (8, 21)),
        ((0, 0), (16, 16)), ((2, 2), (2, 29)), ((12, 5), (20, 9)),
        ((31, 31), (1, 1)),
    ]
    base = _stream("c03")
    n_draws = 10_000
    prods = np.empty((len(pairs), n_draws))
    for i in range(n_draws):
        w = wick_exp_values(gff_sample(grid, base.for_replica(i)), params)
        for j, (a, b) in enumerate(pairs):
            prods[j, i] = w[a] * w[b]
    worst = 0.0
    h = grid.spacing
    for j, (a, b) in enumerate(pairs):
        target = analytic_wick_cov(
            params, (a[0] * h, a[1] * h), (b[0] * h, b[1] * h), grid
        )
        se = prods[j].std(ddof=1) / math.sqrt(n_draws)
        worst = max(worst, abs((prods[j].mean() - target) / se))
    _verdict(3, "wick covariance oracle", worst <= 3.0,
             f"worst |z| = {worst:.2f} over {len(pairs)} point pairs, gate 3")
    assert value_drift({"worst_abs_z": float(worst)}, CRITERIA["c03"], "c03") == []


def test_criterion_04_cutoff_cauchy_decay():
    # mean squared H^{-beta} gap between consecutive levels must decay
    # like 2^{-lambda N} with lambda >= 0.2; the sharp-vs-smooth gap at
    # the top level must sit below the same-profile gap at the bottom
    grid = TorusGrid(256)
    sharp = CutoffProfile("sharp")
    smooth = CutoffProfile("smooth")
    beta = 0.5
    levels = [1, 2, 3, 4, 5]
    p_sharp = {n: make_wick_params(1.0, n, sharp, grid, beta=beta) for n in levels}
    p_smooth = make_wick_params(1.0, 5, smooth, grid, beta=beta)
    base = _stream("c04")
    n_rep = 100
    sq_gaps = np.empty((n_rep, len(levels) - 1))
    cross  = np.empty(n_rep)
    for r in range(n_rep):
        f = gff_sample(grid, base.for_replica(r))
        wicks = {n: wick_exp_values(f, p_sharp[n]) for n in levels}
        spectral = {n: to_spectral(wicks[n], grid) for n in levels}
        for j, n in enumerate(levels[:-1]):
            sq_gaps[r, j] = sobolev_norm(spectral[n + 1] - spectral[n], -beta) ** 2
        w_smooth = to_spectral(wick_exp_values(f, p_smooth), grid)
        cross[r] = sobolev_norm(spectral[5] - w_smooth, -beta) ** 2
    means = sq_gaps.mean(axis=0)
    lam = -float(np.polyfit(levels[:-1], np.log2(means), 1)[0])
    cross_ok = cross.mean() < means[0]
    _verdict(4, "cutoff cauchy decay", lam >= 0.2 and cross_ok,
             f"fitted lambda = {lam:.3f} >= 0.2; cross-profile {cross.mean():.3f} "
             f"< first gap {means[0]:.3f}")
    got = {"gap_means": means.tolist(), "lambda": lam, "cross_mean": float(cross.mean())}
    assert value_drift(got, CRITERIA["c04"], "c04") == []


def test_criterion_05_ou_exactness():
    # chain 10 exact transitions from the stationary start: every mode's
    # second moment must stay at (1+|k|^2)^{-1} within 3 sigma, and the
    # two-half-steps variance identity must hold to 1e-12
    grid = TorusGrid(8)
    base = _stream("c05")
    n_rep = 4000
    acc = np.zeros((8, 8))
    for r in range(n_rep):
        sub = base.for_replica(r)
        traj = ou_path(gff_sample(grid, sub.child("init")), 0.1, 10, sub.child("path"))
        acc += np.abs(traj.states[-1].coeffs) ** 2
    mean = acc / n_rep
    v = gff_mode_variance(grid)
    # self-conjugate modes (0 and Nyquist per axis) hold real gaussians:
    # their |c|^2 has variance 2 v^2 instead of v^2
    idx = np.arange(8)
    self_conj = np.isin(idx, (0, 4))
    mask = self_conj[:, None] & self_conj[None, :]
    se = np.where(mask, v * math.sqrt(2.0 / n_rep), v / math.sqrt(n_rep))
    worst = float(np.abs((mean - v) / se).max())
    dt = 0.37
    ident = float(np.abs(
        ou_noise_variance(grid, dt / 2) * (1.0 + heat_multiplier(grid, dt / 2) ** 2)
        - ou_noise_variance(grid, dt)
    ).max())
    _verdict(5, "ou transition exactness", worst <= 3.0 and ident <= 1e-12,
             f"max mode |z| = {worst:.2f} after 10 transitions, gate 3; "
             f"half-step identity defect {ident:.1e} <= 1e-12")
    got = {"worst_abs_z": worst, "identity_defect": ident}
    assert value_drift(got, CRITERIA["c05"], "c05") == []


def test_criterion_06_sign_comparison():
    # zero initial datum, positive charge: the remainder never goes
    # above zero at any grid point or step, across 100 noise draws
    grid = TorusGrid(32)
    psi = CutoffProfile("sharp")
    params = make_wick_params(1.0, 2, psi, grid)
    config = SqeConfig(horizon=0.5, dt=1.0 / 32, params=params)
    base = _stream("c06")
    worst = -math.inf
    violations = 0
    for r in range(100):
        sub = base.for_replica(r)
        traj = ou_path(gff_sample(grid, sub.child("x0")), config.dt, config.n_steps(),
                       sub.child("ou"))
        path = solve_shifted(zero_field(grid), traj, config)
        m = float(max(s.values().max() for s in path.states))
        worst = max(worst, m)
        violations += int(m > 1e-12)
    _verdict(6, "sign comparison", violations == 0,
             f"violations = {violations}/100 replicas, worst max value {worst:.1e}")
    got = {"violations": violations, "worst_max_value": worst}
    assert value_drift(got, SHIFTED["c06"], "c06") == []


def test_criterion_07_energy_contraction():
    # exp(t/2) ||Y1 - Y2||_{L2} may not grow faster than 1% per unit time
    grid = TorusGrid(32)
    psi = CutoffProfile("sharp")
    params = make_wick_params(1.0, 2, psi, grid)
    config = SqeConfig(horizon=1.0, dt=1.0 / 64, params=params)
    base = _stream("c07")
    rates = []
    all_passed = True
    for r in range(20):
        sub = base.for_replica(r)
        traj = ou_path(gff_sample(grid, sub.child("x0")), config.dt, config.n_steps(),
                       sub.child("ou"))
        u1 = heat_semigroup(gff_sample(grid, sub.child("u1")), 0.05)
        u2 = heat_semigroup(gff_sample(grid, sub.child("u2")), 0.05)
        rep = contraction_check(u1, u2, traj, config)
        rates.append(rep.max_rate_per_unit_time)
        all_passed = all_passed and rep.passed
    _verdict(7, "energy contraction", all_passed,
             f"max growth rate {max(rates):.3f} per unit time over 20 replicas, "
             f"gate log(1.01) = {math.log1p(0.01):.4f}")
    assert value_drift({"rates": rates}, SHIFTED["c07"], "c07") == []


@pytest.mark.slow
def test_criterion_08_splitting_order():
    # on a shared grid the rough/smooth splitting is exact by algebra, so
    # the residual is measured against a much finer solve driven by the
    # same noise: it must shrink at first order in dt (fit >= 0.9)
    grid = TorusGrid(64)
    psi = CutoffProfile("sharp")
    params = make_wick_params(1.0, 2, psi, grid)
    eps = 0.125
    p_ref = 10
    ps = (3, 4, 5)
    base = _stream("c08")
    psi_mult = psi.multiplier(grid, 2)
    residuals = np.empty((4, len(ps)))
    split_defect = 0.0
    for r in range(4):
        sub = base.for_replica(r)
        phi0 = heat_semigroup(gff_sample(grid, sub.child("init")), 0.1)
        fine_cfg = SqeConfig(horizon=1.0, dt=2.0**-p_ref, params=params)
        # the coarse solves read only every 2^(p_ref - max(ps))-th fine
        # state: the fine shifted flow streams the fine OU chain (ou_path's
        # states, bit for bit) and only those states of each are kept
        thin = 2 ** (p_ref - ps[-1])
        x_fine = []
        x_chain = ou_chain(grid, phi0.coeffs[None], fine_cfg.dt, fine_cfg.n_steps(),
                           [sub.child("ou").generator()])
        x_states = _keeping(chain([phi0.coeffs], (x[0] for x, _ in x_chain)), thin, x_fine)
        flow = evolve_shifted(zero_field(grid), x_states, fine_cfg)
        y_fine = [y.copy() for j, y in enumerate(flow) if j % thin == 0]
        fine = FieldPath(fine_cfg.dt * thin, [SpectralField(grid, x) for x in x_fine])
        for c, p in enumerate(ps):
            stride = 2 ** (ps[-1] - p)
            x_traj = FieldPath(fine.dt * stride, fine.states[::stride])
            cfg = SqeConfig(horizon=1.0, dt=2.0**-p, params=params)
            direct = solve_sqe_full(phi0, cfg, sub, x_traj=x_traj)
            if r == 0 and p == 5:
                # record the same-grid exactness while we are here
                _, y_part, shifted = decompose(direct, x_traj, cfg)
                split_defect = max(
                    sobolev_norm(a - b, -eps)
                    for a, b in zip(y_part.states, shifted.states)
                )
            sup = 0.0
            for j, state in enumerate(direct.states):
                k = j * stride
                recon = psi_mult * fine.states[k].coeffs + y_fine[k]
                sup = max(sup, sobolev_norm(
                    field_from_coeffs(grid, state.coeffs - recon), -eps
                ))
            residuals[r, c] = sup
        del fine, x_fine, y_fine
    means = residuals.mean(axis=0)
    order = -float(np.polyfit(ps, np.log2(means), 1)[0])
    # the same-grid split is exact up to rounding
    _verdict(8, "splitting refinement order", order >= 0.9 and split_defect <= 1e-12,
             f"residual order {order:.3f} >= 0.9 against the dt = 2^-{p_ref} "
             f"reconstruction; same-grid split defect {split_defect:.1e}")
    got = {"residual_means": means.tolist(), "order": order}
    assert value_drift(got, SHIFTED["c08"], "c08") == []


@pytest.mark.slow
def test_criterion_09_level_gap_decreasing():
    # common-noise sup-in-time H^{-eps} gaps between consecutive cutoff
    # levels must decrease strictly in N in the 50-replica mean
    grid = TorusGrid(256)
    psi = CutoffProfile("sharp")
    eps = 0.25
    levels = [1, 2, 3, 4, 5]
    params = {n: make_wick_params(1.0, n, psi, grid) for n in levels}
    cfgs = {
        n: SqeConfig(horizon=1.0, dt=2.0**-6, params=params[n])
        for n in levels
    }
    base = _stream("c09")
    n_rep = 50
    sup_gaps = np.zeros((n_rep, len(levels) - 1))
    for r in range(n_rep):
        # the five levels step in lockstep under the OU increments of
        # sub.child("ou"), drawn step by step: only the current stack of
        # states is held, never an OU path or a level's path
        sub = base.for_replica(r)
        phi0 = gff_sample(grid, sub.child("init"))
        for stack in evolve_levels(phi0, [cfgs[n] for n in levels], sub):
            # the norms of stack[1:] - stack[:-1], without forming it
            gaps = sobolev_norms(stack[1:], grid, (-eps,), minus=stack[:-1])[0]
            np.maximum(sup_gaps[r], gaps, out=sup_gaps[r])
    means = sup_gaps.mean(axis=0)
    decreasing = bool(np.all(np.diff(means) < 0.0))
    _verdict(9, "level gaps decreasing", decreasing,
             "mean sup gaps " + " > ".join(f"{m:.3f}" for m in means))
    assert value_drift({"sup_gap_means": means.tolist()}, CRITERIA["c09"], "c09") == []


@pytest.mark.slow
def test_criterion_10_invariance_and_control():
    # observables must be stationary under the correctly renormalized
    # dynamics (|z| <= 3 across the battery at 10^3 replicas) and the
    # mis-renormalized control (c_n -> 0) must fail the same gate
    grid = TorusGrid(32)
    psi = CutoffProfile("sharp")
    params = make_wick_params(1.0, 2, psi, grid)
    base = _stream("c10")
    ens = sample_ensemble(grid, params, 20_000, base.child("ens"))
    obs = standard_observables(params)
    good_cfg = SqeConfig(horizon=1.0, dt=1.0 / 64, params=params)
    good = invariance_test(ens, good_cfg, obs, base.child("dyn"), replicas=1000)
    bad_cfg = replace(good_cfg, params=replace(params, c_n=0.0))
    control = invariance_test(ens, bad_cfg, obs, base.child("control"), replicas=1000)
    passed = good.passed and control.max_abs_z > 3.0
    _verdict(10, "invariance with negative control", passed,
             f"max |z| = {good.max_abs_z:.2f} <= 3 (ESS {ens.ess():.0f}/{len(ens)}); "
             f"mis-renormalized control max |z| = {control.max_abs_z:.2f} > 3")
    got = {"max_abs_z": float(good.max_abs_z), "control_max_abs_z": float(control.max_abs_z),
           "ess": float(ens.ess())}
    assert value_drift(got, CRITERIA["c10"], "c10") == []


def test_criterion_11_partition_bounds():
    # untilted weights never exceed 1; the MC mean respects the convexity
    # lower bound; at alpha = 0 the partition function is exact
    grid = TorusGrid(32)
    psi = CutoffProfile("sharp")
    params = make_wick_params(1.0, 2, psi, grid)
    base = _stream("c11")
    ens = sample_ensemble(grid, params, 3000, base.child("untilted"), tilt="none")
    max_lw = float(ens.log_weights.max())
    est = estimate_partition(ens)
    lower = math.exp(-AREA) * (1.0 - 3.0 * est.std_error / est.value)
    bound_ok = max_lw <= 1e-9 and est.value >= lower
    params0 = make_wick_params(0.0, 2, psi, grid)
    ens0 = sample_ensemble(grid, params0, 200, base.child("zero"))
    rel = float(np.abs(ens0.log_weights + AREA).max()) / AREA
    est0 = estimate_partition(ens0)
    exact_ok = rel <= 1e-12 and abs(est0.log_value + AREA) / AREA <= 1e-12
    _verdict(11, "partition function bounds", bound_ok and exact_ok,
             f"max log weight {max_lw:.2e} <= 0; mean {est.value:.3e} >= "
             f"e^(-4 pi^2) (1 - 3 sigma) = {lower:.3e} where e^(-4 pi^2) = "
             f"{math.exp(-AREA):.3e}; alpha = 0 relative defect {rel:.1e}")
    got = {"max_log_weight": max_lw, "mean": float(est.value), "lower": lower,
           "alpha0_defect": rel, "alpha0_log_value": float(est0.log_value)}
    assert value_drift(got, CRITERIA["c11"], "c11") == []


def test_criterion_12_norms_and_semigroup():
    # dyadic-vs-Sobolev equivalence over a single-mode sweep, heat
    # smoothing and difference ratios over a time sweep, semigroup law
    grid = TorusGrid(128)
    s, delta = -0.5, 0.5
    ratios = []
    sweep = [(m, 0) for m in (1, 2, 3, 4, 6, 8, 11, 16, 23, 32, 45)] + [
        (m, m) for m in (1, 2, 3, 5, 8, 12, 17, 24, 34, 45)
    ]
    for kx, ky in sweep:
        coeffs = np.zeros((128, 128), dtype=np.complex128)
        coeffs[kx, ky] = 1.0
        coeffs[-kx, -ky] = 1.0
        f = field_from_coeffs(grid, coeffs)
        ratios.append(besov_norm(f, s) / sobolev_norm(f, s))
    ratios = np.array(ratios)
    ratio_ok = bool(0.2 <= ratios.min() <= ratios.max() <= 5.0)

    u = gff_sample(grid, _stream("c12"))
    base_norm = sobolev_norm(u, s)
    smooth_sup = 0.0
    diff_sup = 0.0
    for t in np.logspace(-3.0, 1.0, 17):
        ut = heat_semigroup(u, t)
        smooth_sup = max(smooth_sup, t**delta * sobolev_norm(ut, s + 2 * delta) / base_norm)
        diff_sup = max(diff_sup, sobolev_norm(ut - u, s - 2 * delta) / (t**delta * base_norm))
    sweeps_ok = smooth_sup <= 1.0 and diff_sup <= 1.0

    a, b = 0.7, 0.4
    law = float(np.abs(
        heat_semigroup(heat_semigroup(u, a), b).coeffs - heat_semigroup(u, a + b).coeffs
    ).max())
    _verdict(12, "norm equivalence and smoothing", ratio_ok and sweeps_ok and law <= 1e-12,
             f"mode-sweep ratio in [{ratios.min():.2f}, {ratios.max():.2f}] within "
             f"[0.2, 5]; smoothing sup {smooth_sup:.3f} <= 1; difference sup "
             f"{diff_sup:.3f} <= 1; semigroup law defect {law:.1e}")
    got = {"ratios": [float(ratios.min()), float(ratios.max())], "smooth_sup": float(smooth_sup),
           "diff_sup": float(diff_sup), "semigroup_defect": law}
    assert value_drift(got, CRITERIA["c12"], "c12") == []
