"""Renormalization constants and Wick exponentials against hand oracles."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from expsqlab import (
    ALPHA_MAX,
    CutoffProfile,
    RngStream,
    SpectralField,
    TorusGrid,
    WickOverflowError,
    WickParams,
    analytic_wick_cov,
    gff_sample,
    green_kernel_point,
    hermite,
    make_wick_params,
    ou_path,
    renorm_constant,
    wick_exp_values,
)
from expsqlab.spectral import to_values
from expsqlab.wick import scaled_exp, wick_exp
from fields import constant_field

# sharp-cutoff constants, frozen from the lattice sums they define:
# level 0 keeps |k| <= 1, so 4 pi^2 C_0 = 1 + 4 * (1/2) = 3 exactly
C0_SHARP = 3.0 / (4.0 * math.pi**2)
C2_SHARP = 0.22404916570119032


def test_hermite_hand_values():
    x, sig = 1.3, 0.7
    assert hermite(0, x, sig) == 1.0
    assert hermite(1, x, sig) == pytest.approx(x, rel=1e-15)
    assert hermite(2, x, sig) == pytest.approx(x**2 - sig, rel=1e-14)
    assert hermite(3, x, sig) == pytest.approx(x**3 - 3 * sig * x, rel=1e-13)
    assert hermite(4, x, sig) == pytest.approx(
        x**4 - 6 * sig * x**2 + 3 * sig**2, rel=1e-12
    )


def test_hermite_generating_function():
    # sum_n t^n / n! H_n(x; sigma) = exp(t x - t^2 sigma / 2)
    t, sig = 0.6, 1.3
    x = np.linspace(-2.0, 2.0, 9)
    acc = np.zeros_like(x)
    term = 1.0
    for n in range(0, 40):
        acc += term * hermite(n, x, sig)
        term *= t / (n + 1)
    assert np.allclose(acc, np.exp(t * x - 0.5 * t * t * sig), rtol=1e-12)


def test_hermite_shapes_and_validation():
    out = hermite(3, np.ones((2, 5)), 0.5)
    assert out.shape == (2, 5)
    assert isinstance(hermite(2, 1.0, 0.5), float)
    with pytest.raises(ValueError):
        hermite(-1, 1.0, 1.0)
    with pytest.raises(ValueError):
        hermite(65, 1.0, 1.0)
    with pytest.raises(ValueError):
        hermite(2, 1.0, -0.1)


@settings(max_examples=60, deadline=None)
@given(
    arrays(np.float64, st.integers(1, 32), elements=st.floats(-30.0, 30.0)),
    st.integers(0, 12),
    st.floats(0.0, 4.0),
)
def test_hermite_matches_recurrence(x, n, sigma):
    got = hermite(n, x, sigma)
    h_prev, h = np.ones_like(x), x.copy()
    if n == 0:
        expected = h_prev
    else:
        for j in range(1, n):
            h, h_prev = x * h - (j * sigma) * h_prev, h
        expected = h
    assert np.allclose(got, expected, rtol=1e-12, atol=1e-300)


finite64 = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False, width=64
)


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        arrays(np.float64, (8, 8), elements=finite64),
        arrays(np.float64, st.tuples(st.integers(1, 3), st.just(8), st.just(8)),
               elements=finite64),
    ),
    st.floats(-3.0, 3.0),
    st.floats(-5.0, 5.0),
)
def test_scaled_exp_contract(values, alpha, shift):
    # one field (M, M) or a stack (n, M, M): one peak per field, the
    # exponential written over a copy of the values
    own = values.copy()
    out, peaks = scaled_exp(own, alpha, shift)
    assert out is own
    expo = alpha * values - shift
    assert np.array_equal(peaks, expo.reshape(-1, 64).max(axis=1))
    # capped at 705 to avoid inf; below the cap it is the exact exp
    mask = expo <= 705.0
    assert np.array_equal(out[mask], np.exp(expo[mask]))
    assert np.all(np.isfinite(out))


@pytest.mark.parametrize(
    "shape, shift", [((8, 8), 0.3), ((3, 8, 8), np.array([0.1, -2.0, 5.0])[:, None, None])]
)
def test_scaled_exp_into_workspace_is_byte_identical(shape, shift):
    # the values are the workspace: the exponential is written over a copy
    # of them, byte for byte numpy's allocating expressions; wide values,
    # so some exponents pass the cap
    values = np.random.default_rng(4).standard_normal(shape) * 200.0
    own = values.copy()
    got, peaks = scaled_exp(own, 1.5, shift)
    assert got is own
    assert got.tobytes() == np.exp(np.minimum(1.5 * values - shift, 705.0)).tobytes()
    assert peaks.tobytes() == (1.5 * values - shift).reshape(-1, 64).max(axis=1).tobytes()


def test_scaled_exp_empty_stack():
    out, peaks = scaled_exp(np.empty((0, 8, 8)), 1.0, 0.0)
    assert out.shape == (0, 8, 8)
    assert peaks.size == 0


def test_cutoff_profile_validation():
    with pytest.raises(ValueError):
        CutoffProfile("box")


def test_cutoff_metadata_holds(sharp, smooth):
    # both profiles are admissible for (theta, m) = (0.99, 4):
    # |psi(r) - 1| <= r^theta near 0 and sup r^m psi(r) finite, sampled
    r = np.linspace(1e-4, 1.0, 200)
    for psi in (sharp, smooth):
        assert np.all(np.abs(psi._radial(r) - 1.0) <= r**0.99 + 1e-12)
    r = np.linspace(0.0, 50.0, 500)
    assert (r**4 * smooth._radial(r)).max() < 1.0
    assert (r**4 * sharp._radial(r)).max() <= 1.0


def test_sharp_multiplier_is_indicator(grid8, sharp):
    m = sharp.multiplier(grid8, 0)
    assert np.array_equal(m, (grid8.ksq <= 1.0).astype(float))
    assert sharp.max_level(grid8) == 0
    with pytest.raises(ValueError):
        sharp.multiplier(grid8, 1)
    with pytest.raises(ValueError):
        sharp.multiplier(grid8, -1)


@pytest.mark.parametrize("M", [8, 16, 32, 64, 128, 256])
def test_multiplier_into_a_workspace_is_the_spelled_out_profile(M, sharp, smooth):
    # psi(2^-N k) at every admissible level is the grid's one cached,
    # read-only array, which the flows read in place of a workspace: the
    # same on every call and byte for byte r = sqrt(|k|^2) / 2^N through
    # the smooth exp(-r * r) or the sharp indicator r <= 1 as a mask
    grid = TorusGrid(M)
    for psi in (sharp, smooth):
        for level in range(psi.max_level(grid) + 1):
            r = np.sqrt(grid.ksq) / 2.0**level
            spelled = (r <= 1.0) if psi is sharp else np.exp(-r * r)
            m = psi.multiplier(grid, level)
            assert psi.multiplier(grid, level) is m
            assert not m.flags.writeable
            assert m.dtype == spelled.dtype and m.tobytes() == spelled.tobytes()
        # the accepted levels are exactly 0..max_level
        with pytest.raises(ValueError, match="too high"):
            psi.multiplier(grid, psi.max_level(grid) + 1)


def test_mask_products_are_the_float_indicator_products(grid32, sharp):
    # numpy casts the mask to exactly 1+0j or 0+0j, as it casts the float
    # indicator 1.0 and 0.0, so both run the same complex multiply: P_N of
    # a complex stack has the same bits, signed zeros and NaNs included,
    # allocated or written into ``out`` as the flows do
    mask = sharp.multiplier(grid32, 2)
    indicator = mask.astype(np.float64)
    stream = RngStream(79, purpose="mask-product")
    c = gff_sample(grid32, [stream.for_replica(i) for i in range(3)]).copy_coeffs()
    c[0, 0, 1] = complex(np.inf, -0.0)
    c[1, 5, 7] = complex(-0.0, np.nan)
    c[2, 16, 16] = complex(np.inf, 1.0)
    with np.errstate(invalid="ignore"):  # 0 * inf, in both products
        expected = (indicator * c).tobytes()
        assert (mask * c).tobytes() == expected
        assert np.multiply(mask, c, out=np.empty_like(c)).tobytes() == expected


def test_max_level(grid32, sharp):
    assert sharp.max_level(grid32) == 2
    assert sharp.max_level(TorusGrid(256)) == 5
    sharp.multiplier(grid32, 2)  # highest admissible level passes
    with pytest.raises(ValueError):
        sharp.multiplier(grid32, 3)


def test_renorm_constant_level0(grid32, sharp):
    assert renorm_constant(sharp, 0, grid32) == pytest.approx(C0_SHARP, rel=1e-12)


def test_renorm_constant_grid_independent(sharp):
    # sharp level 2 sums |k| <= 4, resolved identically on M = 32 and 64
    a = renorm_constant(sharp, 2, TorusGrid(32))
    b = renorm_constant(sharp, 2, TorusGrid(64))
    assert a == pytest.approx(C2_SHARP, rel=1e-12)
    assert b == pytest.approx(a, rel=1e-13)


def test_renorm_constant_log_divergence(sharp):
    # C_{N+1} - C_N -> log(2) / (2 pi) as N grows
    grid = TorusGrid(256)
    inc = renorm_constant(sharp, 5, grid) - renorm_constant(sharp, 4, grid)
    assert inc == pytest.approx(math.log(2.0) / (2.0 * math.pi), rel=0.05)


def test_tail_bound(grid32, sharp, smooth):
    assert sharp.tail_bound(grid32, 2) == 0.0
    t = smooth.tail_bound(grid32, 2)
    assert 0.0 < t < 1e-8
    # a smooth cutoff at a level the grid cannot hold leaves a larger
    # tail, and C_N refuses it
    with pytest.raises(ValueError, match="tail"):
        renorm_constant(smooth, 4, TorusGrid(16))


def test_make_wick_params_beta_default(grid32, sharp):
    p = make_wick_params(1.0, 2, sharp, grid32)
    assert p.beta == 0.5
    assert p.c_n == pytest.approx(C2_SHARP, rel=1e-12)
    # near the charge ceiling the default moves to the window midpoint
    q = make_wick_params(3.3, 2, sharp, grid32)
    lo = 3.3**2 / (4.0 * math.pi)
    assert q.beta == pytest.approx(0.5 * (lo + 1.0))
    r = make_wick_params(1.0, 2, sharp, grid32, beta=0.25)
    assert r.beta == 0.25


def test_wick_params_validation(grid32, sharp):
    with pytest.raises(ValueError):
        WickParams(alpha=ALPHA_MAX, level=2, psi=sharp, c_n=0.2, beta=0.999)
    with pytest.raises(ValueError):
        WickParams(alpha=-ALPHA_MAX - 0.1, level=2, psi=sharp, c_n=0.2, beta=0.999)
    with pytest.raises(ValueError):
        WickParams(alpha=1.0, level=-1, psi=sharp, c_n=0.2, beta=0.5)
    with pytest.raises(ValueError):
        WickParams(alpha=1.0, level=2, psi=sharp, c_n=-0.1, beta=0.5)
    with pytest.raises(ValueError):
        WickParams(alpha=1.0, level=2, psi=sharp, c_n=0.2, beta=0.05)  # below alpha^2/(4 pi)
    with pytest.raises(ValueError):
        WickParams(alpha=1.0, level=2, psi=sharp, c_n=0.2, beta=1.0)


def test_wick_params_carry_their_cutoff(smooth):
    # the profile c_n is computed from stays in the parameters, and the
    # shift and the cutoff multiplier are the spelled-out expressions
    grid = TorusGrid(64)
    params = make_wick_params(1.0, 3, smooth, grid)
    assert params.psi is smooth
    assert params.c_n == renorm_constant(smooth, 3, grid)
    shift = 0.5 * params.alpha**2 * params.c_n
    assert params.shift == shift
    assert params.multiplier(grid) is smooth.multiplier(grid, 3)
    f = gff_sample(grid, RngStream(77, purpose="wick-fold"))
    projected = to_values(smooth.multiplier(grid, 3) * f.coeffs, grid)
    expected, _ = scaled_exp(projected, params.alpha, shift)
    assert wick_exp_values(f, params).tobytes() == expected.tobytes()
    # the c10 control: zeroing C_N keeps the cutoff
    control = replace(params, c_n=0.0)
    assert control.psi is smooth
    assert control.shift == 0.0


def test_wick_exp_of_zero_field(grid32, sharp):
    params = make_wick_params(1.0, 2, sharp, grid32)
    vals = wick_exp_values(constant_field(grid32, 0.0), params)
    assert np.allclose(vals, math.exp(-0.5 * params.c_n), rtol=1e-14)


def test_wick_mean_one(grid32, sharp):
    # E exp(alpha P_N phi - alpha^2 C_N / 2) = 1 at every point
    params = make_wick_params(1.0, 2, sharp, grid32)
    base = RngStream(2024, purpose="wick-mean")
    n = 1500
    acc = 0.0
    for i in range(n):
        f = gff_sample(grid32, base.for_replica(i))
        acc += wick_exp_values(f, params)[0, 0]
    # per-point variance exp(alpha^2 C_N) - 1 ~ 0.25, 5 sigma gate
    se = math.sqrt((math.exp(params.c_n) - 1.0) / n)
    assert abs(acc / n - 1.0) < 5.0 * se


def test_green_kernel_point_at_origin(grid32, sharp, smooth):
    for psi in (sharp, smooth):
        for level in (0, 1, 2):
            assert green_kernel_point(psi, level, grid32, (0.0, 0.0)) == pytest.approx(
                renorm_constant(psi, level, grid32), rel=1e-12
            )


@pytest.mark.parametrize("M", [8, 16, 32, 64, 128, 256])
def test_green_kernel_point_is_the_meshgrid_sum(M, sharp, smooth):
    # the phase k.z by broadcasting the mode axis gives the sum the int64
    # meshgrid pair gave, to the bit
    grid = TorusGrid(M)
    kx, ky = np.meshgrid(grid.mode_axis, grid.mode_axis, indexing="ij")
    for psi in (sharp, smooth):
        level = psi.max_level(grid)
        m = psi.multiplier(grid, level)
        for z in ((0.0, 0.0), (0.3, -1.7), (math.pi, 0.5 * grid.spacing), (5.9, 2.0)):
            phase = kx * z[0] + ky * z[1]
            expected = float(np.sum(m * m * np.cos(phase) / (1.0 + grid.ksq))) / (4.0 * math.pi**2)
            assert green_kernel_point(psi, level, grid, z) == expected
        # C_N is K_N(0) exactly at every admissible level, and the bits of
        # its own cos-free sum
        for n in range(level + 1):
            m = psi.multiplier(grid, n)
            c_n = renorm_constant(psi, n, grid)
            assert c_n == green_kernel_point(psi, n, grid, (0, 0))
            assert c_n == float(np.sum(m * m / (1.0 + grid.ksq))) / (4.0 * math.pi**2)


def test_green_field_matches_point_sum(grid32, smooth):
    # the kernel as a field, coefficients psi^2 / (1 + |k|^2) / (2 pi)
    # through one inverse FFT, against direct mode summation
    m = smooth.multiplier(grid32, 2)
    vals = to_values((m * m / (1.0 + grid32.ksq) / (2.0 * math.pi)).astype(complex), grid32)
    for i, j in ((0, 0), (3, 1), (17, 30), (16, 16)):
        z = (i * grid32.spacing, j * grid32.spacing)
        assert vals[i, j] == pytest.approx(
            green_kernel_point(smooth, 2, grid32, z), abs=1e-10
        )


def test_analytic_wick_cov_diagonal(grid32, sharp):
    params = make_wick_params(1.2, 2, sharp, grid32)
    got = analytic_wick_cov(params, (0.3, 0.4), (0.3, 0.4), grid32)
    assert got == pytest.approx(math.exp(1.2**2 * params.c_n), rel=1e-12)


def test_overflow_guard(grid32, sharp):
    params = make_wick_params(1.0, 2, sharp, grid32)
    big = constant_field(grid32, 800.0)
    with pytest.raises(WickOverflowError) as info:
        wick_exp_values(big, params)
    assert info.value.max_exponent == pytest.approx(800.0 - 0.5 * params.c_n, rel=1e-12)


def test_apply_pn_sharp_idempotent(grid32, sharp, stream):
    f = gff_sample(grid32, stream)
    m = sharp.multiplier(grid32, 2)
    once = m * f.coeffs
    assert np.array_equal(once, m * once)
    # and it kills everything outside |k| <= 4
    assert np.all(once[(f.grid.ksq > 16.0)] == 0.0)


def test_wick_exp_values_of_ou_states_are_positive(grid32, sharp, stream):
    # the Wick forcing of the shifted equation, on a stack of OU states
    params = make_wick_params(1.0, 2, sharp, grid32)
    traj = ou_path(gff_sample(grid32, stream.child("init")), 0.125, 4, stream.child("path"))
    stack = SpectralField(grid32, np.stack([s.coeffs for s in traj.states]))
    values = wick_exp_values(stack, params)
    assert values.shape == (5, 32, 32)
    assert values.min() > 0.0


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("kind", ["sharp", "smooth"])
def test_wick_exp_is_one_kernel_bit_for_bit(kind):
    # into reused workspaces, allocating and guarded (wick_exp_values), on
    # a stack and on each of its rows alone: the same values and peaks
    grid = TorusGrid(32)
    params = make_wick_params(1.2, 2, CutoffProfile(kind), grid)
    stream = RngStream(2028, purpose="wick-kernel")
    stack = gff_sample(grid, [stream.for_replica(i) for i in range(3)])
    spec = np.full(stack.coeffs.shape, np.nan, dtype=np.complex128)
    out = np.full(stack.coeffs.shape, np.nan)
    for _ in range(2):
        got, peaks = wick_exp(stack.coeffs, params, grid, spec, out)
    assert got is out
    alloc, alloc_peaks = wick_exp(stack.coeffs, params, grid)
    assert np.array_equal(_bits(got), _bits(alloc))
    assert np.array_equal(_bits(got), _bits(wick_exp_values(stack, params)))
    assert np.array_equal(_bits(peaks), _bits(alloc_peaks))
    for i, c in enumerate(stack.coeffs):
        row, row_peaks = wick_exp(c, params, grid)
        assert np.array_equal(_bits(row), _bits(got[i]))
        assert np.array_equal(_bits(row_peaks), _bits(peaks[i : i + 1]))
