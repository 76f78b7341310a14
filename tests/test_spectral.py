"""Transform conventions, checked against hand-computed oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from expsqlab import (
    RngStream,
    SpectralField,
    field_from_coeffs,
    gff_sample,
    grid_quadrature,
    heat_semigroup,
    hermitian_defect,
    sobolev_norm,
    to_spectral,
    zero_field,
)
from expsqlab.spectral import TorusGrid, heat_multiplier, sobolev_norms, to_coeffs, to_values
from fields import constant_field

TWO_PI = 2.0 * math.pi


def test_grid_validation():
    with pytest.raises(ValueError):
        TorusGrid(7)
    with pytest.raises(ValueError):
        TorusGrid(4)
    with pytest.raises(ValueError):
        TorusGrid(12)
    with pytest.raises(TypeError):
        TorusGrid(8.0)
    g = TorusGrid(8)
    assert g.npoints == 64
    assert g.spacing == pytest.approx(TWO_PI / 8)


@pytest.mark.parametrize("M", [8, 16, 32, 64, 128, 256])
def test_ksq_is_the_meshgrid_formula(M):
    # |k|^2 by broadcasting the mode axis, byte for byte the int64
    # meshgrid pair's kx*kx + ky*ky
    g = TorusGrid(M)
    kx, ky = np.meshgrid(g.mode_axis, g.mode_axis, indexing="ij")
    assert g.ksq.tobytes() == (kx * kx + ky * ky).astype(np.float64).tobytes()
    assert not g.ksq.flags.writeable


def test_grid_cache_builds_once_read_only():
    g = TorusGrid(8)
    calls = []

    def build():
        calls.append(1)
        return np.ones(3)

    first = g.cached("ones", build)
    assert g.cached("ones", build) is first
    assert len(calls) == 1
    assert not first.flags.writeable
    # the Sobolev weights live in the same cache, one per order
    assert g.sobolev_weight(-0.5) is g.sobolev_weight(-0.5)
    assert not g.sobolev_weight(-0.5).flags.writeable
    assert g.sobolev_weight(1).tobytes() == (1.0 + g.ksq.ravel()).tobytes()
    # so do the heat multipliers, one per time, shared by every flow
    heat = heat_multiplier(g, 0.25)
    assert heat_multiplier(g, np.float64(0.25)) is heat
    assert not heat.flags.writeable
    assert heat.tobytes() == np.exp(-0.5 * 0.25 * (1.0 + g.ksq)).tobytes()
    assert heat_multiplier(g, 0.5).tobytes() == np.exp(-0.5 * 0.5 * (1.0 + g.ksq)).tobytes()
    assert heat_multiplier(TorusGrid(8), 0.25) is not heat


def test_constant_field_coefficient():
    # a constant c transforms to coeff(0) = 2 pi c and nothing else, the
    # field the tests' constant_field builds
    g = TorusGrid(16)
    f = to_spectral(np.full((16, 16), 2.0), g)
    assert f.coeffs[0, 0] == pytest.approx(2.0 * TWO_PI, abs=1e-14)
    assert np.abs(f.coeffs).sum() == pytest.approx(2.0 * TWO_PI, abs=1e-12)
    assert np.allclose(f.coeffs, constant_field(g, 2.0).coeffs, rtol=0, atol=1e-14)
    assert np.allclose(constant_field(g, 2.0).values(), 2.0, atol=1e-14)


def test_cosine_mode_oracle(grid32):
    # u = cos(x1): coefficients pi at k = (+-1, 0), L2 norm sqrt(2) pi,
    # H^1 norm 2 pi (weight 1+|k|^2 = 2 on both modes)
    x = np.arange(32) * grid32.spacing
    u = np.cos(x)[:, None] * np.ones(32)[None, :]
    f = to_spectral(u, grid32)
    assert f.coeffs[1, 0] == pytest.approx(math.pi, abs=1e-12)
    assert f.coeffs[-1, 0] == pytest.approx(math.pi, abs=1e-12)
    assert sobolev_norm(f, 0.0) == pytest.approx(math.sqrt(2.0) * math.pi, rel=1e-13)
    assert sobolev_norm(f, 1.0) == pytest.approx(2.0 * math.pi, rel=1e-13)


def test_round_trip_and_parseval(grid32, stream):
    gen = stream.generator()
    u = gen.standard_normal((32, 32))
    f = to_spectral(u, grid32)
    assert np.allclose(f.values(), u, atol=1e-12)
    # discrete Parseval: sum |coeff|^2 = (2 pi / M)^2 sum u^2
    lhs = float(np.sum(np.abs(f.coeffs) ** 2))
    rhs = (TWO_PI / 32) ** 2 * float(np.sum(u**2))
    assert lhs == pytest.approx(rhs, rel=1e-13)
    assert sobolev_norm(f, 0.0) ** 2 == pytest.approx(lhs, rel=1e-13)


def test_to_spectral_rejects_nonfinite(grid32):
    u = np.zeros((32, 32))
    u[3, 4] = np.nan
    with pytest.raises(ValueError):
        to_spectral(u, grid32)


def test_to_spectral_rejects_another_grids_shape(grid8):
    with pytest.raises(ValueError, match=r"expected shape \(8, 8\), got \(8, 16\)"):
        to_spectral(np.zeros((8, 16)), grid8)


def test_hermitian_defect(grid32, stream):
    real_f = to_spectral(stream.generator().standard_normal((32, 32)), grid32)
    assert hermitian_defect(real_f) < 1e-13
    broken = real_f.copy_coeffs()
    broken[2, 5] += 1.0
    assert hermitian_defect(SpectralField(grid32, broken)) > 0.1
    with pytest.raises(ValueError):
        field_from_coeffs(grid32, broken)


@pytest.mark.parametrize("case", ["nan", "inf", "nan-beside-a-defect"])
def test_field_from_coeffs_rejects_non_finite(grid8, case):
    # a NaN makes the Hermitian defect NaN, which compares false against
    # any bound, so non-finite entries are rejected before that test
    coeffs = np.zeros((8, 8), dtype=np.complex128)
    if case == "nan-beside-a-defect":
        coeffs[2, 5] = 5.0
        coeffs[3, 3] = np.nan
    else:
        coeffs[:] = np.nan if case == "nan" else np.inf
    with pytest.raises(ValueError, match="coefficients contain non-finite entries"):
        field_from_coeffs(grid8, coeffs)


def test_hermitian_defect_of_a_stack_is_its_worst_row():
    # the mirror k -> -k acts on the mode axes of each row, never on the
    # stack axis: three free-field draws are each Hermitian to rounding,
    # and so is their stack
    grid = TorusGrid(16)
    base = RngStream(1)
    stack = gff_sample(grid, [base.for_replica(i) for i in range(3)])
    rows = [hermitian_defect(SpectralField(grid, row)) for row in stack.coeffs]
    assert max(rows) < 1e-15
    assert hermitian_defect(stack) == max(rows)
    assert field_from_coeffs(grid, stack.coeffs).coeffs.shape == (3, 16, 16)
    # one broken row: the stack's defect is that row's, and it is rejected
    broken = stack.copy_coeffs()
    broken[1, 2, 5] += 1.0
    assert hermitian_defect(SpectralField(grid, broken)) == hermitian_defect(
        SpectralField(grid, broken[1])
    ) > 0.1
    with pytest.raises(ValueError, match="Hermitian"):
        field_from_coeffs(grid, broken)


def test_field_arithmetic(grid32, stream):
    gen = stream.generator()
    f = to_spectral(gen.standard_normal((32, 32)), grid32)
    g = to_spectral(gen.standard_normal((32, 32)), grid32)
    assert (f - g).coeffs.tobytes() == (f.coeffs - g.coeffs).tobytes()
    other = zero_field(TorusGrid(16))
    with pytest.raises(ValueError, match="different grids"):
        f - other


def test_quadrature_of_one():
    g = TorusGrid(64)
    ones = np.ones((64, 64))
    assert grid_quadrature(ones, g) == pytest.approx(TWO_PI**2, rel=1e-15)


def test_heat_semigroup_identity_and_law(grid32, stream):
    f = to_spectral(stream.generator().standard_normal((32, 32)), grid32)
    assert np.allclose(heat_semigroup(f, 0.0).coeffs, f.coeffs)
    a = heat_semigroup(heat_semigroup(f, 0.2), 0.55)
    b = heat_semigroup(f, 0.75)
    assert np.abs(a.coeffs - b.coeffs).max() < 1e-12
    with pytest.raises(ValueError):
        heat_semigroup(f, -0.1)


def test_heat_semigroup_caches_nothing(stream):
    # the semigroup at 50 distinct times leaves the grid cache as it was,
    # and its symbol is the cached multiplier's, bit for bit
    g = TorusGrid(16)
    f = to_spectral(stream.generator().standard_normal((16, 16)), g)
    before = dict(g._cache)
    for t in np.linspace(0.0, 2.0, 50):
        heat_semigroup(f, t)
    assert g._cache.keys() == before.keys()
    assert all(g._cache[k] is v for k, v in before.items())
    expected = heat_multiplier(TorusGrid(16), 0.3) * f.coeffs
    assert heat_semigroup(f, 0.3).coeffs.tobytes() == expected.tobytes()


def test_heat_semigroup_mass_decay(grid32):
    # the constant mode decays like e^{-t/2} under the massive semigroup
    f = constant_field(grid32, 1.0)
    out = heat_semigroup(f, 2.0)
    assert out.coeffs[0, 0] == pytest.approx(TWO_PI * math.exp(-1.0), rel=1e-14)


def test_from_spectral_of_single_mode(grid32):
    coeffs = np.zeros((32, 32), dtype=np.complex128)
    coeffs[2, 0] = 0.5
    coeffs[-2, 0] = 0.5
    vals = field_from_coeffs(grid32, coeffs).values()
    x = np.arange(32) * grid32.spacing
    # the pair (0.5, 0.5) at k = (+-2, 0) represents cos(2 x1) / (2 pi)
    expected = np.cos(2 * x)[:, None] / TWO_PI
    assert np.allclose(vals, np.broadcast_to(expected, (32, 32)), atol=1e-13)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([8, 16]), st.floats(-2.0, 2.0), st.integers(0, 2**32 - 1))
def test_sobolev_norm_matches_weighted_sum(M, s, seed):
    grid = TorusGrid(M)
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((M, M)) + 1j * rng.standard_normal((M, M))
    w = (1.0 + grid.ksq) ** s
    got = sobolev_norm(SpectralField(grid, c), s) ** 2
    assert got == pytest.approx(float(np.sum(w * np.abs(c) ** 2)), rel=1e-12)


# zero or a magnitude in [1e-100, 1e100]: a wide dynamic range whose
# transforms stay clear of overflow and of subnormal rounding
_GRID_VALUES = st.one_of(
    st.just(0.0), st.floats(1e-100, 1e100), st.floats(-1e100, -1e-100)
)


@st.composite
def _grid_array(draw):
    M = draw(st.sampled_from([8, 16, 32]))
    return TorusGrid(M), draw(arrays(np.float64, (M, M), elements=_GRID_VALUES))


@settings(max_examples=60, deadline=None)
@given(_grid_array())
def test_transform_round_trip_any_real_array(grid_and_values):
    grid, v = grid_and_values
    back = to_values(to_coeffs(v, grid), grid)
    assert np.abs(back - v).max() <= 1e-12 * np.abs(v).max()


@pytest.mark.parametrize("M", [8, 16, 32, 64])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_sobolev_norms_match_the_stack_formula(M, n):
    # one field at a time in a workspace, with the same re*re + im*im and
    # the same per-row np.dot as the (n, M^2) formula it replaced
    grid = TorusGrid(M)
    rng = np.random.default_rng(100 * M + n)
    coeffs = rng.standard_normal((n, M, M)) + 1j * rng.standard_normal((n, M, M))
    orders = (0.0, -0.75, 1.5)
    flat = coeffs.reshape(n, grid.npoints)
    abs2 = flat.real * flat.real + flat.imag * flat.imag
    weights = [grid.sobolev_weight(s) for s in orders]
    expected = np.sqrt([[np.dot(w, row) for row in abs2] for w in weights])
    assert sobolev_norms(coeffs, grid, orders).tobytes() == expected.tobytes()
    # the norms of a difference, formed component by component in the
    # workspace rows, are those of the complex difference
    other = rng.standard_normal((n, M, M)) + 1j * rng.standard_normal((n, M, M))
    got = sobolev_norms(coeffs, grid, orders, minus=other)
    assert got.tobytes() == sobolev_norms(coeffs - other, grid, orders).tobytes()


@pytest.mark.parametrize("shape", [(32, 32), (3, 32, 32)])
def test_transforms_into_workspaces_are_byte_identical(grid32, shape):
    # the workspace path runs the same ufuncs on the same operands as the
    # allocating one; the inverse is ifft2's transform, written into work
    # (numpy's ifft2 itself would drop the caller's out)
    rng = np.random.default_rng(5)
    values = rng.standard_normal(shape)
    coeffs = to_coeffs(values, grid32)
    assert coeffs.tobytes() == (np.fft.fft2(values) * (TWO_PI / grid32.npoints)).tobytes()
    expected = to_values(coeffs, grid32)
    assert expected.tobytes() == (np.real(np.fft.ifft2(coeffs)) * (grid32.npoints / TWO_PI)).tobytes()

    spec = np.full(shape, np.nan, dtype=np.complex128)
    got = to_coeffs(values, grid32, out=spec)
    assert np.shares_memory(got, spec)
    assert got.tobytes() == coeffs.tobytes()

    work, out = np.full(shape, np.nan, dtype=np.complex128), np.full(shape, np.nan)
    got = to_values(coeffs, grid32, work, out)
    assert np.shares_memory(got, out)
    assert got.tobytes() == expected.tobytes()
    assert work.tobytes() == np.fft.ifft2(coeffs).tobytes()
    # the coefficients may be their own workspace
    own = coeffs.copy()
    assert to_values(own, grid32, own, out).tobytes() == expected.tobytes()
