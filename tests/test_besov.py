"""Dyadic block decomposition: partition of unity and single-mode oracles."""

import math

import numpy as np
import pytest

from expsqlab import (
    SpectralField,
    TorusGrid,
    gff_sample,
    sobolev_norm,
    to_spectral,
)
from expsqlab.besov import besov_norm, block_weights, chi, dyadic_blocks, rho
from fields import constant_field

SQRT2PI = math.sqrt(2.0) * math.pi


def _cos_field(grid, freq):
    x = np.arange(grid.modes_per_dim) * grid.spacing
    u = np.cos(freq * x)[:, None] * np.ones(grid.modes_per_dim)[None, :]
    return to_spectral(u, grid)


def test_bump_plateaus():
    assert chi(0.0) == 1.0
    assert chi(1.0) == 1.0
    assert chi(4.0 / 3.0) == 0.0
    assert chi(2.0) == 0.0
    assert 0.0 < chi(1.15) < 1.0
    # rho vanishes below 1 and above 8/3
    assert rho(0.9) == 0.0
    assert rho(3.0) == 0.0
    assert rho(2.0) == pytest.approx(1.0)


def test_weights_sum_to_one(grid32, grid8):
    # telescoping chi(r) + sum_j rho(r / 2^j) must rebuild 1 at every mode
    for grid in (grid32, grid8):
        total = np.zeros((grid.modes_per_dim,) * 2)
        for w in block_weights(grid):
            total += w
        assert np.abs(total - 1.0).max() < 1e-12


def test_block_weights_cached(grid32):
    assert block_weights(grid32) is block_weights(grid32)


@pytest.mark.parametrize("M", [8, 16, 32, 64, 128, 256])
def test_block_weights_are_one_read_only_row_per_block(M):
    # the grid keeps one (J, M, M) array, row i the block dyadic_blocks[i];
    # no block vanishes on any grid, so every block is a row
    grid = TorusGrid(M)
    weights = block_weights(grid)
    js = dyadic_blocks(grid)
    r = np.sqrt(grid.ksq)
    assert weights.shape == (len(js), M, M)
    assert not weights.flags.writeable
    assert weights[0].tobytes() == chi(r).tobytes()
    for j, w in zip(js[1:], weights[1:]):
        assert w.tobytes() == rho(r / 2.0**j).tobytes()
    assert all(w.any() for w in weights)


def test_block_count_matches_grid(grid32):
    js = dyadic_blocks(grid32)
    assert js[0] == -1
    # r_max = sqrt(2) * 16 -> top block floor(log2) = 4
    assert js[-1] == 4


def test_constant_field_besov(grid32):
    # mode 0 sits entirely in block -1, so the norm is 2^{-s} * ||c||_{L^2}
    f = constant_field(grid32, 3.0)
    s = -0.5
    assert besov_norm(f, s) == pytest.approx(2.0**-s * 2.0 * math.pi * 3.0, rel=1e-12)


def test_single_mode_block_assignment(grid32):
    # |k| = 1 lives in block -1 (weight chi(1) = 1, rho(1) = 0), so the
    # besov norm is 2^{-s} * L2; |k| = 2 lives in block 0 and the norm
    # equals the L2 norm for every s
    one = _cos_field(grid32, 1)
    two = _cos_field(grid32, 2)
    for s in (-1.0, -0.5, 0.0, 1.5):
        assert besov_norm(one, s) == pytest.approx(2.0**-s * SQRT2PI, rel=1e-12)
        assert besov_norm(two, s) == pytest.approx(SQRT2PI, rel=1e-12)


def test_two_block_field_q_dispatch(grid32):
    # cos(x1) + cos(4 x1): blocks -1 and 1 each hold one pure mode, and
    # the norm is the l^2 sum of the two block terms
    f = SpectralField(grid32, _cos_field(grid32, 1).coeffs + _cos_field(grid32, 4).coeffs)
    s = -1.0
    t_low = 2.0**-s * SQRT2PI
    t_high = 2.0**s * SQRT2PI
    assert besov_norm(f, s) == pytest.approx(math.hypot(t_low, t_high), rel=1e-12)


def test_equivalence_on_random_field(stream):
    # B^s_{2,2} and H^s agree up to a moderate constant on a free-field draw
    grid = TorusGrid(64)
    f = gff_sample(grid, stream)
    for s in (-1.0, -0.5, -0.25):
        ratio = besov_norm(f, s) / sobolev_norm(f, s)
        assert 0.1 < ratio < 10.0


@pytest.mark.parametrize("rows", [1, 2, len(dyadic_blocks(TorusGrid(32)))])
@pytest.mark.parametrize("norm", [sobolev_norm, besov_norm])
def test_single_field_norms_reject_a_stack(grid32, stream, norm, rows):
    # a stack of draws is refused by name: one row per dyadic block (six
    # at M = 32) would broadcast against the block weights into a norm
    # mixed from its rows
    stack = gff_sample(grid32, [stream.for_replica(i) for i in range(rows)])
    with pytest.raises(ValueError, match="need one field"):
        norm(stack, -0.5)
