"""Gaussian samplers: exact laws, exact transition identities."""

import math

import numpy as np
import pytest

from expsqlab import (
    FieldPath,
    RngStream,
    gff_mode_variance,
    gff_sample,
    hermitian_defect,
    make_grid,
    ou_noise_variance,
    ou_path,
    zero_field,
)
from expsqlab.dynamics import _ou_increments
from expsqlab.randomfields import ou_chain, white_noise_fft
from expsqlab.spectral import SpectralField, heat_multiplier


def test_gff_sample_is_real(grid32, stream):
    f = gff_sample(grid32, stream)
    assert hermitian_defect(f) < 1e-12
    assert np.abs(f.coeffs[0, 0].imag) < 1e-12


def test_gff_mode_sd_is_computed_once_per_grid(stream):
    # gff_sample scales by one read-only standard deviation per grid,
    # sqrt(v)/M with the white noise's 1/M in it
    grid = make_grid(16)
    first = gff_sample(grid, stream.child("a"))
    sd = grid.cached("gff_sd", lambda: None)
    assert not sd.flags.writeable
    assert sd.tobytes() == (np.sqrt(gff_mode_variance(grid)) / 16).tobytes()
    gff_sample(grid, stream.child("b"))
    assert grid.cached("gff_sd", lambda: None) is sd
    assert first.coeffs.tobytes() == gff_sample(make_grid(16), stream.child("a")).coeffs.tobytes()


def test_gff_mode_variances(grid8):
    # 2000 draws, per-mode sample second moments against (1+|k|^2)^{-1}
    n = 2000
    base = RngStream(314, purpose="gff-var")
    acc = np.zeros((8, 8))
    for i in range(n):
        f = gff_sample(grid8, base.for_replica(i))
        acc += np.abs(f.coeffs) ** 2
    mean = acc / n
    v = gff_mode_variance(grid8)
    # relative error ~ sqrt(2/n) per mode; 5 sigma gate
    assert np.abs(mean / v - 1.0).max() < 5.0 * math.sqrt(2.0 / n)


def test_ou_decay_matches_noise_variance(grid32):
    d = heat_multiplier(grid32, 0.25)
    v = ou_noise_variance(grid32, 0.25)
    c = 1.0 + grid32.ksq
    assert np.allclose(d, np.exp(-0.125 * c), rtol=0, atol=0)
    assert np.allclose(v * c, 1.0 - d**2, rtol=1e-14, atol=1e-16)


def test_two_half_steps_compose_exactly(grid32):
    # v(dt/2) (1 + decay(dt)) = v(dt) with decay over the *full* step,
    # i.e. half-step noise pushed through half a step plus fresh noise
    dt = 0.3
    v_full = ou_noise_variance(grid32, dt)
    v_half = ou_noise_variance(grid32, dt / 2)
    d_half = heat_multiplier(grid32, dt / 2)
    assert np.abs(v_half + d_half**2 * v_half - v_full).max() < 1e-12


def test_ou_transition_stationarity(grid8):
    # start in the stationary law, take one transition, second moments stay
    n = 3000
    dt = 0.7
    base = RngStream(555, purpose="ou-stat")
    acc = np.zeros((8, 8))
    for i in range(n):
        s = base.for_replica(i)
        f = gff_sample(grid8, s.child("init"))
        g = ou_path(f, dt, 1, s.child("step")).final()
        acc += np.abs(g.coeffs) ** 2
    mean = acc / n
    assert np.abs(mean / gff_mode_variance(grid8) - 1.0).max() < 5.0 * math.sqrt(2.0 / n)


def test_ou_path_deterministic(grid8, stream):
    init = gff_sample(grid8, stream.child("init"))
    a = ou_path(init, 0.125, 8, stream.child("path"))
    b = ou_path(init, 0.125, 8, stream.child("path"))
    assert np.array_equal(a.times, np.linspace(0.0, 1.0, 9))
    for x, y in zip(a.states, b.states):
        assert np.array_equal(x.coeffs, y.coeffs)
    c = ou_path(init, 0.125, 8, stream.child("other"))
    assert not np.allclose(a.states[-1].coeffs, c.states[-1].coeffs)


def test_ou_path_validates_times(grid8, stream):
    # a step that is not positive and finite, or a negative step count,
    # is rejected before any noise is drawn
    init = zero_field(grid8)
    for dt, n_steps in ((0.0, 2), (-0.5, 2), (np.nan, 2), (np.inf, 2), (0.5, -1)):
        with pytest.raises(ValueError):
            ou_path(init, dt, n_steps, stream)
    assert len(ou_path(init, 0.5, 0, stream).states) == 1


def test_increments_rebuild_path(grid8, stream):
    # eta_j = X_{t+h} - decay(h) X_t: chaining them back must reproduce
    # the trajectory bit for bit up to one multiply-add of rounding
    h = 0.125
    init = gff_sample(grid8, stream.child("init"))
    traj = ou_path(init, h, 16, stream.child("path"))
    states = (x.coeffs for x in traj.states[1:])
    # each increment is the one buffer of the generator: keep copies
    etas = [eta.copy() for eta in _ou_increments(grid8, traj.states[0].coeffs, states, h)]
    assert len(etas) == 16
    coeffs = traj.states[0].coeffs.copy()
    for j, eta in enumerate(etas):
        coeffs = heat_multiplier(grid8, h) * coeffs + eta
        assert np.abs(coeffs - traj.states[j + 1].coeffs).max() < 1e-12


def _raw_noise_fft(grid, generators):
    """numpy's fft2 of grid white noise, row i drawn from ``generators[i]``:
    the reference the package's transform is checked against."""
    M = grid.modes_per_dim
    return np.fft.fft2(np.stack([g.standard_normal((M, M)) for g in generators]))


def _allocating_ou_chain(grid, coeffs, dt, n_steps, generators):
    """``ou_chain`` as it was before it stepped in one buffer: a new state
    stack every step, noise = (fft2(white) / M) * sd added to the decayed
    state."""
    decay = heat_multiplier(grid, dt)
    noise_sd = np.sqrt(ou_noise_variance(grid, dt))
    M = grid.modes_per_dim
    for _ in range(n_steps):
        coeffs = decay * coeffs + (_raw_noise_fft(grid, generators) / M) * noise_sd
        yield coeffs


def _scribbled(chain, *workspaces):
    """The stacks of ``chain``, with ``workspaces`` overwritten by NaN after
    each stack is taken, as a flow's step loop overwrites the workspaces it
    lends to its OU chain."""
    for state in chain:
        yield state
        for work in workspaces:
            work.fill(np.nan)


def _one_buffer(flow):
    """Copies of everything ``flow`` yields, after checking that it yields
    one array every time."""
    items = [(item, item.copy()) for item in flow]
    assert all(item is items[0][0] for item, _ in items)
    return [copy for _, copy in items]


@pytest.mark.parametrize("rows", [1, 3])
def test_ou_chain_and_increments_step_in_one_buffer(grid8, rows):
    dt, n_steps = 0.125, 5
    base = RngStream(46, purpose="ou-buffer")
    init = gff_sample(grid8, [base.for_replica(i).child("init") for i in range(rows)]).coeffs
    reference = list(_allocating_ou_chain(grid8, init, dt, n_steps, _generators(base, rows)))
    states = _one_buffer(s for s, _ in ou_chain(grid8, init, dt, n_steps, _generators(base, rows)))
    assert [s.tobytes() for s in states] == [s.tobytes() for s in reference]
    # in lent workspaces, which the chain writes only while a stack is
    # pulled: the caller may overwrite them between pulls
    white, noise = np.full(init.shape, np.nan), np.full(init.shape, np.nan, dtype=np.complex128)
    lent = ou_chain(grid8, init, dt, n_steps, _generators(base, rows), white, noise)
    next(lent)
    assert np.isfinite(white).all() and np.isfinite(noise).all()
    lent = ou_chain(grid8, init, dt, n_steps, _generators(base, rows), white, noise)
    states = _one_buffer(s for s, _ in _scribbled(lent, white, noise))
    assert [s.tobytes() for s in states] == [s.tobytes() for s in reference]
    if rows == 1:
        path = ou_path(SpectralField(grid8, init[0]), dt, n_steps, base.for_replica(0))
        assert [s.coeffs.tobytes() for s in path.states[1:]] == [s[0].tobytes() for s in reference]
    # increments: those the live chain yields beside its states are
    # _ou_increments over the chain's own states, and both are the
    # allocating next - decay * prev of the stored trajectory
    stored = [init] + reference
    expected = [nxt - heat_multiplier(grid8, dt) * prev for prev, nxt in zip(stored, stored[1:])]
    live = _one_buffer(e for _, e in ou_chain(grid8, init, dt, n_steps, _generators(base, rows)))
    recovered = _one_buffer(_ou_increments(grid8, init, iter(states), dt))
    assert _same_bits(np.stack(live), np.stack(recovered))
    assert _same_bits(np.stack(live), np.stack(expected))


def test_wiener_increment_variance(grid8):
    n = 3000
    dt = 0.2
    base = RngStream(777, purpose="wiener")
    generators = [base.for_replica(i).generator() for i in range(n)]
    # rows of fft2(white) * sqrt(dt) / M are Wiener increments over dt:
    # every mode has variance dt
    rows = white_noise_fft(grid8, generators, math.sqrt(dt) / 8)
    acc = (np.abs(rows) ** 2).sum(axis=0)
    assert np.abs(acc / n / dt - 1.0).max() < 5.0 * math.sqrt(2.0 / n)


def _generators(base, n):
    return [base.for_replica(i).generator() for i in range(n)]


def _same_bits(a, b) -> bool:
    """Equal to the bit, signed zeros included; the uint64 views compare
    without copying."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_white_noise_fft_workspaces_are_bit_for_bit(grid8):
    base = RngStream(41, purpose="workspace")
    scale = np.sqrt(gff_mode_variance(grid8)) / 8
    fresh = white_noise_fft(grid8, _generators(base, 5), scale)
    # numpy's fft2 of the real noise, times the scale
    assert _same_bits(fresh, _raw_noise_fft(grid8, _generators(base, 5)) * scale)
    # a full stack, then a ragged view of larger workspaces
    out = np.empty((5, 8, 8), dtype=np.complex128)
    full = white_noise_fft(grid8, _generators(base, 5), scale, np.empty((5, 8, 8)), out)
    assert np.shares_memory(full, out)
    assert _same_bits(full, fresh)
    white, out = np.empty((7, 8, 8)), np.empty((7, 8, 8), dtype=np.complex128)
    ragged = white_noise_fft(grid8, _generators(base, 3), scale, white[:3], out[:3])
    assert np.shares_memory(ragged, out)
    assert _same_bits(ragged, fresh[:3])


@pytest.mark.parametrize("M", [8, 16, 32, 64, 128, 256])
@pytest.mark.parametrize("n", [1, 2, 5, 16])
def test_white_noise_scaling_is_the_complex_division(M, n):
    # the samplers scale the transform once, by a standard deviation that
    # carries the white noise's 1/M; with M a power of two that is numpy's
    # fft2 of the noise, divided by M as a complex array and multiplied by
    # the standard deviation, to the byte, signed zeros included: the
    # imaginary parts of the self-conjugate modes are exact zeros.  Each
    # row is drawn from its own generator, one at a time
    grid = make_grid(M)
    base = RngStream(45, purpose="scaling")
    dt = 0.25
    gff_sd = np.sqrt(gff_mode_variance(grid))
    ou_sd = np.sqrt(ou_noise_variance(grid, dt))
    half = M // 2
    for i in range(n):
        sub = base.for_replica(i)
        draw = gff_sample(grid, sub).coeffs
        expected = (_raw_noise_fft(grid, [sub.generator()]) / M)[0] * gff_sd
        assert _same_bits(draw, expected)
        assert not draw[[0, 0, half, half], [0, half, 0, half]].imag.any()
        step, _ = next(ou_chain(grid, draw[None], dt, 1, [sub.child("ou").generator()]))
        noise = (_raw_noise_fft(grid, [sub.child("ou").generator()]) / M) * ou_sd
        expected = heat_multiplier(grid, dt) * draw + noise[0]
        assert _same_bits(step[0], expected)


def test_gff_sample_workspaces_are_bit_for_bit(grid8):
    base = RngStream(43, purpose="workspace")
    streams = [base.for_replica(i) for i in range(5)]
    fresh = gff_sample(grid8, streams)
    white = np.empty((5, 8, 8))
    out = np.empty((5, 8, 8), dtype=np.complex128)
    full = gff_sample(grid8, streams, white, out)
    assert np.shares_memory(full.coeffs, out)
    assert full.coeffs.tobytes() == fresh.coeffs.tobytes()
    # a ragged block drawn into views of larger workspaces, which stay
    # writable for the next block
    white, out = np.empty((8, 8, 8)), np.empty((8, 8, 8), dtype=np.complex128)
    ragged = gff_sample(grid8, streams[:3], white[:3], out[:3])
    assert np.shares_memory(ragged.coeffs, out)
    assert ragged.coeffs.tobytes() == fresh.coeffs[:3].tobytes()
    assert out.flags.writeable
    single = gff_sample(grid8, streams[4], white[:1], out[:1])
    assert single.coeffs.tobytes() == fresh.coeffs[4].tobytes()


def test_field_path_validation(grid8, grid32):
    f8 = zero_field(grid8)
    for dt in (0.0, -1.0, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="dt"):
            FieldPath(dt, [f8, f8])
    with pytest.raises(ValueError, match="state"):
        FieldPath(1.0, [])
    with pytest.raises(ValueError, match="grid"):
        FieldPath(1.0, [f8, zero_field(grid32)])
    path = FieldPath(1.0, [f8, f8])
    assert path.grid is f8.grid
    # the times are time_grid's expression, bit for bit
    path = FieldPath(0.01, [f8] * 101)
    assert path.times.tobytes() == (np.arange(101) * 0.01).tobytes()
