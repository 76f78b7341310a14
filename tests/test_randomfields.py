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
    ou_noise_variance,
    ou_path,
    zero_field,
)
from expsqlab.dynamics import _ou_increments
from expsqlab.randomfields import white_noise_fft
from expsqlab.spectral import heat_multiplier


def test_gff_sample_is_real(grid32, stream):
    f = gff_sample(grid32, stream)
    assert hermitian_defect(f) < 1e-12
    assert np.abs(f.coeffs[0, 0].imag) < 1e-12


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
        g = ou_path(f, [0.0, dt], s.child("step")).final()
        acc += np.abs(g.coeffs) ** 2
    mean = acc / n
    assert np.abs(mean / gff_mode_variance(grid8) - 1.0).max() < 5.0 * math.sqrt(2.0 / n)


def test_ou_path_deterministic(grid8, stream):
    times = np.linspace(0.0, 1.0, 9)
    init = gff_sample(grid8, stream.child("init"))
    a = ou_path(init, times, stream.child("path"))
    b = ou_path(init, times, stream.child("path"))
    for x, y in zip(a.states, b.states):
        assert np.array_equal(x.coeffs, y.coeffs)
    c = ou_path(init, times, stream.child("other"))
    assert not np.allclose(a.states[-1].coeffs, c.states[-1].coeffs)


def test_ou_path_validates_times(grid8, stream):
    init = zero_field(grid8)
    with pytest.raises(ValueError):
        ou_path(init, [0.5, 1.0], stream)
    with pytest.raises(ValueError):
        ou_path(init, [0.0, 0.5, 0.5], stream)


def test_increments_rebuild_path(grid8, stream):
    # eta_j = X_{t+h} - decay(h) X_t: chaining them back must reproduce
    # the trajectory bit for bit up to one multiply-add of rounding
    times = np.linspace(0.0, 2.0, 17)
    init = gff_sample(grid8, stream.child("init"))
    traj = ou_path(init, times, stream.child("path"))
    h = times[1]
    etas = list(_ou_increments(grid8, (x.coeffs for x in traj.states), h))
    assert len(etas) == len(times) - 1
    coeffs = traj.states[0].coeffs.copy()
    for j, eta in enumerate(etas):
        coeffs = heat_multiplier(grid8, h) * coeffs + eta
        assert np.abs(coeffs - traj.states[j + 1].coeffs).max() < 1e-12


def test_wiener_increment_variance(grid8):
    n = 3000
    dt = 0.2
    base = RngStream(777, purpose="wiener")
    generators = [base.for_replica(i).generator() for i in range(n)]
    # rows of fft2(white) * sqrt(dt) / M are Wiener increments over dt:
    # every mode has variance dt
    rows = white_noise_fft(grid8, generators) * (math.sqrt(dt) / 8)
    acc = (np.abs(rows) ** 2).sum(axis=0)
    assert np.abs(acc / n / dt - 1.0).max() < 5.0 * math.sqrt(2.0 / n)


def test_field_path_validation(grid8, grid32):
    f8 = zero_field(grid8)
    with pytest.raises(ValueError):
        FieldPath(times=np.array([0.0, 1.0]), states=[f8])
    with pytest.raises(ValueError):
        FieldPath(times=np.array([0.0, 0.0]), states=[f8, f8])
    with pytest.raises(ValueError):
        FieldPath(times=np.array([0.0, 1.0]), states=[f8, zero_field(grid32)])
    path = FieldPath(times=np.array([0.0, 1.0]), states=[f8, f8])
    assert path.grid is f8.grid
