"""Dyadic Littlewood-Paley blocks and the inhomogeneous Besov norm.

The dyadic pair (chi, rho) is built once from the exp(-1/t) smooth step:
chi is radial with chi = 1 on |xi| <= 1 and chi = 0 on |xi| >= 4/3, and
rho(xi) = chi(xi/2) - chi(xi), supported in 1 <= |xi| <= 8/3.  Their
telescoping sum chi + sum_{j>=0} rho(2^{-j} xi) equals 1 exactly at every
grid mode once enough blocks are kept, so only finitely many blocks are
nonzero for grid-resolved fields.  With this pair, B^s_{2,2} agrees with
H^s up to a fixed grid-independent equivalence constant (measured by the
norms-bench experiment, not asserted to a specific value).
``besov_norm`` computes B^s_{2,2}, the only Besov norm the package
evaluates; the Sobolev norm is ``spectral.sobolev_norm``.
"""

import math

import numpy as np

from .spectral import SpectralField, sobolev_norm

__all__ = [
    "chi",
    "rho",
    "dyadic_blocks",
    "block_weights",
    "besov_norm",
]

_weight_cache: dict = {}


def _smooth_step(t: np.ndarray) -> np.ndarray:
    """0 for t <= 0, 1 for t >= 1, C^inf monotone in between."""
    t = np.asarray(t, dtype=np.float64)
    with np.errstate(over="ignore", under="ignore"):
        a = np.where(t > 0.0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        b = np.where(t < 1.0, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
    return a / (a + b)


def chi(r):
    """Radial low-pass bump: 1 on r <= 1, 0 on r >= 4/3."""
    return 1.0 - _smooth_step(3.0 * (np.asarray(r, dtype=np.float64) - 1.0))


def rho(r):
    """Annulus bump chi(r/2) - chi(r), supported in [1, 8/3]."""
    r = np.asarray(r, dtype=np.float64)
    return chi(0.5 * r) - chi(r)


def dyadic_blocks(grid) -> list[int]:
    """Block indices j = -1, 0, ..., J covering every grid mode."""
    r_max = math.sqrt(2.0) * (grid.modes_per_dim / 2)
    return list(range(-1, int(math.floor(math.log2(r_max))) + 1))


def block_weights(grid) -> list[tuple[int, np.ndarray]]:
    """(j, multiplier array) pairs for the grid; weights sum to 1 per mode."""
    cached = _weight_cache.get(grid)
    if cached is None:
        r = np.sqrt(grid.ksq)
        cached = [(-1, chi(r))]
        for j in dyadic_blocks(grid)[1:]:
            w = rho(r / 2.0**j)
            if np.any(w != 0.0):
                cached.append((j, w))
        _weight_cache[grid] = cached
    return cached


def besov_norm(field: SpectralField, s: float) -> float:
    """l^2 over blocks j >= -1 of 2^{js} ||Delta_j field||_{L^2}."""
    terms = [
        2.0 ** (j * s) * sobolev_norm(SpectralField(field.grid, field.coeffs * w), 0.0)
        for j, w in block_weights(field.grid)
    ]
    return float(np.sum(np.asarray(terms) ** 2.0) ** (1.0 / 2.0))
