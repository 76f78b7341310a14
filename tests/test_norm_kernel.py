"""The reductions that go through ``spectral.sobolev_norms`` give the bits
of the arithmetic they replaced: the level gaps of ``cmd_wick_converge``,
the gaps of ``contraction_check`` and the block norms of ``besov_norm``,
each of which once wrapped a fresh ``SpectralField`` around a difference
or a block and took its ``sobolev_norm``."""

import itertools

import numpy as np
import pytest

from expsqlab import (
    CutoffProfile,
    ExperimentConfig,
    RngStream,
    SpectralField,
    SqeConfig,
    besov_norm,
    cmd_wick_converge,
    contraction_check,
    gff_sample,
    heat_semigroup,
    make_grid,
    make_wick_params,
    ou_path,
    solve_shifted,
    sobolev_norm,
    to_spectral,
    wick_exp_values,
)
from expsqlab.besov import block_weights, dyadic_blocks


def _bits(xs) -> np.ndarray:
    return np.asarray(xs, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize("kind", ["sharp", "smooth"])
@pytest.mark.parametrize("M", [32, 64, 128])
def test_norm_kernel_reductions_are_the_old_arithmetic(M, kind):
    # each value is compared by its uint64 view, at the top admissible
    # cutoff level of the grid, so every level of wick-converge runs
    grid = make_grid(M)
    psi = CutoffProfile(kind)
    level = psi.max_level(grid)

    # wick-converge: one to_spectral per level and one norm per difference
    cfg = ExperimentConfig(modes=M, level=level, seed=24, replicas=2, cutoff_kind=kind)
    body = cmd_wick_converge(cfg).body
    stream = RngStream(cfg.seed, purpose="wick-converge")
    params = [cfg.build_params(grid, n) for n in body["levels"]]
    gaps = []
    for i in range(cfg.replicas):
        field = gff_sample(grid, stream.for_replica(i))
        wicks = [to_spectral(wick_exp_values(field, p), grid) for p in params]
        gaps.append([sobolev_norm(b - a, -body["beta"]) for a, b in zip(wicks, wicks[1:])])
    assert np.array_equal(_bits(body["mean_gaps"]), _bits(np.array(gaps).mean(axis=0)))

    # contraction_check: one norm per difference of the two shifted paths
    config = SqeConfig(0.25, 1.0 / 64, make_wick_params(1.0, level, psi, grid))
    base = RngStream(25, purpose="norm-kernel")
    traj = ou_path(gff_sample(grid, base.child("x0")), config.dt, config.n_steps(), base)
    u1, u2 = (heat_semigroup(gff_sample(grid, base.child(c)), 0.1) for c in "ab")
    paths = [solve_shifted(u, traj, config).states for u in (u1, u2)]
    expected = [
        sobolev_norm(SpectralField(grid, s1.coeffs - s2.coeffs), 0.0) for s1, s2 in zip(*paths)
    ]
    assert np.array_equal(_bits(contraction_check(u1, u2, traj, config).gaps), _bits(expected))

    # besov_norm: one norm per block, of a rough draw and a smoothed one
    for f, s in itertools.product((field, u1), (-1.0, -0.5, -0.25, 0.5)):
        terms = [
            2.0 ** (j * s) * sobolev_norm(SpectralField(grid, f.coeffs * w), 0.0)
            for j, w in zip(dyadic_blocks(grid), block_weights(grid))
        ]
        expected = float(np.sum(np.asarray(terms) ** 2.0) ** (1.0 / 2.0))
        assert _bits(besov_norm(f, s)) == _bits(expected)
