"""Experiment drivers behind the command-line subcommands.

Each cmd_* is the body of one command: it computes its result and
returns ``(body, exit_code)``.  The decorator ``_driver(command)`` turns
that into the public ``cmd_*(cfg, out_dir=None, threads=1)``, which
returns an ExperimentReport.  It starts the wall clock, maps a numeric
failure to its body (``WickOverflowError`` to ``{"overflow_exponent": x}``,
``DegenerateEnsembleError`` to ``{"error": msg}``, both exit 4), builds
the one report, records ``timing["wall_s"]`` and writes ``report.json``
into ``out_dir`` when one is given.  A ConfigError propagates: no report
is built or written.  Exit codes:

    0  ran and passed its built-in checks (or is purely informational)
    2  ran but a convergence / invariance check failed
    3  configuration error (raised as ConfigError, mapped by the CLI)
    4  numeric guard tripped (overflow, degenerate ensemble)

Replica fan-out is deterministic: replica i draws from the replica-i
substream regardless of scheduling, so --threads changes wall time only,
never results.  cmd_invariance and cmd_sample_gff ignore --threads: they
evaluate blocked stacks (measures.invariance_test, spectral.blocks) in
one thread.

The drivers stream what they can: cmd_sample_gff hands each block of
draws to the dump and drops it, and cmd_sqe steps the cutoff levels of a
replica in lockstep (dynamics.evolve_levels) and reduces each step's
states to their norms and level gaps at once, so neither holds a path or
the draws whole.
"""

from __future__ import annotations

import functools
import math
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .config import ConfigError, ExperimentConfig
from .dynamics import evolve_levels, time_grid
from .measures import (
    DegenerateEnsembleError,
    estimate_partition,
    invariance_test,
    sample_ensemble,
    standard_observables,
)
from .randomfields import gff_sample
from .reports import ExperimentReport, save_fields, write_csv, write_report
from .rng import RngStream
from .besov import besov_norm
from .spectral import blocks, sobolev_norm, sobolev_norms
from .wick import WickOverflowError, wick_exp_gff

__all__ = [
    "cmd_sample_gff",
    "cmd_wick_converge",
    "cmd_sqe",
    "cmd_invariance",
    "cmd_norms_bench",
]

EXIT_OK = 0
EXIT_CHECK_FAILED = 2
EXIT_CONFIG = 3
EXIT_NUMERIC = 4
# the word the command line prints for a report's exit code
STATUS = {EXIT_OK: "ok", EXIT_CHECK_FAILED: "CHECK FAILED", EXIT_NUMERIC: "NUMERIC GUARD"}


def _map_replicas(fn, n: int, threads: int) -> list:
    if threads <= 1:
        return [fn(i) for i in range(n)]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(fn, range(n)))


def _driver(command: str):
    """Make a driver body ``(cfg, out_dir, threads) -> (body, exit_code)``
    into the command's ``cmd_*``, which returns its ExperimentReport (see
    the module docstring)."""

    def decorate(run):
        @functools.wraps(run)
        def cmd(cfg: ExperimentConfig, out_dir=None, threads: int = 1) -> ExperimentReport:
            started = time.perf_counter()
            try:
                body, exit_code = run(cfg, out_dir, threads)
            except WickOverflowError as e:
                body, exit_code = {"overflow_exponent": e.max_exponent}, EXIT_NUMERIC
            except DegenerateEnsembleError as e:
                body, exit_code = {"error": str(e)}, EXIT_NUMERIC
            report = ExperimentReport(command, cfg.as_dict(), body, exit_code=exit_code)
            report.timing["wall_s"] = time.perf_counter() - started
            if out_dir is not None:
                write_report(report, out_dir)
            return report

        return cmd

    return decorate


@_driver("sample-gff")
def cmd_sample_gff(cfg: ExperimentConfig, out_dir=None, threads: int = 1):
    """Draw free-field samples, check their negative-order Sobolev energy
    against the exact mode sum, and optionally dump the coefficients.

    Draws are made in blocks (``spectral.blocks``); each block's norms
    and constant modes are recorded and the block goes to the dump, then
    is dropped, so memory holds one block whatever ``samples`` is.
    ``threads`` is ignored."""
    grid = cfg.build_grid()
    stream = RngStream(cfg.seed, purpose="sample-gff")
    s = -cfg.eps
    sq_norms = np.empty(cfg.samples)
    mode0 = np.empty(cfg.samples)

    def draws():
        for rows in blocks(cfg.samples, grid):
            block = gff_sample(grid, [stream.for_replica(i) for i in rows])
            for i, f in zip(rows, block.unstack()):
                sq_norms[i] = sobolev_norm(f, s) ** 2
            mode0[rows.start : rows.stop] = block.coeffs[:, 0, 0].real
            yield block

    if out_dir is not None:
        save_fields(Path(out_dir) / "samples.bin", draws())
    else:
        for _ in draws():
            pass
    theory = float(grid.sobolev_weight(s - 1.0).sum())
    se = sq_norms.std(ddof=1) / math.sqrt(len(sq_norms)) if len(sq_norms) > 1 else float("inf")
    z = (sq_norms.mean() - theory) / se if se > 0 else 0.0

    ok = bool(abs(z) <= 4.0)
    return {
        "samples": cfg.samples,
        "modes_per_dim": grid.modes_per_dim,
        "sobolev_order": s,
        "mean_sq_norm": float(sq_norms.mean()),
        "theory_sq_norm": theory,
        "z": float(z),
        "mode0_mean": float(mode0.mean()),
        "mode0_var": float(mode0.var(ddof=1)) if len(mode0) > 1 else 0.0,
        "passed": ok,
    }, EXIT_OK if ok else EXIT_CHECK_FAILED


@_driver("wick-converge")
def cmd_wick_converge(cfg: ExperimentConfig, out_dir=None, threads: int = 1):
    """Measure the cutoff-level convergence of the Wick exponential on
    common free-field draws: the negative-order Sobolev gap between
    consecutive levels must decrease at a positive dyadic rate."""
    grid = cfg.build_grid()
    psi = cfg.build_psi()
    top = min(5, psi.max_level(grid), max(cfg.level, 2))
    if top < 2:
        raise ConfigError(f"need at least levels 1..2; grid M={grid.modes_per_dim} is too small")
    levels = list(range(1, top + 1))
    # built at wick.N even when fewer levels run, so a level the grid
    # cannot hold is a ConfigError here too
    beta = cfg.build_params(grid).beta
    params = [cfg.build_params(grid, n) for n in levels]
    stream = RngStream(cfg.seed, purpose="wick-converge")

    def one(i: int):
        field = gff_sample(grid, stream.for_replica(i))
        wicks = [wick_exp_gff(field, p, psi) for p in params]
        return [sobolev_norm(b - a, -beta) for a, b in zip(wicks, wicks[1:])]

    gaps = np.array(_map_replicas(one, cfg.replicas, threads))
    mean_gaps = gaps.mean(axis=0)
    pairs = levels[:-1]
    slope = float(np.polyfit(pairs, np.log2(mean_gaps), 1)[0]) if len(pairs) > 1 else 0.0
    rate = -slope
    decreasing = bool(np.all(np.diff(mean_gaps) < 0.0))
    ok = decreasing and (rate >= 0.2 or len(pairs) < 2)

    if out_dir is not None:
        rows = [
            (r, pairs[j], float(gaps[r, j]))
            for r in range(gaps.shape[0])
            for j in range(gaps.shape[1])
        ]
        write_csv(Path(out_dir) / "gaps.csv", ["replica", "level", "gap_hneg"], rows)
    return {
        "levels": levels,
        "beta": beta,
        "replicas": cfg.replicas,
        "mean_gaps": [float(g) for g in mean_gaps],
        "dyadic_rate": rate,
        "decreasing": decreasing,
        "passed": ok,
    }, EXIT_OK if ok else EXIT_CHECK_FAILED


@_driver("sqe")
def cmd_sqe(cfg: ExperimentConfig, out_dir=None, threads: int = 1):
    """Simulate the full equation across cutoff levels 1..wick.N under
    common noise per replica and tabulate norms and level gaps over time."""
    if cfg.level < 1:
        raise ConfigError(f"sqe needs wick.N >= 1, got {cfg.level}")
    grid = cfg.build_grid()
    configs = [cfg.build_sqe(grid, n) for n in range(1, cfg.level + 1)]
    levels = [c.params.level for c in configs]
    beta = configs[-1].params.beta
    times = time_grid(configs[0])
    stream = RngStream(cfg.seed, purpose="sqe")

    def one(r: int):
        sub = stream.for_replica(r)
        phi0 = gff_sample(grid, sub.child("init"))
        # per level and time: L2 norm, H^-beta norm, H^-beta gap to level n-1
        l2, hneg = np.empty((2, len(levels), len(times)))
        gaps = np.full((len(levels), len(times)), np.nan)
        for j, stack in enumerate(evolve_levels(phi0, configs, sub)):
            l2[:, j], hneg[:, j] = sobolev_norms(stack, grid, (0.0, -beta))
            gaps[1:, j] = sobolev_norms(stack[1:] - stack[:-1], grid, (-beta,))[0]
        ts = [float(t) for t in times]
        rows = [
            (r, n, t, a, b, g)
            for n, l2_n, hneg_n, gaps_n in zip(levels, l2.tolist(), hneg.tolist(), gaps.tolist())
            for t, a, b, g in zip(ts, l2_n, hneg_n, gaps_n)
        ]
        sup_gaps = {n: max(g) for n, g in zip(levels[1:], gaps[1:].tolist())}
        return rows, sup_gaps

    results = _map_replicas(one, cfg.replicas, threads)
    if out_dir is not None:
        all_rows = [row for rows, _ in results for row in rows]
        write_csv(
            Path(out_dir) / "paths.csv",
            ["replica", "level", "t", "l2_norm", "hneg_norm", "gap_to_prev_level"],
            all_rows,
        )
    mean_sup_gaps = {
        n: float(np.mean([sg[n] for _, sg in results]))
        for n in levels[1:]
    }
    return {
        "levels": levels,
        "beta": beta,
        "replicas": cfg.replicas,
        "steps": len(times) - 1,
        "mean_sup_gap_by_level": {str(k): v for k, v in mean_sup_gaps.items()},
    }, EXIT_OK


@_driver("invariance")
def cmd_invariance(cfg: ExperimentConfig, out_dir=None, threads: int = 1):
    """Sample the level-N measure, evolve resampled draws through the
    projected dynamics, and z-test observable stationarity."""
    grid = cfg.build_grid()
    sqe_cfg = cfg.build_sqe(grid)
    params, psi = sqe_cfg.params, sqe_cfg.psi
    stream = RngStream(cfg.seed, purpose="invariance")
    ensemble = sample_ensemble(
        grid, params, psi, cfg.samples, stream.child("ensemble"), tilt=cfg.tilt
    )
    partition = estimate_partition(ensemble)
    obs = standard_observables(params, psi, eps=cfg.eps)
    result = invariance_test(ensemble, sqe_cfg, obs, stream.child("evolve"), replicas=cfg.replicas)

    if out_dir is not None:
        write_csv(
            Path(out_dir) / "observables.csv",
            ["observable", "mean_initial", "mean_final", "mean_diff", "std_error", "z"],
            [
                (s.name, s.mean_initial, s.mean_final, s.mean_diff, s.std_error, s.z)
                for s in result.stats.values()
            ],
        )
    return {
        "samples": len(ensemble),
        "ess": ensemble.ess(),
        "tilt_mean": ensemble.tilt_mean,
        "log_partition": partition.log_value,
        "partition_se_rel": partition.std_error / partition.value,
        "replicas": result.replicas,
        "clusters": result.clusters,
        "observables": {
            s.name: {"mean_diff": s.mean_diff, "std_error": s.std_error, "z": s.z}
            for s in result.stats.values()
        },
        "max_abs_z": result.max_abs_z,
        "passed": result.passed,
    }, EXIT_OK if result.passed else EXIT_CHECK_FAILED


@_driver("norms-bench")
def cmd_norms_bench(cfg: ExperimentConfig, out_dir=None, threads: int = 1):
    """Compare dyadic-block and Sobolev norms on free-field draws."""
    grid = cfg.build_grid()
    stream = RngStream(cfg.seed, purpose="norms-bench")
    draws = _map_replicas(lambda i: gff_sample(grid, stream.for_replica(i)), cfg.replicas, threads)

    orders = [-1.0, -0.5, -0.25]
    ratio_stats = {}
    ok = True
    for s in orders:
        ratios = np.array([besov_norm(f, s) / sobolev_norm(f, s) for f in draws])
        ratio_stats[f"{s:g}"] = {
            "min": float(ratios.min()),
            "max": float(ratios.max()),
            "mean": float(ratios.mean()),
        }
        ok = ok and bool(1.0 / 50.0 <= ratios.min() <= ratios.max() <= 50.0)

    return {
        "replicas": cfg.replicas,
        "modes_per_dim": grid.modes_per_dim,
        "besov_over_sobolev": ratio_stats,
        "passed": ok,
    }, EXIT_OK if ok else EXIT_CHECK_FAILED
