"""Experiment drivers behind the command-line subcommands.

Each cmd_* takes a parsed ExperimentConfig and returns an
ExperimentReport whose exit_code already encodes the outcome:

    0  ran and passed its built-in checks (or is purely informational)
    2  ran but a convergence / invariance check failed
    3  configuration error (raised as ConfigError, mapped by the CLI)
    4  numeric guard tripped (overflow, degenerate ensemble)

Replica fan-out is deterministic: replica i draws from the replica-i
substream regardless of scheduling, so --threads changes wall time only,
never results.  cmd_invariance ignores --threads: it steps its replicas
in blocked stacks (measures.invariance_test) in one thread.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .config import ConfigError, ExperimentConfig
from .dynamics import SqeConfig, solve_sqe_full, time_grid
from .measures import (
    DegenerateEnsembleError,
    estimate_partition,
    invariance_test,
    sample_ensemble,
    standard_observables,
)
from .randomfields import gff_sample, ou_path
from .reports import ExperimentReport, save_fields, write_csv, write_report
from .rng import RngStream
from .besov import besov_norm
from .spectral import NormSpec, sobolev_norm
from .wick import WickOverflowError, make_wick_params, wick_exp_gff

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


def _map_replicas(fn, n: int, threads: int) -> list:
    if threads <= 1:
        return [fn(i) for i in range(n)]
    with ThreadPoolExecutor(max_workers=threads) as ex:
        return list(ex.map(fn, range(n)))


def _finish(report: ExperimentReport, out_dir, started: float) -> ExperimentReport:
    report.timing.setdefault("wall_s", time.perf_counter() - started)
    if out_dir is not None:
        write_report(report, out_dir)
    return report


def cmd_sample_gff(cfg: ExperimentConfig, out_dir=None, threads: int = 1) -> ExperimentReport:
    """Draw free-field samples, check their negative-order Sobolev energy
    against the exact mode sum, and optionally dump the coefficients."""
    started = time.perf_counter()
    grid = cfg.build_grid()
    stream = RngStream(cfg.seed, purpose="sample-gff")
    s = -cfg.eps

    draws = _map_replicas(lambda i: gff_sample(grid, stream.for_replica(i)), cfg.samples, threads)
    sq_norms = np.array([sobolev_norm(f, s) ** 2 for f in draws])
    theory = float(((1.0 + grid.ksq) ** (s - 1.0)).sum())
    se = sq_norms.std(ddof=1) / math.sqrt(len(sq_norms)) if len(sq_norms) > 1 else float("inf")
    z = (sq_norms.mean() - theory) / se if se > 0 else 0.0
    mode0 = np.array([float(np.real(f.coeffs[0, 0])) for f in draws])

    ok = bool(abs(z) <= 4.0)
    report = ExperimentReport(
        command="sample-gff",
        config=cfg.as_dict(),
        body={
            "samples": len(draws),
            "modes_per_dim": grid.modes_per_dim,
            "sobolev_order": s,
            "mean_sq_norm": float(sq_norms.mean()),
            "theory_sq_norm": theory,
            "z": float(z),
            "mode0_mean": float(mode0.mean()),
            "mode0_var": float(mode0.var(ddof=1)) if len(mode0) > 1 else 0.0,
            "passed": ok,
        },
        exit_code=EXIT_OK if ok else EXIT_CHECK_FAILED,
    )
    if out_dir is not None:
        save_fields(Path(out_dir) / "samples.bin", list(draws))
    return _finish(report, out_dir, started)


def cmd_wick_converge(cfg: ExperimentConfig, out_dir=None, threads: int = 1) -> ExperimentReport:
    """Measure the cutoff-level convergence of the Wick exponential on
    common free-field draws: the negative-order Sobolev gap between
    consecutive levels must decrease at a positive dyadic rate."""
    started = time.perf_counter()
    grid = cfg.build_grid()
    psi = cfg.build_psi()
    top = min(5, psi.max_level(grid), max(cfg.level, 2))
    if top < 2:
        raise ConfigError(f"need at least levels 1..2; grid M={grid.modes_per_dim} is too small")
    levels = list(range(1, top + 1))
    beta = cfg.build_params(grid).beta
    params = {n: make_wick_params(cfg.alpha, n, psi, grid, beta=beta) for n in levels}
    stream = RngStream(cfg.seed, purpose="wick-converge")

    def one(i: int):
        field = gff_sample(grid, stream.for_replica(i))
        wicks = {n: wick_exp_gff(field, params[n], psi) for n in levels}
        return [sobolev_norm(wicks[n + 1] - wicks[n], -beta) for n in levels[:-1]]

    try:
        gaps = np.array(_map_replicas(one, cfg.replicas, threads))
    except WickOverflowError as e:
        return _finish(
            ExperimentReport(
                command="wick-converge", config=cfg.as_dict(),
                body={"overflow_exponent": e.max_exponent}, exit_code=EXIT_NUMERIC,
            ),
            out_dir, started,
        )

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
    report = ExperimentReport(
        command="wick-converge",
        config=cfg.as_dict(),
        body={
            "levels": levels,
            "beta": beta,
            "replicas": cfg.replicas,
            "mean_gaps": [float(g) for g in mean_gaps],
            "dyadic_rate": rate,
            "decreasing": decreasing,
            "passed": ok,
        },
        exit_code=EXIT_OK if ok else EXIT_CHECK_FAILED,
    )
    return _finish(report, out_dir, started)


def cmd_sqe(cfg: ExperimentConfig, out_dir=None, threads: int = 1) -> ExperimentReport:
    """Simulate the full equation across cutoff levels 1..wick.N under
    common noise per replica and tabulate norms and level gaps over time."""
    started = time.perf_counter()
    grid = cfg.build_grid()
    psi = cfg.build_psi()
    top = min(cfg.level, psi.max_level(grid))
    if top < 1:
        raise ConfigError(f"wick.N must allow at least level 1 on grid M={grid.modes_per_dim}")
    levels = list(range(1, top + 1))
    beta = cfg.build_params(grid).beta
    configs = {
        n: SqeConfig(
            horizon=cfg.horizon, dt=cfg.dt,
            params=make_wick_params(cfg.alpha, n, psi, grid, beta=beta),
            psi=psi, scheme=cfg.scheme, equation="full",
            mollifier_scale=cfg.mollifier,
        )
        for n in levels
    }
    times = time_grid(configs[levels[0]])
    stream = RngStream(cfg.seed, purpose="sqe")

    def one(r: int):
        sub = stream.for_replica(r)
        phi0 = gff_sample(grid, sub.child("init"))
        x_traj = ou_path(phi0, times, sub.child("ou"))
        rows = []
        sup_gaps = {}
        prev_states = None
        for n in levels:
            path = solve_sqe_full(phi0, configs[n], sub, x_traj=x_traj)
            for j, t in enumerate(times):
                state = path.states[j]
                gap = (
                    sobolev_norm(state - prev_states[j], -beta)
                    if prev_states is not None
                    else float("nan")
                )
                rows.append(
                    (r, n, float(t), sobolev_norm(state, 0.0), sobolev_norm(state, -beta), gap)
                )
            if prev_states is not None:
                sup_gaps[n] = max(row[5] for row in rows if row[1] == n)
            prev_states = path.states
        return rows, sup_gaps

    try:
        results = _map_replicas(one, cfg.replicas, threads)
    except WickOverflowError as e:
        return _finish(
            ExperimentReport(
                command="sqe", config=cfg.as_dict(),
                body={"overflow_exponent": e.max_exponent}, exit_code=EXIT_NUMERIC,
            ),
            out_dir, started,
        )

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
    report = ExperimentReport(
        command="sqe",
        config=cfg.as_dict(),
        body={
            "levels": levels,
            "beta": beta,
            "replicas": cfg.replicas,
            "steps": len(times) - 1,
            "mean_sup_gap_by_level": {str(k): v for k, v in mean_sup_gaps.items()},
        },
        exit_code=EXIT_OK,
    )
    return _finish(report, out_dir, started)


def cmd_invariance(cfg: ExperimentConfig, out_dir=None, threads: int = 1) -> ExperimentReport:
    """Sample the level-N measure, evolve resampled draws through the
    projected dynamics, and z-test observable stationarity."""
    started = time.perf_counter()
    grid = cfg.build_grid()
    psi = cfg.build_psi()
    params = cfg.build_params(grid)
    sqe_cfg = cfg.build_sqe(equation="projected", grid=grid)
    stream = RngStream(cfg.seed, purpose="invariance")

    try:
        ensemble = sample_ensemble(
            grid, params, psi, cfg.samples, stream.child("ensemble"), tilt=cfg.tilt_value()
        )
        partition = estimate_partition(ensemble)
        obs = standard_observables(params, psi, eps=cfg.eps)
        result = invariance_test(
            ensemble, sqe_cfg, obs, stream.child("evolve"), replicas=cfg.replicas
        )
    except WickOverflowError as e:
        return _finish(
            ExperimentReport(
                command="invariance", config=cfg.as_dict(),
                body={"overflow_exponent": e.max_exponent}, exit_code=EXIT_NUMERIC,
            ),
            out_dir, started,
        )
    except DegenerateEnsembleError as e:
        return _finish(
            ExperimentReport(
                command="invariance", config=cfg.as_dict(),
                body={"error": str(e)}, exit_code=EXIT_NUMERIC,
            ),
            out_dir, started,
        )

    if out_dir is not None:
        write_csv(
            Path(out_dir) / "observables.csv",
            ["observable", "mean_initial", "mean_final", "mean_diff", "std_error", "z"],
            [
                (s.name, s.mean_initial, s.mean_final, s.mean_diff, s.std_error, s.z)
                for s in result.stats.values()
            ],
        )
    report = ExperimentReport(
        command="invariance",
        config=cfg.as_dict(),
        body={
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
        },
        exit_code=EXIT_OK if result.passed else EXIT_CHECK_FAILED,
    )
    return _finish(report, out_dir, started)


def cmd_norms_bench(cfg: ExperimentConfig, out_dir=None, threads: int = 1) -> ExperimentReport:
    """Compare dyadic-block and Sobolev norms on free-field draws."""
    started = time.perf_counter()
    grid = cfg.build_grid()
    stream = RngStream(cfg.seed, purpose="norms-bench")
    draws = _map_replicas(lambda i: gff_sample(grid, stream.for_replica(i)), cfg.replicas, threads)

    orders = [-1.0, -0.5, -0.25]
    ratio_stats = {}
    ok = True
    for s in orders:
        spec = NormSpec("besov", s, 2.0, 2.0)
        ratios = np.array([besov_norm(f, spec) / sobolev_norm(f, s) for f in draws])
        ratio_stats[f"{s:g}"] = {
            "min": float(ratios.min()),
            "max": float(ratios.max()),
            "mean": float(ratios.mean()),
        }
        ok = ok and bool(1.0 / 50.0 <= ratios.min() <= ratios.max() <= 50.0)

    report = ExperimentReport(
        command="norms-bench",
        config=cfg.as_dict(),
        body={
            "replicas": cfg.replicas,
            "modes_per_dim": grid.modes_per_dim,
            "besov_over_sobolev": ratio_stats,
            "passed": ok,
        },
        exit_code=EXIT_OK if ok else EXIT_CHECK_FAILED,
    )
    return _finish(report, out_dir, started)
