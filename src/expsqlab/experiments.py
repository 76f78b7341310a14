"""Experiment drivers behind the command-line subcommands.

Each cmd_* is the body of one command: it takes ``(cfg, grid, stream,
out_dir, threads)`` and returns ``(body, counts)``, the counts
(``_counts``) worked out from the run's shape.  The decorator
``_driver(command)`` turns that into the public ``cmd_*(cfg,
out_dir=None, threads=1)``, which returns an ExperimentReport, and
records it in ``COMMANDS`` under the command's name, the table the
command line is built from.  The driver is the one place that builds a
run's grid (``cfg.build_grid()``) and its root stream
(``RngStream(cfg.seed, purpose=command)``, named after the command), and
the one place that chooses the exit code.  It starts the wall clock,
maps a numeric failure to its body (``WickOverflowError`` to
``{"overflow_exponent": x}``, ``DegenerateEnsembleError`` to
``{"error": msg}``, both exit 4), builds the one report, records
``timing["wall_s"]`` and ``timing["counts"]`` (none after a numeric
failure) and writes ``report.json`` into ``out_dir`` when one is given.
A ConfigError, ``threads < 1`` included, propagates: no report is built
or written.  Exit codes:

    0  ran, and its body's ``passed`` is not False (sqe has none)
    2  ran, and its body's ``passed`` is False: a convergence,
       moment, norm or invariance check failed
    3  configuration error (raised as ConfigError, mapped by the CLI)
    4  numeric guard tripped (overflow, degenerate ensemble)

Replica fan-out is deterministic: replica i draws from the replica-i
substream regardless of scheduling, so --threads changes wall time only,
never results.  cmd_invariance and cmd_sample_gff ignore --threads: they
evaluate blocked stacks (measures.invariance_test, spectral.blocks) in
one thread.

The drivers stream what they can: cmd_sample_gff hands each block of
draws to the dump and drops it, cmd_norms_bench reduces each draw to its
ratios, and cmd_sqe steps the cutoff levels of a replica in lockstep
(dynamics.evolve_levels), reduces each step's states to their norms and
level gaps at once and writes a replica's rows before the next, so none
holds a path or the draws whole.  cmd_sqe and cmd_wick_converge take
level gaps from a level stack without forming the differences
(``spectral.sobolev_norms(..., minus=)``).
"""

from __future__ import annotations

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
from .spectral import blocks, sobolev_norms, to_coeffs
from .wick import WickOverflowError, wick_exp_values

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
# every cmd_* under its command's name, in the order they are defined
COMMANDS = {}


def _map_replicas(fn, n: int, threads: int):
    """Yield fn(0), ..., fn(n - 1) in replica order, whatever ``threads``."""
    if threads <= 1:
        yield from map(fn, range(n))
        return
    with ThreadPoolExecutor(max_workers=threads) as ex:
        yield from ex.map(fn, range(n))


def _counts(grid, fft_calls, transforms, generators, draws, steps=0, field_steps=0) -> dict:
    """The work of a run, ``report.timing["counts"]``, worked out from the
    run's shape rather than counted: calls into numpy's FFT pair
    (``fft_calls``) and the (M, M) fields they transform
    (``transforms``), RngStream generators built, the white-noise normals
    of ``draws`` grid draws of M^2 each, the OU chain stacks pulled
    (``steps``) and their rows (``field_steps``)."""
    return {
        "steps": steps,
        "field_steps": field_steps,
        "transforms": transforms,
        "fft_calls": fft_calls,
        "normals": draws * grid.npoints,
        "generators": generators,
    }


def _driver(command: str):
    """Make a driver body ``(cfg, grid, stream, out_dir, threads) -> (body,
    counts)`` into the command's ``cmd_*(cfg, out_dir=None, threads=1)``,
    which returns its ExperimentReport, and record that in ``COMMANDS``
    (see the module docstring).  ``cmd_*`` builds the body's grid and its
    stream, named after the command, and chooses the exit code: 2 when
    the body's ``passed`` is False, 4 on a numeric failure, else 0."""

    def decorate(run):
        def cmd(cfg: ExperimentConfig, out_dir=None, threads: int = 1) -> ExperimentReport:
            if threads < 1:
                raise ConfigError(f"threads must be at least 1, got {threads}")
            started = time.perf_counter()
            grid = cfg.build_grid()
            stream = RngStream(cfg.seed, purpose=command)
            timing = {}
            try:
                # a numeric failure leaves no counts
                body, timing["counts"] = run(cfg, grid, stream, out_dir, threads)
                exit_code = EXIT_CHECK_FAILED if body.get("passed") is False else EXIT_OK
            except WickOverflowError as e:
                body, exit_code = {"overflow_exponent": e.max_exponent}, EXIT_NUMERIC
            except DegenerateEnsembleError as e:
                body, exit_code = {"error": str(e)}, EXIT_NUMERIC
            report = ExperimentReport(command, cfg.as_dict(), body, timing, exit_code)
            report.timing["wall_s"] = time.perf_counter() - started
            if out_dir is not None:
                write_report(report, out_dir)
            return report

        # the body's name and help text; the signature stays cmd's own
        for attr in ("__name__", "__qualname__", "__doc__"):
            setattr(cmd, attr, getattr(run, attr))
        COMMANDS[command] = cmd
        return cmd

    return decorate


@_driver("sample-gff")
def cmd_sample_gff(cfg, grid, stream, out_dir, threads):
    """Draw free-field samples, check their negative-order Sobolev energy
    against the exact mode sum, and optionally dump the coefficients.

    Draws are made in blocks (``spectral.blocks``); each block's norms
    and constant modes are recorded and the block goes to the dump, then
    is dropped, so memory holds one block whatever ``samples`` is.  Every
    block is drawn into one pair of workspaces, allocated for the first
    block: a yielded block is a view that the next block overwrites, so
    its consumer must be done with it before pulling the next (as
    ``save_fields`` is).  ``threads`` is ignored."""
    s = -cfg.eps
    sq_norms = np.empty(cfg.samples)
    mode0 = np.empty(cfg.samples)
    ranges = blocks(cfg.samples, grid)
    M = grid.modes_per_dim
    white = np.empty((len(ranges[0]), M, M))
    spec = np.empty(white.shape, dtype=np.complex128)

    def draws():
        for rows in ranges:
            n = len(rows)
            block = gff_sample(grid, [stream.for_replica(i) for i in rows], white[:n], spec[:n])
            norms = sobolev_norms(block.coeffs, grid, (s,))[0].tolist()
            sq_norms[rows.start : rows.stop] = [x ** 2 for x in norms]
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

    # one forward FFT of each block's draws
    counts = _counts(grid, len(ranges), cfg.samples, cfg.samples, cfg.samples)
    return {
        "samples": cfg.samples,
        "modes_per_dim": grid.modes_per_dim,
        "sobolev_order": s,
        "mean_sq_norm": float(sq_norms.mean()),
        "theory_sq_norm": theory,
        "z": float(z),
        "mode0_mean": float(mode0.mean()),
        "mode0_var": float(mode0.var(ddof=1)) if len(mode0) > 1 else 0.0,
        "passed": bool(abs(z) <= 4.0),
    }, counts


@_driver("wick-converge")
def cmd_wick_converge(cfg, grid, stream, out_dir, threads):
    """Measure the cutoff-level convergence of the Wick exponential on
    common free-field draws: the negative-order Sobolev gap between
    consecutive levels must decrease at a positive dyadic rate, or vanish
    (every gap is exactly 0 at alpha = 0), and no rate is fitted then."""
    top = min(5, cfg.build_psi().max_level(grid), max(cfg.level, 2))
    if top < 2:
        raise ConfigError(f"need at least levels 1..2; grid M={grid.modes_per_dim} is too small")
    levels = list(range(1, top + 1))
    # built at wick.N even when fewer levels run, so a level the grid
    # cannot hold is a ConfigError here too
    beta = cfg.build_params(grid).beta
    params = [cfg.build_params(grid, n) for n in levels]

    def one(i: int):
        field = gff_sample(grid, stream.for_replica(i))
        w = to_coeffs(np.stack([wick_exp_values(field, p) for p in params]), grid)
        return sobolev_norms(w[1:], grid, (-beta,), minus=w[:-1])[0]

    gaps = np.array(list(_map_replicas(one, cfg.replicas, threads)))
    mean_gaps = gaps.mean(axis=0)
    pairs = levels[:-1]
    fitted = len(pairs) > 1 and bool(mean_gaps.all())
    slope = float(np.polyfit(pairs, np.log2(mean_gaps), 1)[0]) if fitted else 0.0
    rate = -slope
    decreasing = bool(np.all((np.diff(mean_gaps) < 0.0) | (mean_gaps[1:] == 0.0)))

    if out_dir is not None:
        rows = [
            (r, pairs[j], float(gaps[r, j]))
            for r in range(gaps.shape[0])
            for j in range(gaps.shape[1])
        ]
        write_csv(Path(out_dir) / "gaps.csv", ["replica", "level", "gap_hneg"], rows)
    # a replica: its draw's forward FFT, an inverse one per level and the
    # forward one of the level stack
    R, L = cfg.replicas, len(levels)
    counts = _counts(grid, R * (L + 2), R * (2 * L + 1), R, R)
    return {
        "levels": levels,
        "beta": beta,
        "replicas": cfg.replicas,
        "mean_gaps": [float(g) for g in mean_gaps],
        "dyadic_rate": rate,
        "decreasing": decreasing,
        "passed": decreasing and (rate >= 0.2 or not fitted),
    }, counts


@_driver("sqe")
def cmd_sqe(cfg, grid, stream, out_dir, threads):
    """Simulate the full equation across cutoff levels 1..wick.N under
    common noise per replica and tabulate norms and level gaps over time."""
    if cfg.level < 1:
        raise ConfigError(f"sqe needs wick.N >= 1, got {cfg.level}")
    configs = [cfg.build_sqe(grid, n) for n in range(1, cfg.level + 1)]
    levels = [c.params.level for c in configs]
    beta = configs[-1].params.beta
    times = time_grid(configs[0])

    def one(r: int):
        sub = stream.for_replica(r)
        # per level and time: L2 norm, H^-beta norm, H^-beta gap to level n-1
        l2, hneg = np.empty((2, len(levels), len(times)))
        gaps = np.full((len(levels), len(times)), np.nan)
        # no local keeps the initial datum: the flow drops it after its
        # first step
        flow = evolve_levels(gff_sample(grid, sub.child("init")), configs, sub)
        for j, stack in enumerate(flow):
            l2[:, j], hneg[:, j] = sobolev_norms(stack, grid, (0.0, -beta))
            # the level gaps, bit for bit the norms of stack[1:] - stack[:-1]
            # without forming that difference
            gaps[1:, j] = sobolev_norms(stack[1:], grid, (-beta,), minus=stack[:-1])[0]
        return l2, hneg, gaps

    sup_gaps = []

    def rows():
        for r, (l2, hneg, gaps) in enumerate(_map_replicas(one, cfg.replicas, threads)):
            sup_gaps.append({n: max(g) for n, g in zip(levels[1:], gaps[1:].tolist())})
            if out_dir is not None:
                for n, *columns in zip(levels, l2.tolist(), hneg.tolist(), gaps.tolist()):
                    yield from ((r, n, *row) for row in zip(times.tolist(), *columns))

    header = ["replica", "level", "t", "l2_norm", "hneg_norm", "gap_to_prev_level"]
    if out_dir is not None:
        write_csv(Path(out_dir) / "paths.csv", header, rows())
    else:
        for _ in rows():
            pass
    mean_sup_gaps = {n: float(np.mean([sg[n] for sg in sup_gaps])) for n in levels[1:]}
    # a replica: its datum's draw and generator, the OU chain's generator
    # and per step its draw and a transform pair per level
    R, L, n = cfg.replicas, len(levels), len(times) - 1
    ffts = R * (1 + n * (1 + 2 * L))
    counts = _counts(grid, ffts, ffts, 2 * R, R * (1 + n), R * n, R * n)
    return {
        "levels": levels,
        "beta": beta,
        "replicas": cfg.replicas,
        "steps": len(times) - 1,
        "mean_sup_gap_by_level": {str(k): v for k, v in mean_sup_gaps.items()},
    }, counts


@_driver("invariance")
def cmd_invariance(cfg, grid, stream, out_dir, threads):
    """Sample the level-N measure, evolve resampled draws through the
    projected dynamics, and z-test observable stationarity."""
    sqe_cfg = cfg.build_sqe(grid)
    params = sqe_cfg.params
    ensemble = sample_ensemble(grid, params, cfg.samples, stream.child("ensemble"), tilt=cfg.tilt)
    partition = estimate_partition(ensemble)
    obs = standard_observables(params, eps=cfg.eps)
    result = invariance_test(ensemble, sqe_cfg, obs, stream.child("evolve"), replicas=cfg.replicas)

    # an ensemble block: its draws' forward FFT and its weights' inverse
    # one; a replica block: its data's draw, per step the OU chain's draw
    # and a transform pair, and an inverse FFT for each of its two
    # observations; a generator per draw, per replica chain and for the
    # resampler
    S, R, n = cfg.samples, cfg.replicas, sqe_cfg.n_steps()
    replica_blocks = len(blocks(R, grid))
    ffts = 2 * len(blocks(S, grid)) + replica_blocks * (3 * n + 3)
    counts = _counts(grid, ffts, 2 * S + R * (3 * n + 3), S + 1 + 2 * R, S + R * (1 + n),
                     replica_blocks * n, R * n)
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
    }, counts


@_driver("norms-bench")
def cmd_norms_bench(cfg, grid, stream, out_dir, threads):
    """Compare dyadic-block and Sobolev norms on free-field draws."""
    orders = [-1.0, -0.5, -0.25]

    def one(i: int):
        f = gff_sample(grid, stream.for_replica(i))
        # the three Sobolev norms from one |coeff|^2
        norms = sobolev_norms(f.coeffs[None], grid, orders)[:, 0].tolist()
        return [besov_norm(f, s) / norm for s, norm in zip(orders, norms)]

    table = np.array(list(_map_replicas(one, cfg.replicas, threads))).T  # a row per order
    ratio_stats = {}
    ok = True
    for s, ratios in zip(orders, table):
        ratio_stats[f"{s:g}"] = {
            "min": float(ratios.min()),
            "max": float(ratios.max()),
            "mean": float(ratios.mean()),
        }
        ok = ok and bool(1.0 / 50.0 <= ratios.min() <= ratios.max() <= 50.0)

    # one draw a replica, transformed once
    R = cfg.replicas
    return {
        "replicas": cfg.replicas,
        "modes_per_dim": grid.modes_per_dim,
        "besov_over_sobolev": ratio_stats,
        "passed": ok,
    }, _counts(grid, R, R, R, R)
