"""Experiment drivers and the command line: determinism, artifacts, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import expsqlab
from expsqlab import (
    ConfigError,
    ExperimentConfig,
    cmd_invariance,
    cmd_norms_bench,
    cmd_sample_gff,
    cmd_sqe,
    cmd_wick_converge,
    load_fields,
)
from expsqlab.cli import main

TINY = dict(modes=16, level=1, seed=31, replicas=4, samples=60)

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("given", [None, "2"])
def test_import_sets_one_blas_thread_unless_given(given):
    # sobolev_norms sums with np.dot, whose summation order follows the
    # BLAS thread count, so a report digest would depend on the host: the
    # package sets one thread before numpy loads, and a count already in
    # the environment wins
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    if given is not None:
        env.update(dict.fromkeys(BLAS_THREAD_VARS, given))
    src = str(Path(expsqlab.__file__).parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = f"import expsqlab, os; print(*(os.environ[k] for k in {BLAS_THREAD_VARS}))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == [given or "1"] * 3


def test_sample_gff_report_and_artifacts(tmp_path):
    cfg = ExperimentConfig(**TINY)
    report = cmd_sample_gff(cfg, out_dir=tmp_path)
    assert report.exit_code == 0
    assert report.body["passed"] is True
    assert abs(report.body["z"]) <= 4.0
    assert report.body["mean_sq_norm"] == pytest.approx(
        report.body["theory_sq_norm"], rel=0.5
    )
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["body_digest"] == report.body_digest()
    assert "wall_s" in doc["timing"]
    fields = load_fields(tmp_path / "samples.bin")
    assert len(fields) == cfg.samples


def test_reports_are_deterministic(tmp_path):
    cfg = ExperimentConfig(**TINY)
    a = cmd_sample_gff(cfg, out_dir=None)
    b = cmd_sample_gff(cfg, out_dir=tmp_path)
    assert a.body_bytes() == b.body_bytes()
    c = cmd_sample_gff(ExperimentConfig(**{**TINY, "seed": 32}))
    assert a.body_bytes() != c.body_bytes()


def test_threads_do_not_change_results(tmp_path):
    cfg = ExperimentConfig(modes=32, level=2, seed=31, replicas=4, samples=10)
    for cmd in (cmd_wick_converge, cmd_norms_bench):
        seq = cmd(cfg, threads=1)
        par = cmd(cfg, threads=3)
        assert seq.body_bytes() == par.body_bytes()
    # sqe writes paths.csv a replica at a time, in replica order
    cfg = ExperimentConfig(modes=32, level=2, seed=31, replicas=4, horizon=1 / 16, dt=1 / 64)
    seq = cmd_sqe(cfg, out_dir=tmp_path / "seq", threads=1)
    par = cmd_sqe(cfg, out_dir=tmp_path / "par", threads=3)
    assert seq.body_bytes() == par.body_bytes()
    paths = [(tmp_path / run / "paths.csv").read_bytes() for run in ("seq", "par")]
    assert paths[0] == paths[1]


def test_wick_converge_tiny(tmp_path):
    cfg = ExperimentConfig(modes=64, level=3, seed=5, replicas=6, samples=10)
    report = cmd_wick_converge(cfg, out_dir=tmp_path)
    assert report.exit_code == 0
    body = report.body
    assert body["levels"] == [1, 2, 3]
    assert len(body["mean_gaps"]) == 2
    # a Python bool, which the driver's exit rule reads with ``is``
    assert body["decreasing"] is True and body["passed"] is True
    assert body["dyadic_rate"] > 0.2
    lines = (tmp_path / "gaps.csv").read_text().strip().splitlines()
    assert lines[0] == "replica,level,gap_hneg"
    assert len(lines) == 1 + 6 * 2


def test_wick_converge_passes_on_vanishing_gaps():
    # at alpha = 0 the Wick exponential is 1 at every level, so every gap
    # is exactly 0: converged, with no rate fitted through log2(0) (whose
    # warning would fail the suite) and no NaN in the body
    cfg = ExperimentConfig(modes=128, level=4, seed=5, replicas=2, alpha=0.0)
    report = cmd_wick_converge(cfg)
    assert report.exit_code == 0
    body = report.body
    assert body["levels"] == [1, 2, 3, 4]
    assert body["mean_gaps"] == [0.0, 0.0, 0.0]
    assert body["decreasing"] is True and body["passed"] is True
    assert body["dyadic_rate"] == 0.0
    assert b"NaN" not in report.body_bytes()


def test_sqe_tiny(tmp_path):
    cfg = ExperimentConfig(
        modes=32, level=2, seed=6, replicas=3, horizon=0.25, dt=1.0 / 32
    )
    report = cmd_sqe(cfg, out_dir=tmp_path)
    assert report.exit_code == 0
    assert report.body["levels"] == [1, 2]
    assert report.body["steps"] == 8
    gap = report.body["mean_sup_gap_by_level"]["2"]
    assert np.isfinite(gap) and gap > 0
    lines = (tmp_path / "paths.csv").read_text().strip().splitlines()
    assert lines[0] == "replica,level,t,l2_norm,hneg_norm,gap_to_prev_level"
    assert len(lines) == 1 + 3 * 2 * 9


def test_invariance_tiny(tmp_path):
    cfg = ExperimentConfig(
        modes=16, level=1, seed=8, replicas=60, samples=800,
        horizon=0.25, dt=1.0 / 32,
    )
    report = cmd_invariance(cfg, out_dir=tmp_path)
    # statistical in principle, deterministic at this pinned seed
    assert report.exit_code == 0
    body = report.body
    assert body["ess"] > 400
    assert body["tilt_mean"] < 0
    assert set(body["observables"]) == {
        "hneg_norm", "hneg_norm_sq", "mode0", "mode0_sq", "wick_mean"
    }
    assert body["max_abs_z"] <= 3.0 and body["passed"] is True
    lines = (tmp_path / "observables.csv").read_text().strip().splitlines()
    assert len(lines) == 6


def test_invariance_degenerate_ensemble_exit4(tmp_path):
    # plain free-field proposal at this size cannot reach ESS 50
    cfg = ExperimentConfig(
        modes=16, level=1, seed=9, replicas=60, samples=80, tilt="none",
        horizon=0.25, dt=1.0 / 32,
    )
    report = cmd_invariance(cfg, out_dir=tmp_path)
    assert report.exit_code == 4
    assert "ESS" in report.body["error"]


def test_norms_bench_tiny(tmp_path):
    cfg = ExperimentConfig(**TINY)
    report = cmd_norms_bench(cfg, out_dir=tmp_path)
    assert report.exit_code == 0 and report.body["passed"] is True
    stats = report.body["besov_over_sobolev"]
    assert set(stats) == {"-1", "-0.5", "-0.25"}
    for s in stats.values():
        assert 0.02 <= s["min"] <= s["max"] <= 50.0


def test_cli_main_ok(tmp_path, capsys):
    rc = main([
        "sample-gff", "--seed", "3", "--samples", "40",
        "--out-dir", str(tmp_path / "run"),
        "--config", _write_cfg(tmp_path, "grid.M = 16\nwick.N = 1\n"),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "sample-gff: ok" in out
    assert (tmp_path / "run" / "report.json").is_file()


def test_cli_check_failed_exit2(tmp_path, capsys):
    # a real config whose verdict fails: at M = 64 and N = 3 six replicas
    # fit a dyadic rate of about 0.159, under the 0.2 bound.  ROADMAP
    # item 13a will move this verdict, and this case with it.
    run = tmp_path / "run"
    rc = main([
        "wick-converge", "--out-dir", str(run),
        "--config", _write_cfg(tmp_path, "grid.M = 64\nwick.N = 3\nseed = 0\nreplicas = 6\n"),
    ])
    assert rc == 2
    assert f"wick-converge: CHECK FAILED (exit 2, report in {run / 'report.json'})" in (
        capsys.readouterr().out
    )
    doc = json.loads((run / "report.json").read_text())
    assert doc["body"]["exit_code"] == 2
    results = doc["body"]["results"]
    assert results["passed"] is False
    assert results["decreasing"] is True
    assert 0.15 < results["dyadic_rate"] < 0.2


def test_cli_flag_overrides(tmp_path):
    rc = main([
        "sample-gff", "--samples", "25", "--seed", "11",
        "--out-dir", str(tmp_path),
        "--config", _write_cfg(tmp_path, "grid.M = 16\nwick.N = 1\nsamples = 999\n"),
    ])
    assert rc == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["body"]["results"]["samples"] == 25
    assert doc["body"]["config"]["seed"] == 11


def test_cli_config_error(tmp_path, capsys):
    rc = main([
        "sqe", "--out-dir", str(tmp_path),
        "--config", _write_cfg(tmp_path, "grid.M = 12\n"),
    ])
    assert rc == 3
    assert "configuration error" in capsys.readouterr().err
    rc = main(["sqe", "--config", str(tmp_path / "nope.cfg"), "--out-dir", str(tmp_path)])
    assert rc == 3
    # sqe steps the cutoff levels 1..N, so it refuses N = 0 before any run
    with pytest.raises(ConfigError, match="sqe needs wick.N >= 1"):
        cmd_sqe(ExperimentConfig(**{**TINY, "level": 0}))
    rc = main([
        "sqe", "--out-dir", str(tmp_path / "n0"),
        "--config", _write_cfg(tmp_path, "grid.M = 16\nwick.N = 0\n"),
    ])
    assert rc == 3
    assert "sqe needs wick.N >= 1" in capsys.readouterr().err
    assert not (tmp_path / "n0" / "report.json").exists()


def test_cli_undecodable_config_is_a_config_error(tmp_path, capsys):
    # a UTF-16 byte-order mark is not UTF-8: exit 3 with a message, no
    # traceback and no report
    cfg = tmp_path / "utf16.cfg"
    cfg.write_bytes("grid.M = 16\n".encode("utf-16"))
    assert cfg.read_bytes().startswith(b"\xff\xfe")
    rc = main(["sqe", "--config", str(cfg), "--out-dir", str(tmp_path / "run")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "configuration error: cannot read config file" in err
    assert "Traceback" not in err
    assert not (tmp_path / "run" / "report.json").exists()


def test_cli_bad_tilt_is_a_config_error(tmp_path, capsys):
    # sqe never reads the tilt; it is still checked before any run
    rc = main([
        "sqe", "--out-dir", str(tmp_path / "run"),
        "--config", _write_cfg(tmp_path, "grid.M = 16\nwick.N = 1\ntilt = sideways\n"),
    ])
    assert rc == 3
    assert "tilt" in capsys.readouterr().err
    assert not (tmp_path / "run" / "report.json").exists()


def test_cli_threads_below_one_is_a_config_error(tmp_path, capsys):
    for threads in ("0", "-2"):
        run = tmp_path / f"run{threads}"
        rc = main([
            "sample-gff", "--threads", threads, "--out-dir", str(run),
            "--config", _write_cfg(tmp_path, "grid.M = 16\nwick.N = 1\nsamples = 4\n"),
        ])
        assert rc == 3
        assert "configuration error: threads must be at least 1" in capsys.readouterr().err
        assert not (run / "report.json").exists()


def test_cli_unknown_command(tmp_path, capsys):
    # argparse's own code 2 would read as a failed check: a malformed
    # command line is a bad configuration, with argparse's message and
    # no report
    run = tmp_path / "run"
    for argv in (
        ["frobnicate"],
        [],
        ["sqe", "--threads", "x", "--out-dir", str(run)],
        ["sqe", "--out-dir", str(run), "--frobnicate"],
    ):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 3, argv
        assert "error:" in capsys.readouterr().err
    assert not run.exists()


def test_cli_help_exits_0(capsys):
    with pytest.raises(SystemExit) as info:
        main(["sqe", "--help"])
    assert info.value.code == 0
    assert "--threads" in capsys.readouterr().out


# configurations that parse but sit at the edges of their ranges, each
# with the commands that read the keys it sets, on a small base run
EDGE_BASE = {"grid.M": "16", "wick.N": "1", "samples": "64", "replicas": "4"}
EDGE_CASES = {
    # every weight underflows, so the partition estimate is 0
    "tilt-1e20": ({"wick.alpha": "-1", "tilt": "1e20"}, ["invariance"]),
    # m * u0 overflows, so the log-weights are -inf
    "tilt-1.4e154": ({"wick.alpha": "-1", "tilt": "1.4e154"}, ["invariance"]),
    "tilt-1e100": ({"wick.alpha": "-1", "tilt": "1e100"}, ["invariance"]),
    "tilt--1e100": ({"wick.alpha": "-1", "tilt": "-1e100"}, ["invariance"]),
    "alpha-3.5": ({"wick.alpha": "3.5"}, ["wick-converge", "sqe", "invariance"]),
    "alpha--3.5": ({"wick.alpha": "-3.5"}, ["wick-converge", "sqe", "invariance"]),
    "eps-1e-300": ({"eps": "1e-300"}, ["sample-gff", "invariance"]),
    "eps-1e300": ({"eps": "1e300"}, ["sample-gff", "invariance"]),
    "one-of-each": (
        {"samples": "1", "replicas": "1"},
        ["sample-gff", "wick-converge", "sqe", "invariance", "norms-bench"],
    ),
    "step-1e-9": ({"sqe.T": "1e-9", "sqe.dt": "1e-9"}, ["sqe", "invariance"]),
}


@pytest.mark.parametrize(
    "case, command",
    [(case, command) for case, (_, commands) in EDGE_CASES.items() for command in commands],
)
def test_cli_edge_configs_never_crash(tmp_path, case, command):
    # a configuration that parses runs to a report (exit 0, 2 or 4) or
    # is refused as a configuration error (exit 3, no report); it never
    # ends in a traceback
    keys = {**EDGE_BASE, **EDGE_CASES[case][0]}
    text = "".join(f"{k} = {v}\n" for k, v in keys.items())
    run = tmp_path / "run"
    rc = main([command, "--out-dir", str(run), "--config", _write_cfg(tmp_path, text)])
    assert rc in (0, 2, 3, 4)
    assert (run / "report.json").is_file() == (rc != 3)


def _write_cfg(tmp_path, text):
    p = tmp_path / "test.cfg"
    p.write_text(text)
    return str(p)
