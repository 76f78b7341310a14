"""Experiment drivers and the command line: determinism, artifacts, exit codes."""

import json

import numpy as np
import pytest

from expsqlab import (
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


def test_threads_do_not_change_results():
    cfg = ExperimentConfig(modes=32, level=2, seed=31, replicas=4, samples=10)
    seq = cmd_wick_converge(cfg, threads=1)
    par = cmd_wick_converge(cfg, threads=3)
    assert seq.body_bytes() == par.body_bytes()


def test_wick_converge_tiny(tmp_path):
    cfg = ExperimentConfig(modes=64, level=3, seed=5, replicas=6, samples=10)
    report = cmd_wick_converge(cfg, out_dir=tmp_path)
    assert report.exit_code == 0
    body = report.body
    assert body["levels"] == [1, 2, 3]
    assert len(body["mean_gaps"]) == 2
    assert body["decreasing"] is True
    assert body["dyadic_rate"] > 0.2
    lines = (tmp_path / "gaps.csv").read_text().strip().splitlines()
    assert lines[0] == "replica,level,gap_hneg"
    assert len(lines) == 1 + 6 * 2


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
    assert body["max_abs_z"] <= 3.0
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
    assert report.exit_code == 0
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


def test_cli_bad_tilt_is_a_config_error(tmp_path, capsys):
    # sqe never reads the tilt; it is still checked before any run
    rc = main([
        "sqe", "--out-dir", str(tmp_path / "run"),
        "--config", _write_cfg(tmp_path, "grid.M = 16\nwick.N = 1\ntilt = sideways\n"),
    ])
    assert rc == 3
    assert "tilt" in capsys.readouterr().err
    assert not (tmp_path / "run" / "report.json").exists()


def test_cli_unknown_command():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def _write_cfg(tmp_path, text):
    p = tmp_path / "test.cfg"
    p.write_text(text)
    return str(p)
