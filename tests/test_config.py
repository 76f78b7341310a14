"""Config parsing: happy path, comments, overrides, every error route."""

import math

import pytest

from expsqlab import ConfigError, ExperimentConfig, load_config, parse_config

GOOD = """
# a full file, every key present
grid.M = 32
sqe.T = 0.5
sqe.dt = 0.03125   # 1/32
wick.alpha = 1.5
wick.N = 1
wick.beta = 0.4
cutoff.kind = smooth
seed = 99
replicas = 3
samples = 111
tilt = none
eps = 0.25
"""


def test_parse_full_file():
    cfg = parse_config(GOOD)
    assert cfg.modes == 32
    assert cfg.horizon == 0.5
    assert cfg.dt == 0.03125
    assert cfg.alpha == 1.5
    assert cfg.level == 1
    assert cfg.beta == 0.4
    assert cfg.cutoff_kind == "smooth"
    assert cfg.seed == 99
    assert cfg.replicas == 3
    assert cfg.samples == 111
    assert cfg.tilt == "none"
    assert cfg.eps == 0.25


def test_defaults_and_empty_text():
    cfg = parse_config("\n# only a comment\n")
    assert cfg == ExperimentConfig()
    assert cfg.modes == 64 and cfg.tilt == "auto"


def test_overrides_win():
    cfg = parse_config(GOOD, overrides={"seed": 7, "samples": None, "replicas": 12})
    assert cfg.seed == 7
    assert cfg.samples == 111  # None override is "flag not given"
    assert cfg.replicas == 12


def test_unknown_key_lists_known():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("grid.modes = 64\n")
    with pytest.raises(ConfigError, match="grid.M"):
        parse_config("nonsense = 1\n")
    # the solvers have one scheme, the function called names the
    # equation, and no operator reads the profile's (theta, m): the keys
    # that set them are gone
    for key, value in (("sqe.scheme", "semi-implicit"), ("sqe.equation", "full"),
                       ("sqe.mollifier", "0.0"), ("cutoff.theta", "0.99"),
                       ("cutoff.decay", "4.0")):
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            parse_config(f"{key} = {value}\n")


def test_bad_syntax_and_values():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("just some words\n")
    with pytest.raises(ConfigError, match="bad value"):
        parse_config("grid.M = sixty-four\n")
    with pytest.raises(ConfigError, match="bad value"):
        parse_config("sqe.T = inf\n")


def test_range_validation():
    with pytest.raises(ConfigError):
        parse_config("replicas = 0\n")
    with pytest.raises(ConfigError):
        parse_config("samples = -3\n")
    with pytest.raises(ConfigError):
        parse_config("seed = -1\n")
    with pytest.raises(ConfigError):
        parse_config("eps = 0\n")
    # schema-level violations surface at parse time too
    with pytest.raises(ConfigError):
        parse_config("grid.M = 7\n")
    with pytest.raises(ConfigError):
        parse_config("wick.alpha = 4.0\n")  # above the charge ceiling
    with pytest.raises(ConfigError):
        parse_config("grid.M = 32\nwick.N = 3\n")  # level too high for M
    with pytest.raises(ConfigError):
        parse_config("sqe.dt = 0.3\n")  # does not divide T = 1 ... caught later
    with pytest.raises(ConfigError):
        parse_config("cutoff.kind = box\n")


def test_builders(grid32):
    cfg = parse_config("grid.M = 32\nwick.N = 2\nwick.alpha = 1.0\n")
    grid = cfg.build_grid()
    assert grid.modes_per_dim == 32
    params = cfg.build_params(grid)
    assert params.level == 2 and params.beta == 0.5
    sqe = cfg.build_sqe(grid=grid)
    assert sqe.dt == cfg.dt
    d = cfg.as_dict()
    assert d["modes"] == 32 and d["tilt"] == "auto"


def test_tilt_value():
    assert parse_config("tilt = auto\n").tilt == "auto"
    assert parse_config("tilt = none\n").tilt == "none"
    assert parse_config("tilt = -2.5\n").tilt == -2.5
    # one value, one config echo, however the number is written
    one = parse_config("tilt = 1\n")
    assert one.tilt == 1.0 and isinstance(one.tilt, float)
    assert one.as_dict() == parse_config("tilt = 1.0\n").as_dict()
    # checked at parse time, whether or not the command reads the tilt
    for bad in ("nan", "inf", "sideways"):
        with pytest.raises(ConfigError, match="line 2: bad value for tilt"):
            parse_config(f"seed = 1\ntilt = {bad}\n")


def test_beta_zero_means_default():
    cfg = parse_config("wick.beta = 0\nwick.alpha = 1.0\n")
    assert cfg.build_params().beta == 0.5
    near = parse_config("wick.beta = 0\nwick.alpha = 3.3\n")
    lo = 3.3**2 / (4.0 * math.pi)
    assert near.build_params().beta == pytest.approx(0.5 * (lo + 1.0))


def test_load_config(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("grid.M = 16\nwick.N = 0\nseed = 4\n")
    cfg = load_config(p)
    assert (cfg.modes, cfg.level, cfg.seed) == (16, 0, 4)
    assert load_config(None, {"seed": 8}).seed == 8
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "missing.cfg")
