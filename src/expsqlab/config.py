"""Flat key = value experiment configuration.

Config files are plain text, one ``key = value`` per line, ``#`` starts a
comment.  Keys are dotted by concern:

    grid.M = 64            # modes per dimension (power of two, >= 8)
    sqe.T = 1.0            # time horizon
    sqe.dt = 0.015625      # step, must divide T
    wick.alpha = 1.0
    wick.N = 2
    wick.beta = 0          # 0 means the default choice
    cutoff.kind = sharp    # sharp | smooth
    seed = 0
    replicas = 8
    samples = 2000         # ensemble size for measure experiments
    tilt = auto            # auto | none | a finite float
    eps = 0.125            # negative Sobolev order used by observables

Unknown keys, unparsable values and violated ranges raise ConfigError,
which the command line maps to exit code 3.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

from .dynamics import SqeConfig
from .spectral import TorusGrid, make_grid
from .wick import CutoffProfile, WickParams, make_wick_params

__all__ = ["ConfigError", "ExperimentConfig", "parse_config", "load_config"]


class ConfigError(ValueError):
    """Bad configuration file or option; mapped to exit code 3."""


# The deleted keys sqe.scheme/equation/mollifier and cutoff.theta/decay at
# the values every body held: the benchmark's pinned body digests hash
# them, so the config echo keeps them until those digests are next
# re-recorded.
_RETIRED = {"scheme": "exponential-euler", "equation": "full", "mollifier": 0.0,
            "cutoff_theta": 0.99, "cutoff_decay": 4.0}


@dataclass(frozen=True)
class ExperimentConfig:
    modes: int = 64
    horizon: float = 1.0
    dt: float = 1.0 / 64.0
    alpha: float = 1.0
    level: int = 2
    beta: float = 0.0
    cutoff_kind: str = "sharp"
    seed: int = 0
    replicas: int = 8
    samples: int = 2000
    tilt: float | str = "auto"
    eps: float = 0.125

    def build_grid(self) -> TorusGrid:
        try:
            return make_grid(self.modes)
        except ValueError as e:
            raise ConfigError(str(e)) from e

    def build_psi(self) -> CutoffProfile:
        try:
            return CutoffProfile(self.cutoff_kind)
        except ValueError as e:
            raise ConfigError(str(e)) from e

    def build_params(self, grid: TorusGrid | None = None, level: int | None = None) -> WickParams:
        """Wick parameters at cutoff ``level`` (default wick.N) on ``grid``
        (default the configured one); a level the grid cannot hold raises
        ConfigError."""
        grid = grid or self.build_grid()
        try:
            return make_wick_params(
                self.alpha, self.level if level is None else level, self.build_psi(), grid,
                beta=self.beta if self.beta > 0 else None,
            )
        except ValueError as e:
            raise ConfigError(str(e)) from e

    def build_sqe(self, grid: TorusGrid | None = None, level: int | None = None) -> SqeConfig:
        """Solver config at cutoff ``level`` (default wick.N): the configured
        horizon and step with ``build_params(grid, level)``."""
        grid = grid or self.build_grid()
        try:
            return SqeConfig(
                horizon=self.horizon,
                dt=self.dt,
                params=self.build_params(grid, level),
                psi=self.build_psi(),
            )
        except ValueError as e:
            raise ConfigError(str(e)) from e

    def as_dict(self) -> dict:
        return {**dataclasses.asdict(self), **_RETIRED}


# key -> (attribute, converter)
def _to_int(v: str) -> int:
    return int(v, 0)


def _to_float(v: str) -> float:
    x = float(v)
    if not math.isfinite(x):
        raise ValueError("must be finite")
    return x


def _to_tilt(v: str) -> float | str:
    if v in ("auto", "none"):
        return v
    try:
        return _to_float(v)
    except ValueError as e:
        raise ValueError("must be 'auto', 'none' or a finite number") from e


_SCHEMA = {
    "grid.M": ("modes", _to_int),
    "sqe.T": ("horizon", _to_float),
    "sqe.dt": ("dt", _to_float),
    "wick.alpha": ("alpha", _to_float),
    "wick.N": ("level", _to_int),
    "wick.beta": ("beta", _to_float),
    "cutoff.kind": ("cutoff_kind", str),
    "seed": ("seed", _to_int),
    "replicas": ("replicas", _to_int),
    "samples": ("samples", _to_int),
    "tilt": ("tilt", _to_tilt),
    "eps": ("eps", _to_float),
}


def parse_config(text: str, overrides: dict | None = None) -> ExperimentConfig:
    """Parse key = value text into an ExperimentConfig; ``overrides`` maps
    attribute names to already-typed values (command-line flags)."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _SCHEMA:
            known = ", ".join(sorted(_SCHEMA))
            raise ConfigError(f"line {lineno}: unknown key {key!r} (known: {known})")
        attr, conv = _SCHEMA[key]
        try:
            values[attr] = conv(val)
        except ValueError as e:
            raise ConfigError(f"line {lineno}: bad value for {key}: {val!r} ({e})") from e
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})
    cfg = ExperimentConfig(**values)
    _validate(cfg)
    return cfg


def load_config(path: str | Path | None, overrides: dict | None = None) -> ExperimentConfig:
    if path is None:
        return parse_config("", overrides)
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    return parse_config(p.read_text(), overrides)


def _validate(cfg: ExperimentConfig):
    if cfg.replicas < 1:
        raise ConfigError("replicas must be positive")
    if cfg.samples < 1:
        raise ConfigError("samples must be positive")
    if not (0 <= cfg.seed < 2**64):
        raise ConfigError("seed must fit in 64 bits")
    if cfg.eps <= 0:
        raise ConfigError("eps must be positive")
    # construct everything once so schema-level errors surface as exit 3
    try:
        cfg.build_sqe().n_steps()
    except ValueError as e:
        raise ConfigError(str(e)) from e
