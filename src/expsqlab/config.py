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

Unknown keys, a key given twice, unparsable values and violated ranges
raise ConfigError, which the command line maps to exit code 3.
Command-line flags override the file's keys; an override that names no
field is a ConfigError too.

One table, ``_SCHEMA``, holds each key's rule: the field it sets, the
field's type and its range.  A file's text and a value given in code
pass through the same rule, so ``ExperimentConfig`` holds what parsing
would: an integer field takes an int (``int(text, 0)`` from a file) and
refuses a ``bool`` or a float, a float field holds ``float(x)``, which
must be finite, ``tilt`` is ``auto``, ``none`` or such a float,
``replicas`` and ``samples`` are at least 1, ``seed`` fits in 64 bits
and ``eps`` is positive.  So ``horizon=1`` and ``horizon = 1.0`` are one
config with one echo.  Parsing also builds the grid and solver once, so
a grid, a step that does not divide the horizon or a level they cannot
hold fails there; a config built in code meets that when its command
builds them, before any draw.  Each ``build_*`` method raises what its
constructor refuses (a ValueError) as a ConfigError through one helper,
``_built``.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from dataclasses import dataclass
from pathlib import Path

from .dynamics import SqeConfig
from .spectral import TorusGrid
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

    def __post_init__(self):
        for key, (name, *_) in _SCHEMA.items():
            object.__setattr__(self, name, _typed(key, getattr(self, name)))

    def build_grid(self) -> TorusGrid:
        return _built(TorusGrid, self.modes)

    def build_psi(self) -> CutoffProfile:
        return _built(CutoffProfile, self.cutoff_kind)

    def build_params(self, grid: TorusGrid | None = None, level: int | None = None) -> WickParams:
        """Wick parameters at cutoff ``level`` (default wick.N) on ``grid``
        (default the configured one); a level the grid cannot hold raises
        ConfigError."""
        grid = grid or self.build_grid()
        return _built(
            make_wick_params,
            self.alpha, self.level if level is None else level, self.build_psi(), grid,
            beta=self.beta if self.beta > 0 else None,
        )

    def build_sqe(self, grid: TorusGrid | None = None, level: int | None = None) -> SqeConfig:
        """Solver config at cutoff ``level`` (default wick.N): the configured
        horizon and step with ``build_params(grid, level)``."""
        grid = grid or self.build_grid()
        return _built(
            SqeConfig, horizon=self.horizon, dt=self.dt, params=self.build_params(grid, level)
        )

    def as_dict(self) -> dict:
        return {**dataclasses.asdict(self), **_RETIRED}


# file key -> (field, type, range check, what the check asks)
_SCHEMA = {
    "grid.M": ("modes", int, None, None),
    "sqe.T": ("horizon", float, None, None),
    "sqe.dt": ("dt", float, None, None),
    "wick.alpha": ("alpha", float, None, None),
    "wick.N": ("level", int, None, None),
    "wick.beta": ("beta", float, None, None),
    "cutoff.kind": ("cutoff_kind", str, None, None),
    "seed": ("seed", int, lambda n: 0 <= n < 2**64, "must fit in 64 bits"),
    "replicas": ("replicas", int, lambda n: n >= 1, "must be positive"),
    "samples": ("samples", int, lambda n: n >= 1, "must be positive"),
    "tilt": ("tilt", "tilt", None, None),
    "eps": ("eps", float, lambda x: x > 0, "must be positive"),
}
# type -> what a value of it must be
_MUST_BE = {int: "an integer", float: "finite", str: "a string",
            "tilt": "'auto', 'none' or a finite number"}


def _typed(key: str, value):
    """The value that ``key``'s field holds for ``value``, which is the
    key's text in a config file or a value given in code; raises
    ConfigError naming the field and the rule it breaks."""
    name, kind, in_range, asks = _SCHEMA[key]
    if kind == "tilt" and value in ("auto", "none"):
        return value
    try:
        if isinstance(value, bool) or (kind is str and not isinstance(value, str)):
            raise TypeError(value)
        if kind is int:
            value = int(value, 0) if isinstance(value, str) else operator.index(value)
        elif kind is not str:
            value = float(value)
            if not math.isfinite(value):
                raise ValueError(value)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{name} must be {_MUST_BE[kind]}") from e
    if in_range and not in_range(value):
        raise ConfigError(f"{name} {asks}")
    return value


def parse_config(text: str, overrides: dict | None = None) -> ExperimentConfig:
    """Parse key = value text into an ExperimentConfig; ``overrides`` maps
    attribute names to already-typed values (command-line flags)."""
    values: dict = {}
    seen: dict = {}  # key -> line it was first given on
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
        if key in seen:
            raise ConfigError(
                f"line {lineno}: key {key!r} given twice (lines {seen[key]} and {lineno})"
            )
        seen[key] = lineno
        try:
            values[_SCHEMA[key][0]] = _typed(key, val)
        except ConfigError as e:
            raise ConfigError(f"line {lineno}: bad value for {key}: {val!r} ({e})") from e
    fields = sorted(name for name, *_ in _SCHEMA.values())
    for name, value in (overrides or {}).items():
        if name not in fields:
            raise ConfigError(f"unknown override {name!r} (known: {', '.join(fields)})")
        if value is not None:
            values[name] = value
    cfg = ExperimentConfig(**values)
    _validate(cfg)
    return cfg


def load_config(path: str | Path | None, overrides: dict | None = None) -> ExperimentConfig:
    if path is None:
        return parse_config("", overrides)
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        text = p.read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config file {p}: {e}") from e
    return parse_config(text, overrides)


def _built(build, *args, **kw):
    """``build(*args, **kw)``, its ValueError raised as a ConfigError."""
    try:
        return build(*args, **kw)
    except ValueError as e:
        raise ConfigError(str(e)) from e


def _validate(cfg: ExperimentConfig):
    # construct everything once so schema-level errors surface as exit 3
    cfg.build_sqe()
