"""The value goldens under ``tests/golden/`` and their one comparer.

Each JSON file there holds measured quantities recorded before a change
that may move their last bits; a test compares what it measures now with
``value_drift``, so a drift names the field that moved.
"""

import json
import math
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def load_golden(name: str) -> dict:
    """The value golden ``tests/golden/<name>.json``."""
    return json.loads((GOLDEN_DIR / f"{name}.json").read_text())


def value_drift(got, want, path="body") -> list[str]:
    """Paths at which the JSON value ``got`` differs from ``want``:
    floats beyond a relative 1e-12, anything else at all."""
    if isinstance(want, float) and isinstance(got, float):
        if math.isclose(got, want, rel_tol=1e-12, abs_tol=0.0):
            return []
        return [f"{path}: {got!r} != {want!r}"]
    if isinstance(want, dict) and isinstance(got, dict):
        if got.keys() != want.keys():
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [d for k in sorted(want) for d in value_drift(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        return [
            d for i, (g, w) in enumerate(zip(got, want)) for d in value_drift(g, w, f"{path}[{i}]")
        ]
    if type(got) is not type(want) or got != want:
        return [f"{path}: {got!r} != {want!r}"]
    return []
