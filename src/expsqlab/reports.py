"""Run artifacts: reports, CSV tables, binary coefficient dumps.

report.json carries two top-level sections.  ``body`` holds everything
determined by (command, config, seed) and is serialized with sorted keys
so that identical runs produce byte-identical body bytes; ``timing``
holds wall-clock measurements and environment notes and is allowed to
differ between runs.  ``body_digest`` is the sha256 of the body bytes,
recorded on the side for quick reproducibility checks.
"""

from __future__ import annotations

import csv
import hashlib
import json
import struct
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path

import numpy as np

from .spectral import SpectralField, make_grid

__all__ = [
    "ExperimentReport",
    "write_report",
    "write_csv",
    "save_fields",
    "load_fields",
    "DUMP_VERSION",
]


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if obj is None or isinstance(obj, str):
        return obj
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report body")


@dataclass
class ExperimentReport:
    command: str
    config: dict
    body: dict
    timing: dict = dataclass_field(default_factory=dict)
    exit_code: int = 0

    def body_bytes(self) -> bytes:
        payload = {
            "command": self.command,
            "config": _jsonable(self.config),
            "results": _jsonable(self.body),
            "exit_code": self.exit_code,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()

    def body_digest(self) -> str:
        return hashlib.sha256(self.body_bytes()).hexdigest()

    def to_json(self) -> str:
        doc = {
            "body": json.loads(self.body_bytes()),
            "body_digest": self.body_digest(),
            "timing": _jsonable(self.timing),
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def write_report(report: ExperimentReport, out_dir: str | Path) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "report.json"
    path.write_text(report.to_json())
    return path


def write_csv(path: str | Path, header: list, rows: list) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.12g}" if isinstance(v, float) else v for v in row])
    return path


# binary coefficient dump: magic, version, M, count, then count complex128
# arrays of shape (M, M) in C order, little endian, followed by a sha256
# of the payload for corruption detection
_MAGIC = b"EXSQFLD\x00"
DUMP_VERSION = 1
_HEADER = struct.Struct("<8sHII")


def save_fields(path: str | Path, fields: list) -> Path:
    if not fields:
        raise ValueError("nothing to save")
    grid = fields[0].grid
    if any(f.grid != grid for f in fields):
        raise ValueError("all fields must share one grid")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()
    with path.open("wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, DUMP_VERSION, grid.modes_per_dim, len(fields)))
        # one field at a time: the payload is never held in memory whole
        for f in fields:
            data = np.ascontiguousarray(f.coeffs.astype("<c16", copy=False)).tobytes()
            digest.update(data)
            fh.write(data)
        fh.write(digest.digest())
    return path


def load_fields(path: str | Path) -> list:
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size + 32:
        raise ValueError("truncated field dump")
    magic, version, m, count = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        raise ValueError("not a field dump (bad magic)")
    if version != DUMP_VERSION:
        raise ValueError(f"unsupported dump version {version} (expected {DUMP_VERSION})")
    payload = raw[_HEADER.size : -32]
    if hashlib.sha256(payload).digest() != raw[-32:]:
        raise ValueError("field dump failed its checksum")
    expected = count * m * m * 16
    if len(payload) != expected:
        raise ValueError("field dump payload size does not match its header")
    grid = make_grid(m)
    data = np.frombuffer(payload, dtype="<c16").reshape(count, m, m)
    return [SpectralField(grid, np.ascontiguousarray(data[i]).astype(np.complex128)) for i in range(count)]
