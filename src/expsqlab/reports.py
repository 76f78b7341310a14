"""Run artifacts: reports, CSV tables, binary coefficient dumps.

report.json carries two top-level sections.  ``body`` holds everything
determined by (command, config, seed) and is serialized with sorted keys
so that identical runs produce byte-identical body bytes; ``timing``
holds wall-clock measurements, environment notes and the run's work
counts and is allowed to differ between runs.  ``body_digest`` is the
sha256 of the body bytes, recorded on the side for quick
reproducibility checks.

The body bytes and the whole document are each one ``json.dumps`` of
one payload (``ExperimentReport._payload``) with one ``default`` hook,
``_numpy_value``.  json itself walks dicts, lists and tuples and writes
Python scalars (``np.float64``, a float subclass, with float's repr);
the hook turns a numpy array or scalar into its ``tolist()`` value and
raises TypeError naming any other type.  Dict keys must be strings, as
every body's are.

``save_fields`` is the one writer of the binary coefficient dump; it
consumes fields or stacks of fields one item at a time, so a driver can
stream its draws into it block by block.  ``load_fields`` reads it back
with one read into a single array, so neither side holds a payload twice.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import struct
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path

import numpy as np

from .spectral import SpectralField, TorusGrid

__all__ = [
    "ExperimentReport",
    "write_report",
    "write_csv",
    "save_fields",
    "load_fields",
    "DUMP_VERSION",
]


def _numpy_value(obj):
    """json's ``default`` hook: a numpy array or scalar as its ``tolist()``."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


@dataclass
class ExperimentReport:
    command: str
    config: dict
    body: dict
    timing: dict = dataclass_field(default_factory=dict)
    exit_code: int = 0

    def _payload(self) -> dict:
        return {
            "command": self.command,
            "config": self.config,
            "results": self.body,
            "exit_code": self.exit_code,
        }

    def body_bytes(self) -> bytes:
        return json.dumps(
            self._payload(), sort_keys=True, separators=(",", ":"), default=_numpy_value
        ).encode()

    def body_digest(self) -> str:
        return hashlib.sha256(self.body_bytes()).hexdigest()

    def to_json(self) -> str:
        doc = {"body": self._payload(), "body_digest": self.body_digest(), "timing": self.timing}
        return json.dumps(doc, sort_keys=True, indent=2, default=_numpy_value) + "\n"


def write_report(report: ExperimentReport, out_dir: str | Path) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "report.json"
    path.write_text(report.to_json())
    return path


def write_csv(path: str | Path, header: list, rows) -> Path:
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


def save_fields(path: str | Path, fields) -> Path:
    """Write a field dump, the package's one dump writer.

    ``fields`` is any iterable of fields or stacks of fields on one grid,
    a generator included: items are written one at a time and may be
    dropped by the caller once written, so the payload is never held in
    memory whole.  The header's count is filled in after the payload.
    A failed write removes the file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()
    grid = None
    count = 0
    try:
        with path.open("wb") as fh:
            for f in fields:
                if grid is None:
                    grid = f.grid
                    fh.write(_HEADER.pack(_MAGIC, DUMP_VERSION, grid.modes_per_dim, 0))
                elif f.grid != grid:
                    raise ValueError("all fields must share one grid")
                data = np.ascontiguousarray(f.coeffs, dtype="<c16")
                digest.update(data)
                fh.write(data)
                count += 1 if data.ndim == 2 else len(data)
            if grid is None:
                raise ValueError("nothing to save")
            fh.write(digest.digest())
            fh.seek(0)
            fh.write(_HEADER.pack(_MAGIC, DUMP_VERSION, grid.modes_per_dim, count))
    except BaseException:
        path.unlink(missing_ok=True)
        raise
    return path


def load_fields(path: str | Path) -> list:
    """Read a dump written by ``save_fields`` into a list of fields.

    The payload is read with one ``readinto`` into one byte array and
    hashed with one call, and the fields are read-only views of its rows
    as (count, M, M) complex128, so memory peaks at about one payload.
    """
    path = Path(path)
    with path.open("rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < _HEADER.size + 32:
            raise ValueError("truncated field dump")
        magic, version, m, count = _HEADER.unpack(fh.read(_HEADER.size))
        if magic != _MAGIC:
            raise ValueError("not a field dump (bad magic)")
        if version != DUMP_VERSION:
            raise ValueError(f"unsupported dump version {version} (expected {DUMP_VERSION})")
        # a payload that disagrees with its header is still hashed first,
        # so a corrupt one reports its checksum
        buf = np.empty(size - _HEADER.size - 32, dtype=np.uint8)
        if fh.readinto(buf) != buf.size:
            raise ValueError("truncated field dump")
        if hashlib.sha256(buf).digest() != fh.read(32):
            raise ValueError("field dump failed its checksum")
    if buf.size != count * m * m * 16:
        raise ValueError("field dump payload size does not match its header")
    grid = TorusGrid(m)
    data = buf.view("<c16").reshape(count, m, m).astype(np.complex128, copy=False)
    return [SpectralField(grid, row) for row in data]
