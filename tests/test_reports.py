"""Report determinism, CSV formatting and the binary field dump."""

import json

import numpy as np
import pytest

from expsqlab import (
    ExperimentReport,
    gff_sample,
    load_fields,
    save_fields,
    write_csv,
    write_report,
    zero_field,
)
from expsqlab.reports import DUMP_VERSION, _HEADER, _MAGIC


def _report():
    return ExperimentReport(
        command="wick-converge",
        config={"seed": 3, "modes": 32},
        body={
            "mean_gaps": np.array([0.5, 0.25]),
            "rate": np.float64(1.0),
            "passed": np.bool_(True),
            "levels": (1, 2),
            "note": None,
        },
        timing={"wall_s": 0.123},
    )


def test_body_bytes_deterministic():
    a, b = _report(), _report()
    assert a.body_bytes() == b.body_bytes()
    assert a.body_digest() == b.body_digest()
    b.timing["wall_s"] = 9.9  # timing must not enter the digest
    assert a.body_digest() == b.body_digest()
    c = _report()
    c.body["rate"] = 2.0
    assert a.body_digest() != c.body_digest()


def test_json_types_survive():
    doc = json.loads(_report().to_json())
    results = doc["body"]["results"]
    assert results["passed"] is True  # not 1
    assert results["mean_gaps"] == [0.5, 0.25]
    assert results["levels"] == [1, 2]
    assert results["note"] is None
    assert doc["body"]["command"] == "wick-converge"
    assert doc["body_digest"] == _report().body_digest()
    assert doc["timing"]["wall_s"] == 0.123


def test_unserializable_body_rejected():
    r = _report()
    r.body["oops"] = object()
    with pytest.raises(TypeError):
        r.body_bytes()


def test_write_report(tmp_path):
    path = write_report(_report(), tmp_path / "out")
    assert path == tmp_path / "out" / "report.json"
    doc = json.loads(path.read_text())
    assert doc["body_digest"] == _report().body_digest()


def test_write_csv(tmp_path):
    path = write_csv(
        tmp_path / "t.csv",
        ["level", "gap"],
        [[1, 0.5], [2, 1.0 / 3.0]],
    )
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "level,gap"
    assert lines[1] == "1,0.5"
    assert lines[2] == "2,0.333333333333"  # %.12g


def test_field_dump_round_trip(tmp_path, grid32, stream):
    fields = [gff_sample(grid32, stream.for_replica(i)) for i in range(3)]
    path = save_fields(tmp_path / "f.bin", fields)
    back = load_fields(path)
    assert len(back) == 3
    for f, g in zip(fields, back):
        assert np.array_equal(f.coeffs, g.coeffs)
        assert g.grid.modes_per_dim == 32


def test_field_dump_validation(tmp_path, grid32, grid8):
    with pytest.raises(ValueError, match="nothing"):
        save_fields(tmp_path / "e.bin", [])
    with pytest.raises(ValueError, match="one grid"):
        save_fields(tmp_path / "m.bin", [zero_field(grid32), zero_field(grid8)])


def test_field_dump_corruption(tmp_path, grid32, stream):
    path = save_fields(tmp_path / "c.bin", [gff_sample(grid32, stream)])
    raw = bytearray(path.read_bytes())
    flipped = bytearray(raw)
    flipped[_HEADER.size + 5] ^= 0xFF
    bad = tmp_path / "bad.bin"
    bad.write_bytes(bytes(flipped))
    with pytest.raises(ValueError, match="checksum"):
        load_fields(bad)
    # wrong magic
    wrong = bytearray(raw)
    wrong[0] ^= 0xFF
    bad.write_bytes(bytes(wrong))
    with pytest.raises(ValueError, match="magic"):
        load_fields(bad)
    # wrong version
    versioned = bytearray(raw)
    versioned[8:10] = (DUMP_VERSION + 1).to_bytes(2, "little")
    bad.write_bytes(bytes(versioned))
    with pytest.raises(ValueError, match="version"):
        load_fields(bad)
    # truncation
    bad.write_bytes(bytes(raw[: _HEADER.size + 8]))
    with pytest.raises(ValueError, match="truncated"):
        load_fields(bad)
    assert raw[:8] == _MAGIC
