"""Report determinism, CSV formatting and the binary field dump."""

import json
import tracemalloc

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
from expsqlab.spectral import BLOCK_BYTES, SpectralField
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
            "replicas": np.int64(4),
            "beta": np.float32(0.1),
            "blocks": ((1, (2.5, 3)), ()),
        },
        timing={"wall_s": 0.123, "counts": {"steps": np.int64(7)}},
    )


# _report().to_json(), byte for byte: keys sorted at every depth, two-space
# indent, tuples as lists, numpy scalars as the Python values of their
# ``tolist()`` (a float32 widened, not rounded to its shortest repr)
DOCUMENT = """\
{
  "body": {
    "command": "wick-converge",
    "config": {
      "modes": 32,
      "seed": 3
    },
    "exit_code": 0,
    "results": {
      "beta": 0.10000000149011612,
      "blocks": [
        [
          1,
          [
            2.5,
            3
          ]
        ],
        []
      ],
      "levels": [
        1,
        2
      ],
      "mean_gaps": [
        0.5,
        0.25
      ],
      "note": null,
      "passed": true,
      "rate": 1.0,
      "replicas": 4
    }
  },
  "body_digest": "25271b8bc773ba9a78ffa6f80a8e29235258a0c640ce1ee9156645f549ef6721",
  "timing": {
    "counts": {
      "steps": 7
    },
    "wall_s": 0.123
  }
}
"""


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


def test_report_document_is_pinned():
    assert _report().to_json() == DOCUMENT
    compact = json.dumps(json.loads(DOCUMENT)["body"], sort_keys=True, separators=(",", ":"))
    assert _report().body_bytes() == compact.encode()


def test_unserializable_body_rejected():
    r = _report()
    r.body["oops"] = object()
    with pytest.raises(TypeError, match="cannot serialize object"):
        r.body_bytes()
    # a numpy value json cannot hold is named by the type it turns into
    r.body["oops"] = np.complex128(1j)
    with pytest.raises(TypeError, match="cannot serialize complex"):
        r.body_bytes()
    r = _report()
    r.timing["oops"] = {1.5}
    with pytest.raises(TypeError, match="cannot serialize set"):
        r.to_json()


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


def test_field_dump_streams_reused_buffer(tmp_path, grid32, stream):
    # save_fields writes each item before pulling the next, so a
    # generator may yield views of one buffer it refills every time
    stacks = [gff_sample(grid32, [stream.for_replica(i) for i in rows])
              for rows in (range(0, 4), range(4, 8), range(8, 10))]
    buffer = np.empty((4, 32, 32), dtype=np.complex128)

    def reused():
        for stack in stacks:
            view = buffer[: len(stack.coeffs)]
            view[...] = stack.coeffs
            yield SpectralField(grid32, view)

    fresh = save_fields(tmp_path / "fresh.bin", stacks)
    views = save_fields(tmp_path / "views.bin", reused())
    assert views.read_bytes() == fresh.read_bytes()
    assert len(load_fields(views)) == 10


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
    # a header count that disagrees with an intact payload
    recounted = bytearray(raw)
    recounted[_HEADER.size - 4 : _HEADER.size] = (2).to_bytes(4, "little")
    bad.write_bytes(bytes(recounted))
    with pytest.raises(ValueError, match="size does not match"):
        load_fields(bad)


def test_load_fields_peak_is_one_payload(tmp_path, grid32, stream):
    # 64 fields, a 1 MiB payload read with one call: the read may hold
    # the payload once plus a block, never a second copy of it
    stack = gff_sample(grid32, [stream.for_replica(i) for i in range(64)])
    path = save_fields(tmp_path / "p.bin", [stack])
    payload = stack.coeffs.nbytes
    assert payload > 2 * BLOCK_BYTES
    load_fields(path)  # warm caches (grid) outside the measurement
    tracemalloc.start()
    try:
        back = load_fields(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= payload + BLOCK_BYTES
    assert np.array_equal(np.stack([f.coeffs for f in back]), stack.coeffs)
