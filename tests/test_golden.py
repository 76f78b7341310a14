"""Golden anchors: report body digests and dump checksums pinned by value.

The determinism tests compare two runs of the same code, so a change that
shifts every number by one rounding step still passes them.  These pin
the sha256 of the report body (and of ``samples.bin``) at small configs,
so any bit drift in sampling, weighting, stepping or dumping fails here.
The digests were recorded with numpy 2.4 and the numpy kernel backend; a
different numpy may legitimately change the last bits of its FFTs.
"""

import hashlib

import pytest

from expsqlab import ExperimentConfig, cmd_invariance, cmd_sample_gff

INVARIANCE = {
    # 37 replicas and 300 draws: blocks of 16 fields at M = 32 end ragged
    "exp-euler-M32": (
        dict(modes=32, level=2, seed=3, samples=300, replicas=37, horizon=0.25, dt=1 / 64),
        0,
        "7291bde3286239fb109ef6d9e65f305f3989ad90b23a4264c96bf666e43ba253",
    ),
    "semi-implicit-M16": (
        dict(modes=16, level=1, seed=4, samples=301, replicas=21, horizon=0.25, dt=1 / 32,
             scheme="semi-implicit"),
        0,
        "42b8661f33c8828645bef76e02c7164c4a2b860ce80a516d324accf77d7ae9f8",
    ),
    # untilted proposal: the ensemble is refused as degenerate (exit 4)
    "degenerate-M16": (
        dict(modes=16, level=1, seed=9, samples=80, replicas=60, tilt="none", horizon=0.25,
             dt=1 / 32),
        4,
        "7937bb4a448f9a715a892014df28f5186e360af34a544d08f7750b5c05369a66",
    ),
    # a shift far past the guard: the first proposal overflows (exit 4)
    "overflow-M16": (
        dict(modes=16, level=1, seed=2, samples=40, replicas=10, tilt="4500", horizon=0.25,
             dt=1 / 32),
        4,
        "65b7aae2947d58e50c1e0946018bc934fb9f2063120de8311c739c65e714cf7c",
    ),
}

SAMPLE_GFF = {
    "M16": (
        dict(modes=16, seed=5, samples=101),
        "229cdb02ddda6d3893f413e3977f466209c8cb35f0d05ecc32a5411f8d0e7618",
        "c11283fcc7bfc3d6aa67d856d9bcec1b12ed090a48d22349d0af64f7cc7bcb6d",
    ),
    "M32": (
        dict(modes=32, seed=6, samples=200),
        "ff6d024d804bcb007ae8eb3c9ec178de6ed9b17775454f4afadf9b3402224616",
        "41e213489a0647edbb9ecd37c449b606f55bf185837605e5f2083d76e7e90ad2",
    ),
}


@pytest.mark.parametrize("name", sorted(INVARIANCE))
def test_invariance_golden(name, tmp_path):
    kwargs, exit_code, digest = INVARIANCE[name]
    report = cmd_invariance(ExperimentConfig(**kwargs), out_dir=tmp_path)
    assert report.exit_code == exit_code
    assert report.body_digest() == digest


@pytest.mark.parametrize("name", sorted(SAMPLE_GFF))
def test_sample_gff_golden(name, tmp_path):
    kwargs, digest, dump_sha = SAMPLE_GFF[name]
    report = cmd_sample_gff(ExperimentConfig(**kwargs), out_dir=tmp_path)
    assert report.exit_code == 0
    assert report.body_digest() == digest
    assert hashlib.sha256((tmp_path / "samples.bin").read_bytes()).hexdigest() == dump_sha
