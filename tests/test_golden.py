"""Golden anchors: report body digests and dump checksums pinned by value.

The determinism tests compare two runs of the same code, so a change that
shifts every number by one rounding step still passes them.  These pin
the sha256 of the report body (and of ``samples.bin`` and ``paths.csv``)
at small configs for all five commands, plus the raw state bytes of the
full solve with its X + Y split and of the projected solve, so any bit
drift in sampling, weighting, stepping, norms or dumping fails here.
The shifted states of the split are also pinned by value, as their L2
norms in ``tests/golden/shifted.json`` (to a relative 1e-12), so a
re-pinned digest still shows how far they moved.
The digests were recorded with numpy 2.4; a different numpy may
legitimately change the last bits of its FFTs.
"""

import hashlib

import pytest

from expsqlab import (
    ConfigError,
    CutoffProfile,
    ExperimentConfig,
    RngStream,
    SqeConfig,
    cmd_invariance,
    cmd_norms_bench,
    cmd_sample_gff,
    cmd_sqe,
    cmd_wick_converge,
    decompose,
    gff_sample,
    heat_semigroup,
    hermite,
    make_grid,
    make_wick_params,
    ou_path,
    sobolev_norm,
    solve_sqe_full,
    solve_sqe_projected,
)
from expsqlab import dynamics, wick
from expsqlab.spectral import heat_multiplier
from golden_values import load_golden, value_drift

INVARIANCE = {
    # 37 replicas and 300 draws: blocks of 16 fields at M = 32 end ragged
    "exp-euler-M32": (
        dict(modes=32, level=2, seed=3, samples=300, replicas=37, horizon=0.25, dt=1 / 64),
        0,
        "7291bde3286239fb109ef6d9e65f305f3989ad90b23a4264c96bf666e43ba253",
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
        dict(modes=16, level=1, seed=2, samples=40, replicas=10, tilt=4500.0, horizon=0.25,
             dt=1 / 32),
        4,
        "c3bf5f81f9a84378dd24ab18e8b2641ad2fa7b63b2cf5187fdd741d76261e51f",
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
    # ragged last blocks: 16 + 16 + 5 draws at M = 32, 4 + 4 + 1 at M = 64,
    # and a single draw (infinite standard error, zero variance)
    "ragged-M32": (
        dict(modes=32, seed=11, samples=37),
        "263e5a795d47fb94244272e8a502457025ee5f9dc8de0aaeb2bf40f582d56110",
        "5a5f7c380beb2206e58452b8f0fcd5c9bd46e6976eb1c8074ce641e5e884f20e",
    ),
    "ragged-M64": (
        dict(modes=64, seed=14, samples=9),
        "0c56eaa67d9932f4fefa3571b5f05170db50c372a20719756469acc71aaa4831",
        "0bfdd952ebec0753e0e366abc8a2be0461c158b71201851a4768734071cdf03c",
    ),
    "single-M32": (
        dict(modes=32, seed=15, samples=1),
        "f0958a4a411e92e48733827b4619ea66c95fce3e76c05e557f9093278cec9e08",
        "7fbf83b3bf833a281ff24f70de37682a5c9ff412273fed50aded983432a1a709",
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

SQE = {
    "exp-euler-M32": (
        dict(modes=32, level=2, seed=7, replicas=3, horizon=0.25, dt=1 / 64),
        "3e18550a138b982d327962eb9e354c9004f1e189a15d4890ba6294fb22e6be66",
        "7d85c54e90641393e029fb991952bb9fb50de819c0252789e88becb3cee912ae",
    ),
}

WICK_CONVERGE = {
    "M64": (
        dict(modes=64, level=3, seed=5, replicas=6),
        "e026b129ab34000c068b40dca2b69b23d2f6e0b5773fe4f0636a4914aa4fee38",
    ),
    "smooth-M32": (
        dict(modes=32, level=2, seed=12, replicas=4, cutoff_kind="smooth"),
        "1cdf14844716e6cac4edd4d04b6f657b157b0460c2fc4f5c80e513673b70165a",
    ),
}

NORMS_BENCH = {
    "M32": (
        dict(modes=32, seed=13, replicas=5),
        "3cc93f2c644ebaa2c00f121b2723fc787d16259d7be98071911f725651998756",
    ),
}

# the guard lowered to 0: the first exponent trips it and the run ends in
# exit 4 with only the overflow exponent in its body (the module named
# holds the guard the command's solver reads)
OVERFLOW = {
    "sqe-M16": (
        cmd_sqe, dynamics,
        dict(modes=16, level=1, seed=3, replicas=2, horizon=0.125, dt=1 / 32),
        "ff8feae38447be1364f08ae6882e1f9b0d759dde0ad4af2b535ee859cbe21e2f",
    ),
    "wick-converge-M32": (
        cmd_wick_converge, wick,
        dict(modes=32, level=2, seed=3, replicas=2),
        "bada53f52a86fcefd15ecda9a2e22621adfe9ee7eb0395fc3516b5c196e6acad",
    ),
}

SOLVER_STATES = {
    "full-decomposed": "3226ae73f3303ce32be563b63a110c21fd389f61a716a25b57c8908fb1040ddc",
    "projected": "817cbe37c95183aad390daf668f75d5b7900a41d0c7ff9778d153a45d2ec8d5c",
}

# one pin per operator, so deleting one operator leaves the others' pins
# byte-identical
OPERATORS = {
    "heat_semigroup": "069458c1f885462d6214564738742d75a87a3f7d16117db679add3e4966d5044",
    "heat_multiplier": "388287c9bd5d3ef7e7dac2372ea6ecc9a21919aeba8bb724575e3eb9879c2f8d",
    "hermite": "dca4dbb5ad5340ac63b673069b14f11cbc49b56291d770b8db0635217bd103bf",
    "sobolev_norm": "4966605f7809e090101d39660b7b05f6ab034995fed2066a26212b0221adb4fa",
}


@pytest.mark.parametrize("name", sorted(SQE))
def test_sqe_golden(name, tmp_path):
    kwargs, digest, paths_sha = SQE[name]
    report = cmd_sqe(ExperimentConfig(**kwargs), out_dir=tmp_path)
    assert report.exit_code == 0
    assert report.body_digest() == digest
    assert hashlib.sha256((tmp_path / "paths.csv").read_bytes()).hexdigest() == paths_sha


@pytest.mark.parametrize("name", sorted(WICK_CONVERGE))
def test_wick_converge_golden(name):
    kwargs, digest = WICK_CONVERGE[name]
    report = cmd_wick_converge(ExperimentConfig(**kwargs))
    assert report.exit_code == 0
    assert report.body_digest() == digest


@pytest.mark.parametrize("name", sorted(NORMS_BENCH))
def test_norms_bench_golden(name):
    kwargs, digest = NORMS_BENCH[name]
    report = cmd_norms_bench(ExperimentConfig(**kwargs))
    assert report.exit_code == 0
    assert report.body_digest() == digest


@pytest.mark.parametrize("name", sorted(OVERFLOW))
def test_overflow_golden(name, tmp_path, monkeypatch):
    cmd, module, kwargs, digest = OVERFLOW[name]
    monkeypatch.setattr(module, "OVERFLOW_EXPONENT", 0.0)
    report = cmd(ExperimentConfig(**kwargs), out_dir=tmp_path)
    assert report.exit_code == 4
    assert list(report.body) == ["overflow_exponent"]
    assert report.body_digest() == digest
    assert (tmp_path / "report.json").is_file()


@pytest.mark.parametrize("cmd", [cmd_sqe, cmd_wick_converge])
def test_level_above_grid_is_a_config_error(cmd):
    # wick.N = 3 needs M >= 64; no driver may quietly run fewer levels
    with pytest.raises(ConfigError, match="too high"):
        cmd(ExperimentConfig(modes=32, level=3))


def _states_digest(*field_lists) -> str:
    h = hashlib.sha256()
    for fields in field_lists:
        for f in fields:
            h.update(f.coeffs.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(SOLVER_STATES))
def test_solver_states_golden(name):
    grid = make_grid(32)
    psi = CutoffProfile("smooth")
    params = make_wick_params(1.0, 2, psi, grid)
    stream = RngStream(21, purpose="golden")
    phi0 = gff_sample(grid, stream.child("init"))
    config = SqeConfig(horizon=0.25, dt=1 / 64, params=params)
    if name == "full-decomposed":
        x_traj = ou_path(phi0, config.dt, config.n_steps(), stream.child("ou"))
        path = solve_sqe_full(phi0, config, stream, x_traj=x_traj)
        x_part, y_part, shifted = decompose(path, x_traj, config)
        got = _states_digest(path.states, x_part.states, y_part.states, shifted.states)
        # the shifted states by value, so a re-pin of the digest shows how
        # far they moved
        norms = [sobolev_norm(s, 0.0) for s in shifted.states]
        golden = load_golden("shifted")[name]
        assert value_drift({"shifted_l2": norms}, golden, name) == []
    else:
        # drives itself from stream.child("ou"), the OU chain the pin was
        # recorded with (then passed in as a trajectory)
        path = solve_sqe_projected(phi0, config, stream)
        got = _states_digest(path.states)
    assert got == SOLVER_STATES[name]


def test_operators_golden():
    # heat multipliers, OU decay, Hermite recurrence and Sobolev norms on one draw
    grid = make_grid(32)
    field = gff_sample(grid, RngStream(22, purpose="golden"))
    outputs = {
        "heat_semigroup": [heat_semigroup(field, 0.3).coeffs.tobytes()],
        "heat_multiplier": [heat_multiplier(grid, 0.1).tobytes()],
        "hermite": [hermite(7, field.values(), 0.8).tobytes()],
        "sobolev_norm": [repr(sobolev_norm(field, s)).encode() for s in (-1.0, -0.125, 0.0, 0.5)],
    }
    got = {}
    for name, chunks in outputs.items():
        h = hashlib.sha256()
        for chunk in chunks:
            h.update(chunk)
        got[name] = h.hexdigest()
    assert got == OPERATORS
