"""The benchmark's workload table.

Each workload runs one public ``cmd_*`` driver at a fixed config in a
fresh single-threaded process.  ``config`` holds ``key = value`` lines as
a user would write them in a config file; ``smoke`` replaces keys for the
tiny smoke configs.  ``digest`` pins the report ``body_digest`` of the
default seed (0) at the full config; ``draws`` names the config key that
counts the free-field draws of one run.
"""

DEFAULT_SEED = 0

WORKLOADS = {
    # c09's code path at c09's grid: large FFT pairs, per-step norms and
    # stored states dominate; RNG and ensembles are nearly absent.
    "sqe-M256": {
        "command": "sqe",
        "config": {"grid.M": 256, "wick.N": 5, "replicas": 2, "sqe.T": 1, "sqe.dt": 0.015625},
        "smoke": {"grid.M": 16, "wick.N": 1, "replicas": 2},
        "draws": "replicas",
        "digest": "5124ec1b2b6beed802acea65faadf4a378def98c312c396aec69262196ead18a",
    },
    # c10's code path at c10's grid: tens of thousands of tiny FFTs and
    # thousands of generator constructions; per-call overhead dominates.
    "invariance-M32": {
        "command": "invariance",
        "config": {"grid.M": 32, "wick.N": 2, "samples": 5000, "replicas": 200},
        "smoke": {"samples": 300, "replicas": 8},
        "draws": "samples",
        "digest": "160bb45847155d59fc2ad22be2b647fdc2dd3d36573312fee494954c5ba08307",
    },
    # the write side: forward FFTs only, no solver, a 262 MB field dump
    "gff-dump-M64": {
        "command": "sample-gff",
        "config": {"grid.M": 64, "samples": 4000},
        "smoke": {"grid.M": 32, "samples": 100},
        "draws": "samples",
        "digest": "20e3e0e4a3f73e9fd2e65b19b882d3a1d51cbe40fb1fd41341fe12b27e771cb3",
    },
}


def config_text(name: str, smoke: bool = False) -> str:
    """The workload's config file text (smoke keys applied if asked)."""
    spec = WORKLOADS[name]
    keys = {**spec["config"], **(spec["smoke"] if smoke else {})}
    return "".join(f"{k} = {v}\n" for k, v in keys.items())
