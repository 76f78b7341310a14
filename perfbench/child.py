"""Run one workload once in this (fresh) process and write child.json.

    python3 perfbench/child.py WORKLOAD SEED WORKDIR TRACE SMOKE

Times are CPU time of this process (user + system): ``setup_s`` from
process start to command ready, which covers interpreter start, the
package import and config parsing (it builds and validates the grid, the
cutoff and the Wick parameters); ``cpu_s`` the ``cmd_*`` call alone.
The call's wall-clock time is recorded as ``wall_s`` next to them.  The
package is imported from ``PYTHONPATH``; the parent points it at the
checkout's ``src``.
"""

import json
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, config_text


def main(argv):
    name, seed, workdir, trace, smoke = argv
    spec = WORKLOADS[name]
    workdir = Path(workdir)

    import numpy as np

    import expsqlab
    from expsqlab import experiments
    from expsqlab.config import parse_config

    cfg = parse_config(config_text(name, smoke == "1"), {"seed": int(seed)})
    setup_s = time.process_time()

    cmd = getattr(experiments, "cmd_" + spec["command"].replace("-", "_"))
    tracer = None
    if trace == "1":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        cmd = tracer.wrap("experiments", cmd)

    cpu_started, wall_started = time.process_time(), time.perf_counter()
    report = cmd(cfg, out_dir=workdir, threads=1)
    cpu_s = time.process_time() - cpu_started
    wall_s = time.perf_counter() - wall_started

    on_disk = json.loads((workdir / "report.json").read_text())
    result = {
        "cpu_s": cpu_s,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "exit_code": report.exit_code,
        "body_digest": on_disk["body_digest"],
        "draws": getattr(cfg, spec["draws"]),
        "backend": getattr(expsqlab, "KERNEL_BACKEND", "numpy"),
        "numpy": np.__version__,
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer)
        with open(workdir / "spans.json", "w") as fh:
            json.dump(tracer.spans, fh)
    (workdir / "child.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
