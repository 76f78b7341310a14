"""Command-line entry point.

    expsqlab sample-gff     [--config F] [--seed S] [--out-dir D] ...
    expsqlab wick-converge  ...
    expsqlab sqe            ...
    expsqlab invariance     ...
    expsqlab norms-bench    ...

Flags override config-file keys; see config.py for the key schema.
Exit codes: 0 ok, 2 check failed, 3 bad configuration or command line,
4 numeric guard.  ``--help`` exits 0.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigError, load_config
from .experiments import (
    EXIT_CONFIG,
    STATUS,
    cmd_invariance,
    cmd_norms_bench,
    cmd_sample_gff,
    cmd_sqe,
    cmd_wick_converge,
)

_COMMANDS = {
    "sample-gff": cmd_sample_gff,
    "wick-converge": cmd_wick_converge,
    "sqe": cmd_sqe,
    "invariance": cmd_invariance,
    "norms-bench": cmd_norms_bench,
}


class _Parser(argparse.ArgumentParser):
    """argparse with its usage errors on exit code 3: a malformed command
    line is a bad configuration, not a failed check (exit 2)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="expsqlab",
        description="Spectral laboratory for the exponential-interaction stochastic dynamics on the 2-torus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=(fn.__doc__ or "").strip().splitlines()[0])
        p.add_argument("--config", type=Path, default=None, help="key = value config file")
        p.add_argument("--seed", type=int, default=None, help="override the seed")
        p.add_argument("--out-dir", type=Path, default=None,
                       help="artifact directory (default runs/<command>)")
        p.add_argument("--replicas", type=int, default=None, help="override replica count")
        p.add_argument("--samples", type=int, default=None, help="override ensemble size")
        p.add_argument("--threads", type=int, default=1, help="replica fan-out workers")
    return parser


def main(argv: list | None = None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {"seed": args.seed, "replicas": args.replicas, "samples": args.samples}
    out_dir = args.out_dir if args.out_dir is not None else Path("runs") / args.command
    try:
        cfg = load_config(args.config, overrides)
        report = _COMMANDS[args.command](cfg, out_dir=out_dir, threads=args.threads)
    except ConfigError as e:
        print(f"expsqlab {args.command}: configuration error: {e}", file=sys.stderr)
        return EXIT_CONFIG

    status = STATUS.get(report.exit_code, "error")
    print(f"expsqlab {args.command}: {status} "
          f"(exit {report.exit_code}, report in {out_dir / 'report.json'})")
    for key in ("mean_gaps", "dyadic_rate", "max_abs_z", "ess", "z", "mean_sup_gap_by_level"):
        if key in report.body:
            print(f"  {key} = {report.body[key]}")
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
