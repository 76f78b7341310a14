"""Per-layer tracing installed from outside the package.

The layers are the package's modules.  ``install`` wraps the public
functions of each layer, and numpy's 2-D FFT entry points, with a span
recorder.  A name bound by ``from .spectral import sobolev_norm`` lives
in every importing module's namespace, so each binding of the original
function object in any ``expsqlab`` module is replaced.  The real-FFT
entry points are wrapped as well so that moving the core onto the half
spectrum keeps being counted.

Spans are kept in memory as ``[group, start, end, parent]`` and reduced
by ``layer_metrics`` when the command has returned.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from pathlib import Path

FFT_ENTRY_POINTS = ("fft2", "ifft2", "rfft2", "irfft2")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict = {}
        self._stack: list = []

    def add(self, key: str, amount):
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, group: str, fn, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.process_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [group, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(self, args, result)
            return result

        return traced


def _fft_bytes(tracer, args, result):
    tracer.add("fft_bytes", getattr(args[0], "nbytes", 0) + result.nbytes)


def _solve_steps(tracer, args, result):
    tracer.add("steps", len(result.states) - 1)


def _ensemble(tracer, args, result):
    tracer.add("ensemble_draws", len(result))
    tracer.add("ess", result.ess())
    tracer.add("n_underflow", result.n_underflow)


def _file_bytes(tracer, args, result):
    tracer.add("bytes_written", Path(result).stat().st_size)


# (module, attribute, span group, result hook)
TARGETS = [
    ("expsqlab.spectral", "sobolev_norm", "spectral.norm", None),
    ("expsqlab.rng", "RngStream.generator", "rng.generator", None),
    ("expsqlab.randomfields", "gff_sample", "randomfields.gff", None),
    ("expsqlab.randomfields", "ou_path", "randomfields.ou", None),
    ("expsqlab.wick", "wick_exp_values", "wick.exp", None),
    ("expsqlab.dynamics", "solve_sqe_full", "dynamics.solve", _solve_steps),
    ("expsqlab.dynamics", "solve_sqe_projected", "dynamics.solve", _solve_steps),
    ("expsqlab.dynamics", "solve_shifted", "dynamics.solve", _solve_steps),
    ("expsqlab.measures", "sample_ensemble", "measures.ensemble", _ensemble),
    ("expsqlab.measures", "invariance_test", "measures.evolve", None),
    ("expsqlab.reports", "write_report", "reports.write", _file_bytes),
    ("expsqlab.reports", "write_csv", "reports.write", _file_bytes),
    ("expsqlab.reports", "save_fields", "reports.write", _file_bytes),
]


def install(tracer: Tracer):
    """Wrap every target in place; a missing target is an error, so a
    renamed layer function cannot silently read as zero work."""
    import numpy as np

    for name in FFT_ENTRY_POINTS:
        setattr(np.fft, name, tracer.wrap("spectral.fft", getattr(np.fft, name), _fft_bytes))
    package = [m for k, m in list(sys.modules.items()) if k == "expsqlab" or k.startswith("expsqlab.")]
    for module_name, attr, group, hook in TARGETS:
        owner = importlib.import_module(module_name)
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
            setattr(owner, attr, tracer.wrap(group, getattr(owner, attr), hook))
            continue
        original = getattr(owner, attr)
        wrapped = tracer.wrap(group, original, hook)
        for module in package:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)


def layer_metrics(tracer: Tracer) -> dict:
    """Reduce the spans to the per-layer metrics of one traced run.

    ``*_s`` is the time inside the group's outermost spans (a span nested
    in one of its own group is not counted twice); ``self_s`` is a span's
    time minus the time of its direct child spans.
    """
    spans = tracer.spans
    calls: dict = {}
    inclusive: dict = {}
    selfs: dict = {}
    child_time = [0.0] * len(spans)
    for i, (group, start, end, parent) in enumerate(spans):
        calls[group] = calls.get(group, 0) + 1
        if parent >= 0:
            child_time[parent] += end - start
        p = parent
        while p >= 0 and spans[p][0] != group:
            p = spans[p][3]
        if p < 0:
            inclusive[group] = inclusive.get(group, 0.0) + (end - start)
    for i, (group, start, end, _) in enumerate(spans):
        selfs[group] = selfs.get(group, 0.0) + (end - start) - child_time[i]

    c = tracer.counts
    draws = c.get("ensemble_draws", 0)
    return {
        "spectral.fft_calls": calls.get("spectral.fft", 0),
        "spectral.fft_s": inclusive.get("spectral.fft", 0.0),
        "spectral.fft_bytes_computed": c.get("fft_bytes", 0),
        "spectral.norm_calls": calls.get("spectral.norm", 0),
        "spectral.norm_s": inclusive.get("spectral.norm", 0.0),
        "rng.generators": calls.get("rng.generator", 0),
        "rng.generator_s": inclusive.get("rng.generator", 0.0),
        "randomfields.gff_draws": calls.get("randomfields.gff", 0),
        "randomfields.gff_s": inclusive.get("randomfields.gff", 0.0),
        "randomfields.ou_paths": calls.get("randomfields.ou", 0),
        "randomfields.ou_s": inclusive.get("randomfields.ou", 0.0),
        "wick.exp_calls": calls.get("wick.exp", 0),
        "wick.exp_s": inclusive.get("wick.exp", 0.0),
        "dynamics.solves": calls.get("dynamics.solve", 0),
        "dynamics.steps": c.get("steps", 0),
        "dynamics.solve_s": inclusive.get("dynamics.solve", 0.0),
        "dynamics.self_s": selfs.get("dynamics.solve", 0.0),
        "measures.ensemble_draws": draws,
        "measures.ensemble_s": inclusive.get("measures.ensemble", 0.0),
        "measures.evolve_s": inclusive.get("measures.evolve", 0.0),
        "measures.ess_fraction": c.get("ess", 0.0) / draws if draws else 0.0,
        "measures.n_underflow": c.get("n_underflow", 0),
        "reports.bytes_written": c.get("bytes_written", 0),
        "reports.write_s": inclusive.get("reports.write", 0.0),
        "experiments.self_s": selfs.get("experiments", 0.0),
    }
