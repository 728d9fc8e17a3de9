"""Span recorder that wraps capnorm's public functions from outside.

The benchmark never edits capnorm.  For a traced pass it replaces public
functions, on every module that bound them by name at import, with
wrappers that record a span (name, start, end, parent) and a few
problem-size counts computed from the call's inputs and outputs.  The
original bindings are restored when the pass ends, so untraced passes
run the pristine code.  Spans stay in memory; the caller writes them out
when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from capnorm import choquet, cli, content, domains, grid, interp, io, operators, verify


@dataclass
class Span:
    name: str
    parent: int
    start: float
    end: float = 0.0
    label: str = ""
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Spans of one traced pass, in the order they were opened."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _open(self, name: str, label: str = "") -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, parent, time.perf_counter(), label=label))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int):
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, label: str = ""):
        idx = self._open(name, label)
        try:
            yield self.spans[idx]
        finally:
            self._close(idx)

    def children(self, idx: int) -> list[Span]:
        # spans are appended in call order, so a finished span's
        # descendants are exactly the spans opened after it
        return [s for s in self.spans[idx + 1:] if s.parent == idx]

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                # counted after the span closes, so counting is not billed to the layer
                self.spans[idx].counts.update(count(self, idx, args, kwargs, result))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding in BINDINGS for the duration of the block."""
        saved = []
        try:
            for owners, attr, name, count in BINDINGS:
                for owner in owners:
                    original = owner.__dict__.get(attr)
                    if original is None:
                        continue  # the layer no longer has this function
                    saved.append((owner, attr, original))
                    setattr(owner, attr, self.wrap(name, original, count))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


# counters: computed from the call's arguments and result ---------------------


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _count_distribution(rec, idx, args, kwargs, dist):
    values = _arg(args, kwargs, 0, "f").values
    m = int(dist.thresholds.size)
    distinct = int(np.unique(values[values > 0]).size)
    return {"thresholds": m, "merged_values": distinct - m}


def _direct(grid_, args, kwargs) -> int:
    method = _arg(args, kwargs, 2, "method", "auto")
    limit = getattr(operators, "DIRECT_CELL_LIMIT", 0)
    return int(method == "direct" or (method == "auto" and grid_.n_cells <= limit))


def _count_maximal(rec, idx, args, kwargs, result):
    f, params = _arg(args, kwargs, 0, "f"), _arg(args, kwargs, 1, "params")
    g = f.grid
    radii = params.resolve_radii(g)
    n = g.cells_per_axis
    # radii beyond the largest lattice offset see every cell and need no convolution
    convolved = radii[radii <= (n - 1) * g.h * math.sqrt(g.dim)]
    half = np.minimum(n - 1, np.floor(convolved / g.h)).astype(np.int64)
    return {
        "maximal_convolutions": int(convolved.size),
        "kernel_cells": int(np.sum((2 * half + 1) ** g.dim)),
        "direct_calls": _direct(g, args, kwargs),
    }


def _count_riesz(rec, idx, args, kwargs, result):
    g = _arg(args, kwargs, 0, "f").grid
    return {
        "kernel_cells": (2 * g.cells_per_axis - 1) ** g.dim,
        "direct_calls": _direct(g, args, kwargs),
    }


def _count_lines(rec, idx, args, kwargs, result):
    ms = [s.counts.get("thresholds", 0) for s in rec.children(idx) if s.name == "choquet.distribution"]
    return {"lines": sum(m + 1 for m in ms if m > 0)}


def _count_cover(rec, idx, args, kwargs, sol):
    return {"cover_cubes": len(sol.cover)}


def _count_read(rec, idx, args, kwargs, result):
    return {"bytes_read": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _count_written(rec, idx, args, kwargs, text):
    return {"bytes_written": len(text.encode("utf-8"))}


EXPERIMENT_RUNNERS = {
    "poincare": "poincare_check",
    "poincare_weak": "poincare_weak_check",
    "poincare_sobolev": "poincare_sobolev_check",
    "compact_support": "compact_support_check",
    "riesz_bound": "riesz_boundedness_check",
    "maximal_bound": "maximal_inequality_check",
    "hedberg": "hedberg_constant_check",
    "sharpness_poincare": "sharpness_poincare",
    "sharpness_riesz": "sharpness_riesz",
}

# (modules or classes holding a binding, attribute, span name, counter).
# verify, cli and interp bind some functions by name at import, so each of
# those bindings is patched next to the defining module's.
BINDINGS = [
    ((choquet, cli, interp), "distribution", "choquet.distribution", _count_distribution),
    ((choquet, cli), "lebesgue_distribution", "choquet.distribution", _count_distribution),
    ((content.ContentEngine,), "build", "content.build", None),
    ((content.ContentEngine,), "remove", "content.remove", None),
    ((content, cli), "dyadic_content", "content.dyadic_content", _count_cover),
    ((operators, verify, cli), "maximal", "operators.maximal", _count_maximal),
    ((operators, verify, cli), "riesz", "operators.riesz", _count_riesz),
    ((operators, verify), "hedberg_ratio_field", "operators.hedberg_field", None),
    ((interp, cli), "interpolation_norm", "interp.interpolation_norm", _count_lines),
    ((interp, cli), "k_profile", "interp.k_profile", _count_lines),
    ((grid, verify), "sample", "grid.sample", None),
    ((grid, verify), "gradient_magnitude", "grid.gradient", None),
    ((domains, verify), "make_john_domain", "domains.john_domain", None),
    ((domains, verify), "mean_value_ball", "domains.mean_value", None),
    ((domains, verify), "mean_value", "domains.mean_value", None),
    ((io,), "load_path", "io.read", _count_read),
    ((io,), "read_cellset", "io.read", None),
    ((io,), "read_gridfunction", "io.read", None),
    ((io,), "dumps", "io.write", _count_written),
    ((io,), "gridfunction_to_dict", "io.write", None),
    ((io,), "cellset_to_dict", "io.write", None),
    ((io,), "cover_to_dict", "io.write", None),
    ((cli,), "run", "cli", None),
] + [((verify,), runner, f"verify.{exp}", None) for exp, runner in EXPERIMENT_RUNNERS.items()]


# reduction ------------------------------------------------------------------

# metric -> span name; the time of a span name sums its outermost spans
TIMES = {
    "choquet.distribution_s": "choquet.distribution",
    "content.build_s": "content.build",
    "content.remove_s": "content.remove",
    "content.dyadic_content_s": "content.dyadic_content",
    "operators.maximal_s": "operators.maximal",
    "operators.riesz_s": "operators.riesz",
    "operators.hedberg_field_s": "operators.hedberg_field",
    "interp.interpolation_norm_s": "interp.interpolation_norm",
    "interp.k_profile_s": "interp.k_profile",
    "grid.sample_s": "grid.sample",
    "grid.gradient_s": "grid.gradient",
    "domains.john_domain_s": "domains.john_domain",
    "domains.mean_value_s": "domains.mean_value",
    "io.read_s": "io.read",
    "io.write_s": "io.write",
    **{f"verify.{exp}_s": f"verify.{exp}" for exp in EXPERIMENT_RUNNERS},
}
# metric -> span names whose calls are counted
CALLS = {
    "choquet.distribution_calls": ("choquet.distribution",),
    "content.remove_calls": ("content.remove",),
    "operators.maximal_calls": ("operators.maximal",),
    "operators.riesz_calls": ("operators.riesz",),
}
# metric -> (span names, counter key) summed over those spans
COUNTS = {
    "choquet.thresholds": (("choquet.distribution",), "thresholds"),
    "choquet.merged_values": (("choquet.distribution",), "merged_values"),
    "content.cover_cubes": (("content.dyadic_content",), "cover_cubes"),
    "operators.maximal_convolutions": (("operators.maximal",), "maximal_convolutions"),
    "operators.direct_calls": (("operators.maximal", "operators.riesz"), "direct_calls"),
    "operators.kernel_cells": (("operators.maximal", "operators.riesz"), "kernel_cells"),
    "interp.lines": (("interp.interpolation_norm", "interp.k_profile"), "lines"),
    "io.bytes_read": (("io.read",), "bytes_read"),
    "io.bytes_written": (("io.write",), "bytes_written"),
}
UNITS = {
    **{name: "s" for name in TIMES},
    **{name: "count" for name in CALLS},
    **{name: "count" for name in COUNTS},
    "io.bytes_read": "bytes",
    "io.bytes_written": "bytes",
    "verify.self_s": "s",
    "cli.self_s": "s",
}


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its (sequential) child spans cover."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


def reduce_pass(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    own = self_times(spans)
    names = [s.name for s in spans]
    outermost = [not _has_ancestor(spans, i, s.name) for i, s in enumerate(spans)]
    metrics = {}
    for metric, name in TIMES.items():
        metrics[metric] = sum((s.duration for s, top in zip(spans, outermost) if top and s.name == name), 0.0)
    for metric, span_names in CALLS.items():
        metrics[metric] = sum(1 for n in names if n in span_names)
    for metric, (span_names, key) in COUNTS.items():
        metrics[metric] = sum(s.counts.get(key, 0) for s in spans if s.name in span_names)
    metrics["verify.self_s"] = sum((t for n, t in zip(names, own) if n.startswith("verify.")), 0.0)
    metrics["cli.self_s"] = sum((t for n, t in zip(names, own) if n == "cli"), 0.0)
    return metrics


def _has_ancestor(spans: list[Span], idx: int, name: str) -> bool:
    p = spans[idx].parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def layer_shares(spans: list[Span], wall: float) -> dict[str, float]:
    """Self time per layer (first part of the span name) as a share of the pass wall time."""
    shares: dict[str, float] = {}
    for s, t in zip(spans, self_times(spans)):
        layer = s.name.split(".")[0]
        shares[layer] = shares.get(layer, 0.0) + t / wall
    return dict(sorted(shares.items()))


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}


def spans_to_json(spans: list[Span]) -> list[dict]:
    """Spans with times relative to the first span's start."""
    t0 = spans[0].start if spans else 0.0
    return [
        {"name": s.name, "parent": s.parent, "start": s.start - t0, "end": s.end - t0,
         **({"label": s.label} if s.label else {}), **({"counts": s.counts} if s.counts else {})}
        for s in spans
    ]
