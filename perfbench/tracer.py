"""Span tracer that rebinds synthcat's public functions from outside the package.

``Tracer.install`` replaces every traced function with a wrapper in every
``synthcat.*`` namespace that holds it (``report.generate`` and
``cli.association_matrix`` are the same objects as ``generator.generate``
and ``association.association_matrix``), and ``uninstall`` puts the
originals back.  A traced function that no longer exists is recorded as
absent and reports zeros.

Spans stay in memory until ``dump`` writes them at the end of a run.  Each
thread keeps its own span stack; a span opened on a thread whose stack is
empty (a ``generate`` worker) takes the innermost open span of the thread
that installed the tracer as its parent, which is the call blocked waiting
for the workers.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import NamedTuple

TRACED = {
    "model": ("load_config", "validate_spec", "resolve_clusters"),
    "patterns": ("grouped_pattern",),
    "calibration": ("calibrate_group", "snp_mixture_variance", "binary_mixture_variance"),
    "generator": ("build_spec", "bind_pattern", "generate"),
    "sampling": (
        "column_uniforms",
        "inverse_normal_cdf_array",
        "band_edges",
        "band_indices",
        "shuffle_order",
    ),
    "moments": ("moment_matrices", "cluster_means", "cluster_variances"),
    "association": (
        "pearson_matrix",
        "association_matrix",
        "crosstab",
        "cramers_v",
        "concentration_coefficient",
        "stuart_kendall_tau_c",
    ),
    "report": (
        "run_pipeline",
        "build_run",
        "write_dataset_csv",
        "write_allocation",
        "write_matrix_csv",
        "write_long_format",
        "write_group_summary",
        "write_calibration_report",
    ),
    "cli": ("main",),
}

TRACED_NAMES = tuple(f"{module}.{fn}" for module, fns in TRACED.items() for fn in fns)

# Spans of these functions carry the value of one argument as a label, so
# their time can be split by it.
LABEL_ARGUMENT = {"association.association_matrix": "measure"}


class Span(NamedTuple):
    id: int
    parent: int | None
    name: str
    thread: int
    start: float
    end: float
    label: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records one span per call of every traced synthcat function."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[int]] = {}
        self._owner = threading.get_ident()
        self._restore: list[tuple[object, str, object]] = []

    def _namespaces(self):
        return [
            module
            for name, module in sorted(sys.modules.items())
            if module is not None and (name == "synthcat" or name.startswith("synthcat."))
        ]

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        self._owner = threading.get_ident()
        self.absent = []
        namespaces = self._namespaces()
        for qualified in TRACED_NAMES:
            module_name, fn_name = qualified.split(".")
            module = sys.modules.get(f"synthcat.{module_name}")
            original = getattr(module, fn_name, None) if module is not None else None
            if not callable(original):
                self.absent.append(qualified)
                continue
            wrapper = self._wrap(qualified, original)
            for namespace in namespaces:
                for attr, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, attr, wrapper)
                        self._restore.append((namespace, attr, original))

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._restore):
            setattr(namespace, attr, original)
        self._restore = []

    def _wrap(self, qualified: str, original):
        label_arg = LABEL_ARGUMENT.get(qualified)
        signature = inspect.signature(original) if label_arg else None
        spans = self.spans
        ids = self._ids
        stacks = self._stacks
        get_ident = threading.get_ident
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            thread = get_ident()
            stack = stacks.get(thread)
            if stack is None:
                stack = stacks.setdefault(thread, [])
            if stack:
                parent = stack[-1]
            else:
                owner = stacks.get(self._owner)
                parent = owner[-1] if owner and thread != self._owner else None
            span_id = next(ids)
            label = None
            if signature is not None:
                bound = signature.bind_partial(*args, **kwargs)
                label = str(bound.arguments.get(label_arg))
            stack.append(span_id)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append(Span(span_id, parent, qualified, thread, start, end, label))

        return traced

    def dump(self, path, extra: dict) -> None:
        """Write every span recorded so far, plus ``extra``, as one JSON file."""
        names = sorted({s.name for s in self.spans})
        index = {name: i for i, name in enumerate(names)}
        record = dict(extra)
        record["absent"] = self.absent
        record["span_fields"] = ["id", "parent", "name", "thread", "start", "end", "label"]
        record["names"] = names
        record["spans"] = [
            [s.id, s.parent, index[s.name], s.thread, s.start, s.end, s.label]
            for s in self.spans
        ]
        with open(path, "w") as f:
            json.dump(record, f)


def covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        hi = min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per traced function: inclusive time, self time and call count.

    Self time is a span's duration minus the part of its interval that its
    child spans cover; children on several worker threads may overlap, so
    their union is subtracted, not their sum.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    totals = {name: {"busy_s": 0.0, "self_s": 0.0, "calls": 0} for name in TRACED_NAMES}
    for s in spans:
        entry = totals[s.name]
        entry["busy_s"] += s.duration
        entry["self_s"] += s.duration - covered(children.get(s.id, []), s.start, s.end)
        entry["calls"] += 1
    return totals
