"""Span recording for traced runs.

A :class:`Tracer` keeps spans (name, start, end, parent, op id) in memory.
Spans come from wrappers around the public names of the library, installed
where the calling modules look them up, and from the benchmark's own call
sites.  Nothing here is active in an untraced run.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import defaultdict

import numpy as np

# Callables reported per layer, as "<module>.<callable>".  Each gets
# ".calls", ".self_ms" and ".share" metrics; each module also gets ".errors".
LAYER_CALLABLES = (
    "linalg.pinv",
    "linalg.rank",
    "linalg.rref",
    "linalg.projection",
    "hypothesis.LinearHypothesis",
    "hypothesis.is_consistent",
    "hypothesis.equivalent",
    "hypothesis.canonical_form",
    "hypothesis.reduce_for_ats",
    "hypothesis.dependence_classes",
    "hypothesis.projection_form",
    "statistics.sample_covariance",
    "statistics.StatisticInput",
    "statistics.wts",
    "statistics.mats",
    "statistics.ats_standardized",
    "statistics.WtsKernel.init",
    "statistics.WtsKernel.evaluate",
    "io.read_matrix_csv",
    "io.read_vector_csv",
    "io.format_matrix_csv",
    "io.write_matrix_csv",
    "io.write_vector_csv",
    "cli.main",
)
LAYER_MODULES = ("linalg", "hypothesis", "statistics", "io", "cli")

# No workload builds a kernel inside an op, so this callable is reported
# over the last set-up instead of per op.
SETUP_CALLABLES = frozenset({"statistics.WtsKernel.init"})

EXTRA_METRICS = (
    ("linalg.pinv.elements", "count/op", "lower"),
    ("linalg.pinv.useful_ratio", "ratio", "higher"),
    ("io.read_matrix_csv.bytes", "B/op", "lower"),
    ("cli.interpreter_ms", "ms", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = []
    for name in LAYER_CALLABLES:
        per = "" if name in SETUP_CALLABLES else "/op"
        spec.append((f"{name}.calls", "count" + per, "lower"))
        spec.append((f"{name}.self_ms", "ms" + per, "lower"))
        spec.append((f"{name}.share", "ratio", "lower"))
    spec.extend((f"{module}.errors", "count", "lower") for module in LAYER_MODULES)
    spec.extend(EXTRA_METRICS)
    return spec


def _pinv_extra(tracer: "Tracer", args, result) -> None:
    a = np.asarray(args[0], dtype=np.float64)
    tracer.count("linalg.pinv.elements", a.size)
    tracer.count("linalg.pinv.dim", a.shape[0])
    # trace(A A^+) is the rank of A: A A^+ projects onto the range of A.
    tracer.count("linalg.pinv.rank", round(float(np.einsum("ij,ji->", a, result))))


def _read_extra(tracer: "Tracer", args, result) -> None:
    tracer.count("io.read_matrix_csv.bytes", os.path.getsize(args[0]))


# (module, attribute, span name, extra): names as the calling modules see them.
LIBRARY_TARGETS = (
    ("quadform.statistics", "pinv", "linalg.pinv", _pinv_extra),
    ("quadform.hypothesis", "pinv", "linalg.pinv", _pinv_extra),
    ("quadform.hypothesis", "rank", "linalg.rank", None),
    ("quadform.hypothesis", "rref", "linalg.rref", None),
    ("quadform.hypothesis", "projection", "linalg.projection", None),
    ("quadform.hypothesis", "is_consistent", "hypothesis.is_consistent", None),
    ("quadform.hypothesis", "equivalent", "hypothesis.equivalent", None),
    ("quadform.hypothesis", "dependence_classes", "hypothesis.dependence_classes", None),
)

CLI_TARGETS = LIBRARY_TARGETS + tuple(
    ("quadform.cli", attr, f"{layer}.{attr}", _read_extra if attr == "read_matrix_csv" else None)
    for layer, attrs in (
        ("hypothesis", ("LinearHypothesis", "canonical_form", "equivalent", "projection_form", "reduce_for_ats")),
        ("io", ("read_matrix_csv", "read_vector_csv", "format_matrix_csv", "write_matrix_csv", "write_vector_csv")),
        ("statistics", ("StatisticInput", "mats", "wts", "ats_standardized")),
    )
    for attr in attrs
) + (
    ("quadform.io", "read_matrix_csv", "io.read_matrix_csv", _read_extra),
    ("quadform.io", "format_matrix_csv", "io.format_matrix_csv", None),
    ("quadform.io", "write_matrix_csv", "io.write_matrix_csv", None),
)


class Tracer:
    """In-memory span store.  ``op`` is the id of the op in progress, -1 in set-up."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.errors: dict[str, int] = defaultdict(int)
        self.op = -1
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.op])
        self._stack.append(idx)
        return idx

    def end(self, idx: int, start: float, end: float) -> None:
        self._stack.pop()
        span = self.spans[idx]
        span[1] = start
        span[2] = end

    def count(self, key: str, value: float) -> None:
        if self.op >= 0:
            self.counters[key] += value

    def wrap(self, fn, name: str, extra=None):
        """``fn`` with a span named ``name`` around every call."""
        module = name.split(".", 1)[0]

        def traced(*args, **kwargs):
            idx = self.begin(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if self.op >= 0:
                    self.errors[module] += 1
                raise
            finally:
                self.end(idx, start, time.perf_counter())
            if extra is not None:
                extra(self, args, result)
            return result

        return traced

    def merge(self, data: dict, parent: int) -> None:
        """Add spans recorded by a child process under span ``parent``."""
        offset = len(self.spans)
        for name, start, end, p, _ in data["spans"]:
            self.spans.append([name, start, end, parent if p < 0 else p + offset, self.op])
        for key, value in data["counters"].items():
            self.counters[key] += value
        for key, value in data["errors"].items():
            self.errors[key] += value

    def write(self, path) -> None:
        data = {"spans": self.spans, "counters": self.counters, "errors": self.errors}
        with open(path, "w") as fh:
            json.dump(data, fh, separators=(",", ":"))


class Patches:
    """Wrappers for module attributes, swapped in and out around traced ops.

    A target whose module or attribute does not exist is skipped and listed
    in ``missing``; its metrics then report zero calls.
    """

    def __init__(self, tracer: Tracer, targets) -> None:
        self.missing: list[str] = []
        self._slots = []
        for module_name, attr, name, extra in targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._slots.append((module, attr, original, tracer.wrap(original, name, extra)))

    def install(self) -> None:
        for module, attr, _, wrapper in self._slots:
            setattr(module, attr, wrapper)

    def remove(self) -> None:
        for module, attr, original, _ in self._slots:
            setattr(module, attr, original)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        max(0.0, (end - start) - _covered(children.get(idx, [])))
        for idx, (name, start, end, parent, _) in enumerate(spans)
    ]


def layer_metrics(tracer: Tracer, setup_s: float) -> dict[str, float]:
    """Per-layer metrics from the spans of traced ops (root spans named ``op``)."""
    spans = tracer.spans
    selfs = self_times(spans)
    ops = [s for s in spans if s[0] == "op" and s[4] >= 0]
    n_ops = max(len(ops), 1)
    op_time = sum(s[2] - s[1] for s in ops) or 1.0
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, selfs):
        name, op = span[0], span[4]
        in_op = op >= 0
        if in_op != (name in SETUP_CALLABLES):
            calls[name] += 1
            self_s[name] += own
    out: dict[str, float] = {}
    for name in LAYER_CALLABLES:
        if name in SETUP_CALLABLES:
            out[f"{name}.calls"] = float(calls[name])
            out[f"{name}.self_ms"] = 1e3 * self_s[name]
            out[f"{name}.share"] = self_s[name] / setup_s if setup_s > 0 else 0.0
        else:
            out[f"{name}.calls"] = calls[name] / n_ops
            out[f"{name}.self_ms"] = 1e3 * self_s[name] / n_ops
            out[f"{name}.share"] = self_s[name] / op_time
    for module in LAYER_MODULES:
        out[f"{module}.errors"] = float(tracer.errors.get(module, 0))
    c = tracer.counters
    out["linalg.pinv.elements"] = c.get("linalg.pinv.elements", 0.0) / n_ops
    dim = c.get("linalg.pinv.dim", 0.0)
    out["linalg.pinv.useful_ratio"] = c.get("linalg.pinv.rank", 0.0) / dim if dim else 0.0
    out["io.read_matrix_csv.bytes"] = c.get("io.read_matrix_csv.bytes", 0.0) / n_ops
    return out
