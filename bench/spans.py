"""Spans around the package's public functions, for the traced run only.

`Tracer.install` rebinds, in every loaded `listprivacy` module, each name in
TRACED to a wrapper that records a span (name, layer, start, end, parent span,
operation id) and a few work counters. Callers look the names up at call time,
so nested calls between modules (for example `oracle.solve_lp`) are seen too.
Spans stay in memory until the run ends. Nothing in the package is edited.
"""

from __future__ import annotations

import importlib
import math
import sys
from collections import Counter
from dataclasses import dataclass
from time import process_time_ns

# Layer (module) -> public functions timed in it.
TRACED = {
    "simplex": ("solve_lp",),
    "oracle": ("exact_privacy", "exact_privacy_curve", "lp_text"),
    "envelope": (
        "enumerate_lines",
        "anchor_set",
        "privacy_bound",
        "privacy_curve",
        "first_breakpoint",
        "privacy_at_zero",
        "privacy_at_one",
        "curve_to_text",
        "curve_segments_csv",
        "curve_samples_csv",
    ),
    "mechanisms": (
        "uniform_qr",
        "deterministic_qr",
        "add_noise_qr",
        "optimal_binary_qr",
        "ternary_example_qr",
        "matrix_to_text",
        "parse_matrix",
        "parse_noise",
    ),
    "adversary": ("list_privacy", "map_list_estimator", "report_to_jsonable"),
    "simulate": ("simulate_game", "privacy_sweep", "sweep_to_csv"),
    "core": ("parse_instance", "validate_instance"),
    "cli": ("main",),
}
ROOT = "harness"  # layer of the per-operation root span


@dataclass
class Span:
    name: str
    layer: str
    parent: int  # index into the span list, -1 for a root
    op: int
    start: int = 0  # process CPU time, ns
    end: int = 0
    raised: bool = False


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _count(tracer: "Tracer", span: Span, args, kwargs, result):
    """Work counters, taken where the work happens."""
    c = tracer.counters
    if span.name == "solve_lp":
        c["simplex.rows"] += len(_arg(args, kwargs, 1, "rows"))
    elif span.name == "exact_privacy":
        inst = _arg(args, kwargs, 0, "inst")
        c["oracle.list_rows"] += inst.k * math.comb(inst.r, inst.l)
    elif span.name == "enumerate_lines":
        c["envelope.lines_enumerated"] += len(result)
        parent = tracer.spans[span.parent] if span.parent >= 0 else None
        if parent is not None and parent.name == "privacy_curve":
            c["envelope.curve_lines"] += len(result)
    elif span.name == "privacy_curve":
        c["envelope.hull_segments"] += len(result.segments)
    elif span.name == "simulate_game":
        c["simulate.trials"] += _arg(args, kwargs, 3, "trials")


class Tracer:
    def __init__(self, clock=process_time_ns):
        """`clock` returns CPU nanoseconds; the benchmark passes one that
        leaves out its speed probe."""
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def open(self, name: str, layer: str, op: int) -> Span:
        span = Span(name, layer, self._stack[-1] if self._stack else -1, op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = self.clock()
        return span

    def close(self, span: Span):
        span.end = self.clock()
        self._stack.pop()

    def _wrap(self, layer: str, fn):
        name = fn.__name__

        def traced(*args, **kwargs):
            parent = self.spans[self._stack[-1]] if self._stack else None
            span = self.open(name, layer, parent.op if parent else -1)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.raised = True
                raise
            finally:
                self.close(span)
            _count(self, span, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package: str = "listprivacy"):
        """Rebind every traced name wherever a package module holds it."""
        homes = {layer: importlib.import_module(f"{package}.{layer}") for layer in TRACED}
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == package or n.startswith(package + "."))
        ]
        for layer, names in TRACED.items():
            for name in names:
                original = getattr(homes[layer], name)
                wrapper = self._wrap(layer, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._undo.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()


def _covered(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it its child spans cover."""
    children: list[list[tuple[int, int]]] = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [
        s.end - s.start - _covered(children[i], s.start, s.end)
        for i, s in enumerate(spans)
    ]


def layer_metrics(tracer: Tracer, ops: int, factor: float = 1.0) -> dict[str, float]:
    """Per-operation calls and self seconds per layer, plus the work counters.
    Self seconds are CPU seconds times `factor`."""
    calls: Counter = Counter()
    busy: Counter = Counter()
    tracebacks = 0
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        busy[span.layer] += own
        if span.layer != ROOT:
            calls[span.layer] += 1
        if span.layer == "cli" and span.raised:
            tracebacks += 1
    c = tracer.counters
    per_op = max(ops, 1)
    out: dict[str, float] = {}
    for layer in TRACED:
        out[f"{layer}.calls"] = calls[layer] / per_op
        out[f"{layer}.self_s"] = busy[layer] / 1e9 * factor / per_op
    out[f"{ROOT}.self_s"] = busy[ROOT] / 1e9 * factor / per_op
    out["simplex.rows"] = c["simplex.rows"] / per_op
    out["oracle.list_rows"] = c["oracle.list_rows"] / per_op
    out["envelope.lines_enumerated"] = c["envelope.lines_enumerated"] / per_op
    out["envelope.hull_ratio"] = (
        c["envelope.hull_segments"] / c["envelope.curve_lines"] if c["envelope.curve_lines"] else 0.0
    )
    out["simulate.trials"] = c["simulate.trials"] / per_op
    out["cli.tracebacks"] = tracebacks / per_op
    return out


def spans_to_jsonable(spans: list[Span]) -> list[list]:
    return [[s.name, s.layer, s.start, s.end, s.parent, s.op] for s in spans]
