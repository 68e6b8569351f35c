"""Per-layer spans recorded from outside ctrlgauge.

The tracer replaces each public entry point, in every ctrlgauge module
namespace that holds it, by a wrapper that records a span: its name, start,
end and parent span. Replacing the name where the caller looks it up is what
makes calls between modules visible: `control` imports `contains_point` and
the region builders by name, `cli` imports `min_time` and the model loaders
by name, and `control` reaches the LP layer through the `lp` module. The
three `Zonotope` methods are replaced on the class. Nothing in ctrlgauge is
edited; `uninstall` puts every original back.

Spans stay in memory. Work counts that the layer metrics need (LP columns,
determinants summed, sign sums, samples) are noted on the span from the
call's arguments and result, so no extra program work is done.
"""

from __future__ import annotations

import importlib
import math
import time

MODULES = ("model", "region", "zonotope", "lp", "control", "oracle", "cli")

# (module, function) pairs wrapped as functions.
FUNCTIONS = (
    ("model", "load_model"),
    ("model", "normalize_full"),
    ("region", "stage_generators"),
    ("region", "reach_region"),
    ("region", "recover_region"),
    ("region", "region_summary"),
    ("zonotope", "contains_point"),
    ("lp", "feasible"),
    ("lp", "optimize"),
    ("lp", "max_margin"),
    ("control", "min_time"),
    ("control", "strategy_space_dim"),
    ("control", "compare_ability"),
    ("control", "verify_theorem1"),
    ("oracle", "brute_vertices"),
    ("oracle", "mc_volume"),
    ("oracle", "exhaustive_min_time"),
    ("oracle", "verification_suite"),
    ("cli", "main"),
)

# Zonotope methods wrapped on the class.
METHODS = ("vertices", "volume", "shape_report")

LP_CALLS = ("lp.feasible", "lp.optimize", "lp.max_margin")


def _lp_note(args, kwargs, result, exc):
    box = args[0] if args else kwargs.get("lp")
    note = {"columns": int(box.G.shape[1])}
    if exc is not None:
        note["infeasible"] = type(exc).__name__ == "Infeasible"
    elif hasattr(result, "feasible"):
        note["infeasible"] = not result.feasible
    return note


def _vertices_note(args, kwargs, result, exc):
    return {"rows": int(result.shape[0])} if exc is None else None


def _volume_note(args, kwargs, result, exc):
    # volume() sums one determinant per n-subset when the set is full rank
    if exc is not None or not result > 0.0:
        return {"determinants": 0}
    m, n = args[0].generators.shape
    return {"determinants": math.comb(m, n)}


def _brute_note(args, kwargs, result, exc):
    z = args[0]
    gens = z.generators if hasattr(z, "generators") else z
    return {"sign_sums": 2 ** int(len(gens))}


def _mc_note(args, kwargs, result, exc):
    return {"samples": int(result.samples)} if exc is None else None


NOTES = {
    "lp.feasible": _lp_note,
    "lp.optimize": _lp_note,
    "lp.max_margin": _lp_note,
    "zonotope.vertices": _vertices_note,
    "zonotope.volume": _volume_note,
    "oracle.brute_vertices": _brute_note,
    "oracle.mc_volume": _mc_note,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "note")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.note = None

    def to_list(self):
        return [self.name, self.start, self.end, self.parent, self.note]


class Tracer:
    """Records spans around ctrlgauge's entry points while installed."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        note = NOTES.get(name)
        clock = time.process_time  # the clock of the end-to-end figures

        def wrapper(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            result = exc = None
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                span.end = clock()
                stack.pop()
                if note is not None:
                    span.note = note(args, kwargs, result, exc)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def install(self):
        if self._restore:
            raise RuntimeError("tracer is already installed")
        package = importlib.import_module("ctrlgauge")
        modules = [package] + [
            importlib.import_module(f"ctrlgauge.{m}") for m in MODULES
        ]
        for mod_name, attr in FUNCTIONS:
            original = getattr(importlib.import_module(f"ctrlgauge.{mod_name}"), attr)
            wrapper = self._wrap(f"{mod_name}.{attr}", original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)
        zonotope_cls = importlib.import_module("ctrlgauge.zonotope").Zonotope
        for attr in METHODS:
            original = zonotope_cls.__dict__[attr]
            self._restore.append((zonotope_cls, attr, original))
            setattr(zonotope_cls, attr, self._wrap(f"zonotope.{attr}", original))

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore = []

    def mark(self):
        """Index of the next span, used to cut the record into rounds."""
        return len(self.spans)


def round_counts(spans, lo, hi):
    """Work counts of spans[lo:hi], one round; these repeat exactly."""
    counts = {}

    def add(key, value):
        counts[key] = counts.get(key, 0) + value

    lp_in_min_time = 0
    for i in range(lo, hi):
        span = spans[i]
        add(f"{span.name}.calls", 1)
        note = span.note or {}
        for key, value in note.items():
            if key == "columns":
                add("lp.columns", value)
            else:
                add(f"{span.name}.{key}", int(value))
        if span.name in LP_CALLS and _has_ancestor(spans, i, "control.min_time"):
            lp_in_min_time += 1
    counts["control.min_time.lp_calls"] = lp_in_min_time
    return counts


def _has_ancestor(spans, i, name):
    p = spans[i].parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def times(spans, lo, hi):
    """Busy (inclusive) and self seconds per span name over spans[lo:hi].

    Busy time counts only the outermost span of a name, so a name nested in
    itself is not counted twice. Self time is a span's duration minus its
    direct children's; calls are synchronous, so children never overlap.
    """
    busy = {}
    child = [0.0] * (hi - lo)
    for i in range(lo, hi):
        span = spans[i]
        dur = span.end - span.start
        if span.parent >= lo:
            child[span.parent - lo] += dur
        if not _has_ancestor(spans, i, span.name):
            busy[span.name] = busy.get(span.name, 0.0) + dur
    own = {}
    for i in range(lo, hi):
        span = spans[i]
        own[span.name] = own.get(span.name, 0.0) + (
            span.end - span.start - child[i - lo]
        )
    return busy, own
