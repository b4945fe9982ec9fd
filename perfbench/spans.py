"""Span recorder for the traced run, and the per-layer metrics it yields.

The layers are fecount's modules.  Each is measured from outside: the
:class:`Tracer` replaces public functions with wrappers that record one span
per call, in every fecount module namespace that holds the function (for
example ``counting.classify_forest`` is the name ``e_affine`` calls).  The
benchmark adds a ``bench.query`` span around each query, so spans of one
query share its index.

Spans are kept in flat arrays in memory (name, parent, query, start, end)
and written to a file when the run ends.  A span's self time is its
duration minus the durations of its direct children.  The self times of all
spans add up to the time covered by the ``bench.query`` spans, so the layer
self times plus ``bench.self_s`` account for the traced wall time.
"""
from __future__ import annotations

import functools
import json
import logging
import os
import re
import sys
import time
from array import array
from collections import Counter

# (module, attribute) of every wrapped function, in fecount.<module>.
TARGETS = [
    ("arith", "factorial"), ("arith", "binomial"), ("arith", "multinomial"),
    ("arith", "as_natural"), ("arith", "ratio_pow"),
    ("diagrams", "delete_vertex"), ("diagrams", "classify_forest"),
    ("diagrams", "extended_diagram"),
    ("counting", "e_dynkin_recursive"), ("counting", "e_affine"), ("counting", "e_forest"),
    ("counting", "e_dynkin_closed"), ("counting", "e_affine_closed"),
    ("counting", "deg_ll_dynkin"), ("counting", "deg_ll_affine"),
    ("counting", "CountCache.get_affine"), ("counting", "load_cache"), ("counting", "save_cache"),
    ("weyl", "build_root_system"), ("weyl", "count_reflection_factorizations"),
    ("weyl", "coxeter_element"),
    ("verify", "hurwitz_sweep"), ("verify", "table_sweep"),
    ("cli", "main"),
]
MODULES = ("arith", "diagrams", "counting", "weyl", "verify", "cli")
CLOSED_FORMS = ("e_dynkin_closed", "e_affine_closed", "deg_ll_dynkin", "deg_ll_affine")
ROOT = "bench.query"

# Every per-layer metric, in report order, with its unit.
LAYER_METRICS = [
    ("weyl.count_reflection_factorizations.calls", "count"),
    ("weyl.count_reflection_factorizations.self_s", "s"),
    ("weyl.coxeter_element.self_s", "s"),
    ("weyl.us_per_element", "us"),
    ("weyl.elements_visited", "count"),
    ("weyl.build_root_system.calls", "count"),
    ("weyl.build_root_system.self_s", "s"),
    ("diagrams.delete_vertex.calls", "count"),
    ("diagrams.delete_vertex.self_s", "s"),
    ("diagrams.classify_forest.calls", "count"),
    ("diagrams.classify_forest.self_s", "s"),
    ("diagrams.extended_diagram.self_s", "s"),
    ("diagrams.vertices_classified", "count"),
    ("counting.e_dynkin_recursive.self_s", "s"),
    ("counting.e_affine.self_s", "s"),
    ("counting.e_forest.calls", "count"),
    ("counting.e_forest.self_s", "s"),
    ("counting.closed_forms.self_s", "s"),
    ("counting.CountCache.get_affine.calls", "count"),
    ("counting.cache_hit_ratio", "frac"),
    ("counting.load_cache.calls", "count"),
    ("counting.load_cache.self_s", "s"),
    ("counting.save_cache.calls", "count"),
    ("counting.save_cache.self_s", "s"),
    ("counting.cache_file_bytes", "bytes"),
    ("arith.calls", "count"),
    ("arith.self_s", "s"),
    ("verify.hurwitz_sweep.self_s", "s"),
    ("verify.table_sweep.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    *((f"{m}.module_self_s", "s") for m in MODULES),
    ("bench.self_s", "s"),
    ("traced_wall_s", "s"),
    ("trace_overhead_frac", "frac"),
]

_VISITED = re.compile(r"(\d+) elements visited")


def _count_vertices(counters: Counter, args: tuple, result) -> None:
    counters["vertices_classified"] += len(args[0])


def _count_hits(counters: Counter, args: tuple, result) -> None:
    counters["cache_hits"] += result is not None


def _count_bytes(counters: Counter, args: tuple, result) -> None:
    counters["cache_file_bytes"] += os.path.getsize(args[1])


OBSERVERS = {
    "diagrams.classify_forest": _count_vertices,
    "counting.CountCache.get_affine": _count_hits,
    "counting.save_cache": _count_bytes,
}


class _VisitedHandler(logging.Handler):
    """Takes the oracle's "N elements visited" DEBUG record, per query.

    It sits on the ``fecount.weyl`` logger, not on the root logger, so
    ``logging.basicConfig(force=True)`` in ``cli.main`` leaves it in place.
    """

    def __init__(self, tracer: "Tracer") -> None:
        super().__init__(logging.DEBUG)
        self.tracer = tracer

    def emit(self, record: logging.LogRecord) -> None:
        match = _VISITED.search(record.getMessage())
        if match:
            self.tracer.visited.append((self.tracer.query, int(match.group(1))))


class Tracer:
    """In-memory span recorder; :meth:`install` patches fecount, :meth:`remove` restores it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.span_query = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.query = -1
        self.counters: Counter = Counter()
        self.visited: list[tuple[int, int]] = []
        self._patches: list[tuple[object, str, object]] = []
        self._handler = _VisitedHandler(self)
        self._logger_state = None

    def wrap(self, span_name: str, fn, observe=None):
        """``fn`` wrapped so that each call records one span."""
        name_id = len(self.names)
        self.names.append(span_name)
        names, parents, queries = self.name, self.parent, self.span_query
        starts, ends, stack, counters = self.start, self.end, self._stack, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            queries.append(self.query)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if observe is not None:
                observe(counters, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in each loaded fecount module that holds it."""
        loaded = [m for n, m in sys.modules.items() if n == "fecount" or n.startswith("fecount.")]
        for module_name, attr in TARGETS:
            module = sys.modules.get(f"fecount.{module_name}")
            if module is None:
                continue
            span = f"{module_name}.{attr}"
            if "." in attr:
                owner_name, method = attr.split(".")
                owner = getattr(module, owner_name)
                self._patch(owner, method, self.wrap(span, vars(owner)[method], OBSERVERS.get(span)))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(span, original, OBSERVERS.get(span))
            for holder in loaded:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patch(holder, key, wrapper)
        logger = logging.getLogger("fecount.weyl")
        self._logger_state = (logger.level, logger.propagate)
        logger.setLevel(logging.DEBUG)
        logger.propagate = False
        logger.addHandler(self._handler)

    def _patch(self, owner, key: str, wrapper) -> None:
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    def remove(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()
        logger = logging.getLogger("fecount.weyl")
        logger.removeHandler(self._handler)
        if self._logger_state is not None:
            logger.setLevel(self._logger_state[0])
            logger.propagate = self._logger_state[1]

    def aggregate(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, total self time in seconds)."""
        return aggregate(self.names, self.name, self.parent, self.start, self.end)

    def write(self, path: str) -> None:
        """Dump every span: a JSON header line, then the raw arrays."""
        arrays = {"name": self.name, "parent": self.parent, "query": self.span_query,
                  "start": self.start, "end": self.end}
        header = {"names": self.names, "spans": len(self.start),
                  "arrays": [[field, a.typecode] for field, a in arrays.items()]}
        with open(path, "wb") as f:
            f.write((json.dumps(header) + "\n").encode())
            for a in arrays.values():
                a.tofile(f)


def read_spans(path: str) -> tuple[list[str], dict[str, array]]:
    """Inverse of :meth:`Tracer.write`."""
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        arrays = {}
        for field, typecode in header["arrays"]:
            arrays[field] = array(typecode)
            arrays[field].fromfile(f, header["spans"])
    return header["names"], arrays


def aggregate(names, name, parent, start, end) -> dict[str, tuple[int, float]]:
    """Calls and self time per span name; self = duration - direct children."""
    children = [0.0] * len(start)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p] += end[i] - start[i]
    calls = [0] * len(names)
    self_s = [0.0] * len(names)
    for i, n in enumerate(name):
        calls[n] += 1
        self_s[n] += end[i] - start[i] - children[i]
    out: dict[str, tuple[int, float]] = {}
    for n, span in enumerate(names):
        c, s = out.get(span, (0, 0.0))
        out[span] = (c + calls[n], s + self_s[n])
    return out


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float) -> dict[str, float]:
    """Every metric of :data:`LAYER_METRICS` from one traced pass.

    ``traced_wall`` and ``untraced_wall`` time the same pass with and
    without tracing.  The benchmark's own time is the self time of its
    ``bench.query`` spans plus the part of the traced wall time outside them.
    """
    stats = tracer.aggregate()

    def calls(*spans: str) -> int:
        return sum(stats.get(s, (0, 0.0))[0] for s in spans)

    def self_s(*spans: str) -> float:
        return sum(stats.get(s, (0, 0.0))[1] for s in spans)

    module_self = {m: self_s(*(s for s in stats if s.split(".")[0] == m)) for m in MODULES}
    crf = "weyl.count_reflection_factorizations"
    visited = sum(n for _, n in tracer.visited)
    lookups = calls("counting.CountCache.get_affine")
    arith = [f"arith.{a}" for m, a in TARGETS if m == "arith"]
    values = {
        f"{crf}.calls": calls(crf),
        f"{crf}.self_s": self_s(crf),
        "weyl.coxeter_element.self_s": self_s("weyl.coxeter_element"),
        "weyl.us_per_element": 1e6 * self_s(crf) / visited if visited else 0.0,
        "weyl.elements_visited": visited,
        "diagrams.vertices_classified": tracer.counters["vertices_classified"],
        "counting.closed_forms.self_s": self_s(*(f"counting.{f}" for f in CLOSED_FORMS)),
        "counting.cache_hit_ratio": tracer.counters["cache_hits"] / lookups if lookups else 0.0,
        "counting.cache_file_bytes": tracer.counters["cache_file_bytes"],
        "arith.calls": calls(*arith),
        "arith.self_s": self_s(*arith),
        **{f"{m}.module_self_s": module_self[m] for m in MODULES},
        "bench.self_s": self_s(ROOT) + traced_wall - sum(
            e - s for p, s, e in zip(tracer.parent, tracer.start, tracer.end) if p < 0),
        "traced_wall_s": traced_wall,
        "trace_overhead_frac": traced_wall / untraced_wall - 1,
    }
    for metric, _ in LAYER_METRICS:
        if metric not in values:
            span, _, kind = metric.rpartition(".")
            values[metric] = calls(span) if kind == "calls" else self_s(span)
    return {metric: values[metric] for metric, _ in LAYER_METRICS}
