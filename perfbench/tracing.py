"""Span tracing of liecomposite from outside the package.

``instrument`` replaces the public entry points of each module with
wrappers that record spans in a ``Tracer``; it patches every name under
which a caller looks a function up (``findim.nullspace`` as well as
``linalg.nullspace``) and the methods on the value classes, and returns a
function that puts the originals back.  Spans stay in memory as parallel
lists (name, parent, calls, inclusive seconds, first start, last end).
The finest ``exact`` operations are aggregated per (parent span, name),
which bounds memory; every other call is a span of its own.  The program
is single-threaded, so child spans never overlap and a span's self time
is its duration minus the sum of its children's durations.
"""

from __future__ import annotations

import functools
import json
import sys
import time

ROOT = -1

# (module, attribute, span name).  A dotted attribute is a method.  Span
# names are "<module>.<operation>"; the module is the layer.
EXACT_OPS = (
    ("exact", "RationalFunc.__add__", "exact.add"),
    ("exact", "RationalFunc.__radd__", "exact.add"),
    ("exact", "RationalFunc.__sub__", "exact.add"),
    ("exact", "RationalFunc.__rsub__", "exact.add"),
    ("exact", "RationalFunc.__neg__", "exact.add"),
    ("exact", "RationalFunc.__mul__", "exact.mul"),
    ("exact", "RationalFunc.__rmul__", "exact.mul"),
    ("exact", "RationalFunc.__pow__", "exact.mul"),
    ("exact", "RationalFunc.__truediv__", "exact.div"),
    ("exact", "RationalFunc.__rtruediv__", "exact.div"),
    ("exact", "RationalFunc.reciprocal", "exact.div"),
    ("exact", "RationalFunc.__eq__", "exact.eq"),
    ("exact", "RationalFunc.__hash__", "exact.eq"),
    ("exact", "RationalFunc.shift_arg", "exact.shift_arg"),
    ("exact", "RationalFunc.evaluate", "exact.eval"),
    ("exact", "substitute_h", "exact.eval"),
)

SPAN_OPS = (
    ("shiftop", "ShiftOperator.compose", "shiftop.compose"),
    ("shiftop", "ShiftOperator.commutator", "shiftop.commutator"),
    ("shiftop", "ShiftOperator.adjoint", "shiftop.adjoint"),
    ("shiftop", "ShiftOperator.classify", "shiftop.classify"),
    ("shiftop", "ShiftOperator.hs_partial_sums", "shiftop.hs_partial_sums"),
    ("shiftop", "ShiftOperator.truncate_numeric", "shiftop.truncate_numeric"),
    ("shiftop", "ShiftOperator.apply_to_monomial", "shiftop.apply_to_monomial"),
    ("shiftop", "ShiftOperator.__add__", "shiftop.add"),
    ("shiftop", "ShiftOperator.__radd__", "shiftop.add"),
    ("shiftop", "ShiftOperator.__sub__", "shiftop.add"),
    ("shiftop", "ShiftOperator.__neg__", "shiftop.add"),
    ("shiftop", "ShiftOperator.scale", "shiftop.scale"),
    ("shiftop", "ShiftOperator.__eq__", "shiftop.eq"),
    ("shiftop", "ShiftOperator.__hash__", "shiftop.eq"),
    ("verma", "check_witt_composite", "verma.check_witt_composite"),
    ("verma", "check_extended_composite", "verma.check_extended_composite"),
    ("verma", "check_symmetric", "verma.check_symmetric"),
    ("verma", "check_absolutely_symmetric", "verma.check_absolutely_symmetric"),
    ("verma", "check_absolutely_closed", "verma.check_absolutely_closed"),
    ("verma", "check_hs_deviations", "verma.check_hs_deviations"),
    ("verma", "tail_equivalence_report", "verma.tail_equivalence_report"),
    ("verma", "tail_square_equivalence", "verma.tail_square_equivalence"),
    ("verma", "tail_square_probe", "verma.tail_square_probe"),
    ("linalg", "rref", "linalg.rref"),
    ("linalg", "rank", "linalg.rank"),
    ("linalg", "nullspace", "linalg.nullspace"),
    ("linalg", "column_span_contains", "linalg.column_span_contains"),
    ("linalg", "independent_columns", "linalg.independent_columns"),
    ("linalg", "column_space_intersection", "linalg.column_space_intersection"),
    ("linalg", "solve_columns", "linalg.solve_columns"),
    ("linalg", "mat_mul", "linalg.mat_mul"),
    ("linalg", "mat_add", "linalg.mat_add"),
    ("linalg", "mat_sub", "linalg.mat_sub"),
    ("linalg", "mat_commutator", "linalg.mat_commutator"),
    ("linalg", "mat_trace", "linalg.mat_trace"),
    ("linalg", "kron", "linalg.kron"),
    ("linalg", "symmetric_signature", "linalg.symmetric_signature"),
    ("findim", "check_compatibility", "findim.check_compatibility"),
    ("findim", "check_dense", "findim.check_dense"),
    ("findim", "check_connected", "findim.check_connected"),
    ("findim", "check_representation", "findim.check_representation"),
    ("findim", "commutant_dimension", "findim.commutant_dimension"),
    ("findim", "intersect_subspaces", "findim.intersect_subspaces"),
    ("findim", "FinDimRep.ambient_matrix", "findim.ambient_matrix"),
    ("findim", "SubspaceAlgebra.bracket_coords", "findim.bracket_coords"),
    ("octa", "build_octahedron", "octa.build_octahedron"),
    ("octa", "so4_composite_rep", "octa.so4_composite_rep"),
    ("octa", "extract_so4", "octa.extract_so4"),
    ("octa", "killing_certificate", "octa.killing_certificate"),
    ("report", "CheckReport.build", "report.build"),
    ("report", "CheckItem.to_dict", "report.to_dict"),
    ("cli", "run", "cli.run"),
    ("cli", "_render", "cli.render"),
)

LAYERS = ("cli", "errors", "exact", "findim", "linalg", "octa", "report", "shiftop", "verma")

VERMA_CHECKERS = (
    "check_absolutely_closed",
    "check_witt_composite",
    "check_extended_composite",
    "check_symmetric",
    "check_absolutely_symmetric",
    "check_hs_deviations",
    "tail_equivalence_report",
)

# Per-layer metrics, in the order BENCHMARK.json lists them.
PER_LAYER = (
    *[(f"exact.{op}.{kind}", "count" if kind == "calls" else "s")
      for op in ("mul", "add", "div", "eq", "shift_arg", "eval")
      for kind in ("calls", "self_s")],
    ("exact.self_s", "s"),
    *[(f"shiftop.{op}.{kind}", "count" if kind == "calls" else "s")
      for op in ("commutator", "classify", "compose", "adjoint", "hs_partial_sums")
      for kind in ("calls", "s")],
    ("shiftop.self_s", "s"),
    *[(f"verma.{checker}.s", "s") for checker in VERMA_CHECKERS],
    ("verma.op_cache.hit_ratio", "ratio"),
    ("verma.op_cache.lookups", "count"),
    ("verma.deviation_cache.hit_ratio", "ratio"),
    ("verma.deviation_cache.lookups", "count"),
    ("verma.self_s", "s"),
    ("linalg.rref.calls", "count"),
    ("linalg.rref.self_s", "s"),
    ("linalg.rref.entries", "count"),
    ("linalg.mat_mul.calls", "count"),
    ("linalg.mat_mul.self_s", "s"),
    ("linalg.nullspace.calls", "count"),
    ("linalg.column_span_contains.calls", "count"),
    ("linalg.self_s", "s"),
    ("findim.commutant_dimension.s", "s"),
    ("findim.check_representation.calls", "count"),
    ("findim.check_representation.s", "s"),
    ("findim.self_s", "s"),
    ("octa.extract_so4.s", "s"),
    ("octa.killing_certificate.s", "s"),
    ("octa.self_s", "s"),
    ("cli.render.s", "s"),
    ("cli.payload_bytes", "B"),
    ("report.self_s", "s"),
    *[(f"{layer}.src_lines", "lines") for layer in LAYERS],
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
)


class Tracer:
    """Spans of one traced run, kept in memory until ``write``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.parents: list[int] = []
        self.calls: list[int] = []
        self.totals: list[float] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counters: dict[str, int] = {}
        self._groups: dict[tuple[int, str], int] = {}
        self._stack: list[int] = []

    def new_node(self, name: str, parent: int) -> int:
        self.names.append(name)
        self.parents.append(parent)
        self.calls.append(0)
        self.totals.append(0.0)
        self.starts.append(0.0)
        self.ends.append(0.0)
        return len(self.names) - 1

    def record(self, node: int, start: float, end: float) -> None:
        if not self.calls[node]:
            self.starts[node] = start
        self.calls[node] += 1
        self.totals[node] += end - start
        self.ends[node] = end

    def wrap(self, name: str, fn, aggregate: bool = False):
        """``fn`` recording one span per call, or one node per (parent, name)."""
        clock, stack, groups = self.clock, self._stack, self._groups

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else ROOT
            if aggregate:
                node = groups.get((parent, name))
                if node is None:
                    node = groups[(parent, name)] = self.new_node(name, parent)
            else:
                node = self.new_node(name, parent)
            stack.append(node)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.record(node, start, end)

        return traced

    def count(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def write(self, path) -> None:
        """One JSON line per node: id, name, parent, calls, seconds, start, end."""
        selfs = self_times(self.parents, self.totals)
        with open(path, "w", encoding="utf-8") as handle:
            for node, name in enumerate(self.names):
                handle.write(json.dumps([
                    node, name, self.parents[node], self.calls[node],
                    self.totals[node], selfs[node], self.starts[node], self.ends[node],
                ]) + "\n")


def self_times(parents, totals) -> list:
    """Self seconds per node: its inclusive time minus its children's."""
    out = list(totals)
    for node, parent in enumerate(parents):
        if parent != ROOT:
            out[parent] -= totals[node]
    return out


def outermost(names, parents) -> list:
    """Whether each node has no ancestor of the same name.

    Inclusive seconds of a name are summed over these nodes only, so a
    span nested in one of its own kind (a sub calling a neg) is not
    counted twice.
    """
    flags = []
    for node, name in enumerate(names):
        parent = parents[node]
        while parent != ROOT and names[parent] != name:
            parent = parents[parent]
        flags.append(parent == ROOT)
    return flags


def summarize(tracer: Tracer) -> dict:
    """Per-name calls, inclusive and self seconds, and per-layer self seconds."""
    selfs = self_times(tracer.parents, tracer.totals)
    outer = outermost(tracer.names, tracer.parents)
    per_name: dict[str, dict] = {}
    per_layer = {layer: 0.0 for layer in LAYERS}
    for node, name in enumerate(tracer.names):
        entry = per_name.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += tracer.calls[node]
        entry["self_s"] += selfs[node]
        if outer[node]:
            entry["s"] += tracer.totals[node]
        layer = name.split(".", 1)[0]
        per_layer[layer] = per_layer.get(layer, 0.0) + selfs[node]
    return {"names": per_name, "layers": per_layer, "nodes": len(tracer.names)}


def layer_metrics(summary: dict, counters: dict) -> dict:
    """The traced part of PER_LAYER, from a summary and the tracer's counters."""
    names, layers = summary["names"], summary["layers"]
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}
    out = {}
    for metric, _unit in PER_LAYER:
        parts = metric.split(".")
        if len(parts) == 2 and parts[1] == "self_s":
            out[metric] = layers.get(parts[0], 0.0)
        elif len(parts) == 3 and parts[2] in zero:
            out[metric] = names.get(f"{parts[0]}.{parts[1]}", zero)[parts[2]]
    out["linalg.rref.entries"] = counters.get("linalg.rref.entries", 0)
    out["trace.spans"] = summary["nodes"]
    return out


def _modules():
    return {
        name.split(".", 1)[1]: module
        for name, module in list(sys.modules.items())
        if name.startswith("liecomposite.") and module is not None
    }


def instrument(tracer: Tracer):
    """Patch liecomposite's entry points to record into ``tracer``.

    Returns a function that restores every patched name.  The package's
    modules must already be imported.
    """
    modules = _modules()
    package = sys.modules["liecomposite"]
    restore = []

    def patch(owner, attr, new):
        restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def rref_counted(traced):
        @functools.wraps(traced)
        def counted(a):
            tracer.count("linalg.rref.entries", len(a) * (len(a[0]) if a else 0))
            return traced(a)
        return counted

    for table, aggregate in ((EXACT_OPS, True), (SPAN_OPS, False)):
        for module_name, attr, span in table:
            module = modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                raw = vars(cls)[method]
                if isinstance(raw, classmethod):
                    traced = classmethod(tracer.wrap(span, raw.__func__, aggregate))
                else:
                    traced = tracer.wrap(span, raw, aggregate)
                patch(cls, method, traced)
                continue
            original = getattr(module, attr)
            traced = tracer.wrap(span, original, aggregate)
            if span == "linalg.rref":
                traced = rref_counted(traced)
            # every module namespace that bound the same function object
            for owner in (package, *modules.values()):
                for name, value in list(vars(owner).items()):
                    if value is original:
                        patch(owner, name, traced)

    def undo():
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)

    return undo


def cache_metrics() -> dict:
    """Hit ratios of the process-wide operator caches, read from cache_info()."""
    verma = sys.modules["liecomposite.verma"]
    out = {}
    for metric, caches in (
        ("verma.op_cache", (verma._op_e, verma._op_f)),
        ("verma.deviation_cache", (verma._deviation_sym,)),
    ):
        infos = [cache.cache_info() for cache in caches]
        hits = sum(info.hits for info in infos)
        lookups = hits + sum(info.misses for info in infos)
        out[f"{metric}.hit_ratio"] = hits / lookups if lookups else 0.0
        out[f"{metric}.lookups"] = lookups
    return out
