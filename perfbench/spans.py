"""Outside-in tracing: wrap the solver's public functions at their import
sites, record one span per call, and turn the spans into per-layer numbers.

Nothing inside the program is changed on disk; the wrappers are installed in
the traced worker process only. A span is (name, start, end, parent, result);
spans are kept in memory and written out once the traced solve has ended.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from dataclasses import dataclass, field

# (module, attribute, span name). A function imported into several modules is
# wrapped at every site that calls it, e.g. `adaptive_descent` in the solver
# (global descent) and in region search (local descents).
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("mwis.formats", "parse_metis", "formats.parse"),
    ("mwis.solver", "solve", "solver"),
    ("mwis.solver", "reduce_graph", "reduction.reduce"),
    ("mwis.solver", "lift_solution", "reduction.lift"),
    ("mwis.solver", "build_initial_solution", "construct.initial"),
    ("mwis.solver", "adaptive_descent", "descent"),
    ("mwis.solver", "region_search", "region"),
    ("mwis.solver", "composite_search", "exchange.composite"),
    ("mwis.solver", "composite_search_loop", "exchange.composite_loop"),
    ("mwis.region", "build_local_graph", "region.build"),
    ("mwis.region", "adaptive_descent", "region.local_descent"),
    ("mwis.descent", "run_module_a", "exchange.module_a"),
    ("mwis.descent", "perturb_solution", "perturb"),
    ("mwis.exchange", "run_module_a", "exchange.module_a"),
    ("mwis.exchange", "run_em_module", "exchange.em"),
    ("mwis.exchange", "run_module_b", "exchange.module_b"),
    ("mwis.exchange", "composite_search", "exchange.composite"),
    ("mwis.exchange", "perturb_solution", "perturb"),
    ("mwis.state", "SolutionState.maximize", "state.maximize"),
    ("mwis.state", "SolutionState.reset_solution", "state.reset"),
    ("mwis.graph", "Graph.is_independent", "graph.verify"),
)

# Spans whose return value is kept: exchange modules report success as a
# bool; reduction and construction results feed the kernel and weight counts.
KEEP_RESULT = {
    "exchange.module_a",
    "exchange.em",
    "exchange.module_b",
    "reduction.reduce",
    "construct.initial",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    result: object = None


@dataclass
class Tracer:
    clock: object = time.perf_counter
    spans: list[Span] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)
    region_stats: list[dict] = field(default_factory=list)
    splices: int = 0
    _stack: list[int] = field(default_factory=list)

    def wrap(self, name: str, fn, before=None):
        """`fn` recording one span per call; `before` may rewrite the arguments."""
        keep = name in KEEP_RESULT
        clock = self.clock
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            span = Span(name, clock(), 0.0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if keep:
                span.result = result
            return result

        return traced

    def install(self, targets=TARGETS) -> None:
        """Wrap every target that exists; list the others as missing."""
        for module_name, attr, name in targets:
            try:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                fn = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            before = self._region_args(fn) if name == "region" else None
            setattr(owner, leaf, self.wrap(name, fn, before))

    def _region_args(self, fn):
        """Collect region-search centers through `stats_out` and count splices
        as calls of the improvement callback."""
        sig = inspect.signature(fn)
        has_stats = "stats_out" in sig.parameters
        has_callback = "on_improve" in sig.parameters
        if not has_stats:
            self.missing.append("region_search(stats_out=)")
        if not has_callback:
            self.missing.append("region_search(on_improve=)")

        def before(args, kwargs):
            bound = sig.bind(*args, **kwargs)
            if has_stats:
                stats: dict = {}
                self.region_stats.append(stats)
                bound.arguments["stats_out"] = stats
            if has_callback:
                inner = bound.arguments.get("on_improve")

                def counted(weight):
                    self.splices += 1
                    if inner is not None:
                        inner(weight)

                bound.arguments["on_improve"] = counted
            return bound.args, bound.kwargs

        return before

    def write(self, path) -> None:
        with open(path, "w") as out:
            for s in self.spans:
                rec = {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent}
                if isinstance(s.result, bool):
                    rec["ok"] = s.result
                out.write(json.dumps(rec) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval covered by its
    direct children."""
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children.setdefault(s.parent, []).append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(i, ()), key=lambda c: spans[c].start):
            lo = max(spans[c].start, reach)
            hi = min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out


@dataclass
class LayerTotals:
    calls: int = 0
    total_s: float = 0.0  # inclusive
    self_s: float = 0.0
    true_calls: int = 0


def totals_by_name(spans: list[Span]) -> dict[str, LayerTotals]:
    selfs = self_times(spans)
    out: dict[str, LayerTotals] = {}
    for s, own in zip(spans, selfs):
        t = out.setdefault(s.name, LayerTotals())
        t.calls += 1
        t.total_s += s.end - s.start
        t.self_s += own
        if s.result is True:
            t.true_calls += 1
    return out


def vertexset_contains_ns(reps: int = 5, lookups: int = 200_000) -> float:
    """Median cost of one `v in VertexSet` test, half hits and half misses."""
    from mwis import VertexSet

    members = VertexSet(range(0, 2000, 2))
    probes = list(range(2000)) * (lookups // 2000)
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for v in probes:
            v in members  # the timed membership test
        samples.append((time.perf_counter() - t0) / len(probes) * 1e9)
    samples.sort()
    return samples[len(samples) // 2]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers of one traced solve (see BENCHMARK.json)."""
    spans = tracer.spans
    by = totals_by_name(spans)

    def get(name: str) -> LayerTotals:
        return by.get(name, LayerTotals())

    m: dict[str, float] = {"formats.parse_s": get("formats.parse").total_s}
    m["reduction.reduce_s"] = get("reduction.reduce").total_s
    kernels = [s.result for s in spans if s.name == "reduction.reduce"]
    kernel = kernels[-1] if kernels else None
    kinds = {"take": 0, "defer": 0, "drop": 0, "fold": 0}
    if kernel is not None:
        for entry in kernel.trace:
            kinds[entry[0]] = kinds.get(entry[0], 0) + 1
        m["reduction.kernel_n"] = kernel.graph.n
        m["reduction.kernel_m"] = kernel.graph.m
    else:
        m["reduction.kernel_n"] = m["reduction.kernel_m"] = 0
    for kind in ("take", "defer", "drop", "fold"):
        m[f"reduction.{kind}"] = kinds[kind]
    m["reduction.lift_s"] = get("reduction.lift").total_s

    m["construct.initial_s"] = get("construct.initial").total_s
    initial = [s.result for s in spans if s.name == "construct.initial"]
    if initial and kernel is not None:
        m["construct.initial_weight"] = kernel.graph.set_weight(initial[0]) + kernel.offset
    else:
        m["construct.initial_weight"] = 0

    m["state.maximize.calls"] = get("state.maximize").calls
    m["state.maximize_s"] = get("state.maximize").total_s
    m["state.reset_s"] = get("state.reset").total_s

    for module in ("module_a", "em", "module_b"):
        t = get(f"exchange.{module}")
        m[f"exchange.{module}.calls"] = t.calls
        m[f"exchange.{module}.s"] = t.total_s
        m[f"exchange.{module}.success_ratio"] = t.true_calls / t.calls if t.calls else 0.0
    m["exchange.composite.calls"] = get("exchange.composite").calls

    m["perturb.calls"] = get("perturb").calls
    m["perturb.s"] = get("perturb").total_s

    descent = get("descent")
    m["descent.calls"] = descent.calls
    m["descent.self_s"] = descent.self_s
    m["descent.rounds"] = sum(
        1
        for s in spans
        if s.name == "exchange.module_a" and s.parent >= 0 and spans[s.parent].name == "descent"
    )

    region = get("region")
    m["region.calls"] = region.calls
    m["region.s"] = region.total_s
    m["region.centers"] = sum(st.get("centers", 0) for st in tracer.region_stats)
    m["region.splices"] = tracer.splices
    m["region.build_s"] = get("region.build").total_s
    m["region.local_descent_s"] = get("region.local_descent").total_s

    m["graph.verify_s"] = get("graph.verify").total_s
    m["solver.self_s"] = get("solver").self_s
    m["trace.missing_targets"] = len(tracer.missing)
    return m
