"""Span tracing from outside the engine.

The engine has no tracing of its own yet, so the traced run wraps the public
entry point of each layer in place (patching the attribute on the module or
class the caller looks it up on) and records one span per call: name, start,
end, parent span and the id of the benchmark operation (query, commit or
recovery) that caused it.  Spans stay in memory and are written out as JSON
lines when the run ends.

Self time is a span's duration minus the time its child spans cover.  One
process and one thread drive every call, so child spans nest strictly inside
their parent and never overlap each other.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

#: Child spans must lie inside their parent and, with the parent's self
#: time, account for it to within this share of its duration.
ACCOUNTING_TOLERANCE = 1e-6


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    op: int = -1
    counters: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


class Tracer:
    """In-memory span recorder with a stack of open spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1
        self._restore: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self._op = op_id

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent, op=self._op))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        return span

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield self.spans[index]
        finally:
            self._close(index)

    # -- patching ---------------------------------------------------------------

    def wrap(self, owner, attribute: str, name, after=None) -> None:
        """Replace ``owner.attribute`` with a timed wrapper until :meth:`unpatch`.

        ``name`` is the span name, or a callable mapping the call's arguments
        to one.  ``after(span, result, args, kwargs)`` may attach counters.
        """
        original = getattr(owner, attribute)
        # Restore the raw class attribute (a classmethod stays a classmethod).
        raw = vars(owner).get(attribute, original) if isinstance(owner, type) else original
        tracer = self

        def traced(*args, **kwargs):
            span_name = name(*args, **kwargs) if callable(name) else name
            index = tracer._open(span_name)
            try:
                result = original(*args, **kwargs)
            finally:
                span = tracer._close(index)
            if after is not None:
                after(span, result, args, kwargs)
            return result

        traced.__wrapped__ = original
        setattr(owner, attribute, traced)
        self._restore.append((owner, attribute, raw))

    def unpatch(self) -> None:
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": span.name, "parent": span.parent,
                    "op": span.op, "start": span.start, "end": span.end,
                    **({"counters": span.counters} if span.counters else {}),
                }) + "\n")


def install_layer_spans(tracer: Tracer) -> None:
    """Wrap every traced entry point of the engine's layers."""
    import repro.core.cache as cache_module
    import repro.core.direct as direct_module
    import repro.core.engine as engine_module
    import repro.db.wal as wal_module
    import repro.ilp.branch_and_bound as bb_module
    from repro.core.sketchrefine import SketchRefineEvaluator
    from repro.dataset.table import Table
    from repro.db.catalog import Database
    from repro.exec.pool import SolvePool
    from repro.ilp.branch_and_bound import BranchAndBoundSolver
    from repro.partition.maintenance import PartitionMaintainer

    def frame_bytes(span, frame, args, kwargs):
        span.counters["bytes"] = len(frame)

    def lookup_status(span, result, args, kwargs):
        span.counters[result.status] = 1

    def solve_name(solver, model, *args, **kwargs):
        model_name = getattr(model, "name", "") or ""
        if model_name.startswith("sketch_"):
            return "ilp.solve.sketch"
        if model_name.startswith("refine_"):
            return "ilp.solve.refine"
        return "ilp.solve.direct"

    def solve_stats(span, solution, args, kwargs):
        stats = solution.stats
        span.counters.update(
            nodes=stats.nodes_explored,
            lp_solves=stats.lp_solves,
            simplex_iterations=stats.simplex_iterations,
            warm_start_hits=stats.warm_start_hits,
            time_limit=int(solution.status.value == "time_limit"),
            pricing=stats.pricing_rule or "highs",
        )

    def map_tasks(span, result, args, kwargs):
        span.counters["tasks"] = len(result)

    def maintain_stats(span, result, args, kwargs):
        span.counters["groups_resplit"] = result[1].groups_resplit

    def replayed(span, database, args, kwargs):
        span.counters["records"] = len(database.wal.records())

    tracer.wrap(engine_module, "parse_paql", "paql.parse")
    tracer.wrap(engine_module, "validate_query", "paql.validate")
    tracer.wrap(engine_module, "query_fingerprint", "paql.fingerprint")
    tracer.wrap(engine_module, "check_package", "validation.check")
    tracer.wrap(cache_module, "check_package", "validation.check")
    tracer.wrap(cache_module.PackageCache, "lookup", "cache.lookup", lookup_status)
    tracer.wrap(cache_module.PackageCache, "store", "cache.store")
    tracer.wrap(cache_module.PackageCache, "notify_update", "cache.notify")
    tracer.wrap(direct_module, "translate_query", "translate")
    tracer.wrap(BranchAndBoundSolver, "solve", solve_name, solve_stats)
    tracer.wrap(bb_module, "solve_lp_form", "ilp.lp")
    tracer.wrap(bb_module, "presolve_form", "ilp.presolve")
    tracer.wrap(SketchRefineEvaluator, "evaluate", "sketchrefine.evaluate")
    tracer.wrap(SolvePool, "map", "exec.map", map_tasks)
    tracer.wrap(Table, "apply_delta", "catalog.apply_delta")
    tracer.wrap(PartitionMaintainer, "maintain", "partition.maintain", maintain_stats)
    tracer.wrap(wal_module, "encode_record", "wal.encode", frame_bytes)
    tracer.wrap(wal_module.WriteAheadLog, "append", "wal.append")
    tracer.wrap(wal_module.FileLogStorage, "sync", "wal.fsync")
    tracer.wrap(Database, "recover", "catalog.recover", replayed)


# -- aggregation ------------------------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Per-span self time in ms: duration minus the children's durations."""
    child_ms = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_ms[span.parent] += span.ms
    return [span.ms - child for span, child in zip(spans, child_ms)]


def accounting_error(spans: list[Span]) -> float:
    """Largest share of a span's duration by which its children escape it:
    a child starting before or ending after its parent, or children lasting
    longer together than their parent (negative self time).  0 for a
    well-nested tree, where children plus self time equal the parent."""
    worst = 0.0
    for span, self_ms in zip(spans, self_times(spans)):
        if span.parent >= 0:
            parent = spans[span.parent]
            escape_ms = max(parent.start - span.start, span.end - parent.end, 0.0) * 1000.0
            worst = max(worst, escape_ms / max(parent.ms, 1e-9))
        worst = max(worst, -self_ms / max(span.ms, 1e-9))
    return worst


def layer_metrics(spans: list[Span], overhead_ratio: float) -> dict[str, tuple[float, str]]:
    """Reduce spans to the per-layer metrics named in BENCHMARK.json."""
    own = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    selfs: dict[str, float] = defaultdict(float)
    counters: dict[str, float] = defaultdict(float)
    for span, self_ms in zip(spans, own):
        calls[span.name] += 1
        busy[span.name] += span.ms
        selfs[span.name] += self_ms
        for key, value in span.counters.items():
            if isinstance(value, (int, float)):
                counters[f"{span.name}:{key}"] += value

    def total(prefix: str, table: dict) -> float:
        return sum(v for k, v in table.items() if k == prefix or k.startswith(prefix + "."))

    solves = total("ilp.solve", calls)
    lp_solves = calls["ilp.lp"]
    lookups = calls["cache.lookup"]
    served = counters["cache.lookup:hit"] + counters["cache.lookup:revalidated"]
    lp_total = sum(v for k, v in counters.items() if k.endswith(":lp_solves"))
    warm = sum(v for k, v in counters.items() if k.endswith(":warm_start_hits"))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    return {
        "paql.calls": (calls["paql.parse"] + calls["paql.validate"] + calls["paql.fingerprint"], "count"),
        "paql.parse_ms": (busy["paql.parse"], "ms"),
        "paql.validate_ms": (busy["paql.validate"], "ms"),
        "paql.fingerprint_ms": (busy["paql.fingerprint"], "ms"),
        "engine.execute_ms": (busy["engine.execute"], "ms"),
        "engine.self_ms": (selfs["engine.execute"], "ms"),
        "engine.update_ms": (busy["engine.update"], "ms"),
        "cache.lookups": (lookups, "count"),
        "cache.hits": (counters["cache.lookup:hit"], "count"),
        "cache.revalidations": (counters["cache.lookup:revalidated"], "count"),
        "cache.misses": (counters["cache.lookup:miss"], "count"),
        "cache.served_ratio": (ratio(served, lookups), "ratio"),
        "cache.lookup_ms": (busy["cache.lookup"], "ms"),
        "cache.store_ms": (busy["cache.store"], "ms"),
        "cache.notify_ms": (busy["cache.notify"], "ms"),
        "translate.calls": (calls["translate"], "count"),
        "translate.ms": (busy["translate"], "ms"),
        "ilp.solves": (solves, "count"),
        "ilp.solve_ms": (total("ilp.solve", busy), "ms"),
        "ilp.nodes": (sum(v for k, v in counters.items() if k.endswith(":nodes")), "count"),
        "ilp.lp_solves": (lp_solves, "count"),
        "ilp.lp_ms": (busy["ilp.lp"], "ms"),
        "ilp.lp_ms_per_solve": (ratio(busy["ilp.lp"], lp_solves), "ms"),
        "ilp.presolve_ms": (busy["ilp.presolve"], "ms"),
        "ilp.bb_self_ms": (total("ilp.solve", selfs), "ms"),
        "ilp.simplex_iterations": (
            sum(v for k, v in counters.items() if k.endswith(":simplex_iterations")), "count"),
        "ilp.warm_start_ratio": (ratio(warm, lp_total), "ratio"),
        "ilp.time_limit_hits": (
            sum(v for k, v in counters.items() if k.endswith(":time_limit")), "count"),
        "sketchrefine.evaluations": (calls["sketchrefine.evaluate"], "count"),
        "sketchrefine.evaluate_ms": (busy["sketchrefine.evaluate"], "ms"),
        "sketchrefine.sketch_solves": (calls["ilp.solve.sketch"], "count"),
        "sketchrefine.sketch_solve_ms": (busy["ilp.solve.sketch"], "ms"),
        "sketchrefine.refine_solves": (calls["ilp.solve.refine"], "count"),
        "sketchrefine.refine_solve_ms": (busy["ilp.solve.refine"], "ms"),
        "sketchrefine.self_ms": (selfs["sketchrefine.evaluate"], "ms"),
        "exec.map_calls": (calls["exec.map"], "count"),
        "exec.tasks": (counters["exec.map:tasks"], "count"),
        "exec.map_ms": (busy["exec.map"], "ms"),
        "validation.check_calls": (calls["validation.check"], "count"),
        "validation.check_ms": (busy["validation.check"], "ms"),
        "partition.build_ms": (busy["partition.build"], "ms"),
        "partition.maintain_calls": (calls["partition.maintain"], "count"),
        "partition.maintain_ms": (busy["partition.maintain"], "ms"),
        "partition.groups_resplit": (counters["partition.maintain:groups_resplit"], "count"),
        "catalog.apply_delta_ms": (busy["catalog.apply_delta"], "ms"),
        "catalog.commit_self_ms": (selfs["engine.update"], "ms"),
        "wal.appends": (calls["wal.append"], "count"),
        "wal.append_ms": (busy["wal.append"], "ms"),
        "wal.encode_ms": (busy["wal.encode"], "ms"),
        "wal.fsyncs": (calls["wal.fsync"], "count"),
        "wal.fsync_ms": (busy["wal.fsync"], "ms"),
        "wal.bytes": (counters["wal.encode:bytes"], "bytes"),
        "wal.replay_records": (counters["catalog.recover:records"], "count"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }
