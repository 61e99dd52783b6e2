"""The benchmark's workloads: inputs, the closed loop that drives them, and
the correctness checks on every answer.

Each workload is a closed loop with one client thread in one process.  Every
query goes to a default-constructed :class:`PackageQueryEngine` as PaQL text
rendered from the Galaxy workload.  All inputs derive from the workload
seed; the amount of work a run does is fixed by its ``units`` argument, so
both sides of a comparison replay exactly the same operations.
"""

from __future__ import annotations

import hashlib
import math
import shutil
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.engine import PackageQueryEngine
from repro.core.package import Package
from repro.core.validation import approximation_ratio, check_package, objective_value
from repro.db.catalog import Database
from repro.ilp.branch_and_bound import BranchAndBoundSolver
from repro.ilp.lp_backend import LpBackend
from repro.paql.builder import query_over
from repro.paql.parser import parse_paql
from repro.paql.pretty import format_paql
from repro.partition.maintenance import partitioning_signature
from repro.workloads.galaxy import galaxy_table, galaxy_workload

from calibration import clock, tick

#: The 13 attributes Galaxy Q1-Q7 reference: the default partitioning's.
QUERY_ATTRIBUTES = (
    "redshift", "petroFlux_r", "petroMag_r", "petroRad_r", "extinction_r",
    "psfMag_r", "petroR50_r", "ra", "dec", "fiberMag_r", "deVRad_r",
    "u_g_color", "modelMag_r",
)
#: Attributes of the ``wide`` partitioning Qwide runs over.
WIDE_ATTRIBUTES = ("petroMag_r", "redshift", "petroFlux_r")
#: Q7 is left out of the solve workloads: its branch-and-bound tree is
#: unbounded in practice on many seeds (NOTES.md), so no fixed run budget
#: holds it.
SOLVE_QUERIES = ("Q1", "Q2", "Q3", "Q4", "Q5", "Q6")
HOT_QUERIES = ("Q1", "Q3", "Q5")
WARMUP_QUERY = "Q5"

SETUP_REPEATS = 5
#: Recoveries of update-requery's log per run (recover_s is their median).
RECOVER_REPEATS = 9


@dataclass(frozen=True)
class Sizes:
    """Table sizes and partitioning thresholds (τ) of the workloads."""

    direct_rows: int = 300
    sketch_rows: int = 20_000
    sketch_tau: int = 1_000
    wide_tau: int = 250
    update_rows: int = 20_000
    update_tau: int = 1_000
    delta_rows: int = 20


DEFAULT_SIZES = Sizes()
#: Seconds-scale inputs for the benchmark's own tests.  update_rows stays
#: above the engine's AUTO threshold so AUTO still picks SKETCHREFINE.
SMOKE_SIZES = Sizes(direct_rows=60, sketch_rows=600, sketch_tau=150, wide_tau=60,
                    update_rows=2_500, update_tau=500, delta_rows=5)

#: Relative tolerance of the DIRECT-objective oracle.
OBJECTIVE_RTOL = 1e-6


@dataclass
class Outcome:
    """Everything one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=dict)
    """Latency samples in ms per operation kind (query name, commit, read,
    setup...)."""
    ends: dict[str, list[float]] = field(default_factory=dict)
    """The benchmark clock (calibration.clock) at the end of each sample."""
    pass_s: list[float] = field(default_factory=list)
    ratios: dict[str, list[float]] = field(default_factory=dict)
    cache_status: dict[str, int] = field(default_factory=dict)
    pricing: dict[str, int] = field(default_factory=dict)
    extra: dict[str, float] = field(default_factory=dict)
    measured_s: float = 0.0

    def record(self, kind: str, ms: float) -> None:
        self.samples.setdefault(kind, []).append(ms)
        self.ends.setdefault(kind, []).append(clock())

    def fail(self, what: str) -> None:
        self.failed += 1
        self.failures.append(what)


#: The data set.  Table ``index`` of workload ``w`` is always generated from
#: seed ``DATA_SEED + 1000 * w + index``, as the paper's Galaxy data is one
#: fixed set; the workload seed draws each table's row order and the update
#: stream.  Freshly generated tables per seed would make branch-and-bound
#: effort, and so every timing, vary several-fold from seed to seed (NOTES.md).
#: SKETCHREFINE tables keep the data set's row order: with two tables per run,
#: row order alone moved a pass by about a third; there the seed draws the
#: order in which each pass runs its queries.
DATA_SEED = 42
DIRECT, SKETCH, UPDATE = 0, 1, 2


def instance_seed(seed: int, workload: int, index: int) -> int:
    """Independent per-instance seed derived from the workload seed."""
    return int(np.random.SeedSequence([seed, workload, index]).generate_state(1)[0])


def instance_table(workload: int, index: int, rows: int, seed: int | None):
    """Data-set table ``index`` of ``workload`` with rows in seeded order
    (in the data set's own order when ``seed`` is ``None``)."""
    base = galaxy_table(rows, seed=DATA_SEED + 1000 * workload + index)
    if seed is None:
        order = np.arange(rows)
    else:
        order = np.random.default_rng(instance_seed(seed, workload, index)).permutation(rows)
    return base.take(order, name="galaxy")


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def _begin(tracer, op: int) -> None:
    if tracer is not None:
        tracer.begin_op(op)


def wide_query(table, cardinality: int):
    """The count-bound Qwide query whose answer straddles many groups."""
    mean_z = float(np.mean(table.numeric_column("redshift")))
    mean_mag = float(np.mean(table.numeric_column("petroMag_r")))
    return (
        query_over("galaxy", name="galaxy_qwide")
        .no_repetition()
        .count_equals(cardinality)
        .sum_between("redshift", 0.7 * mean_z * cardinality, 1.3 * mean_z * cardinality)
        .sum_between("petroMag_r", 0.9 * mean_mag * cardinality, 1.1 * mean_mag * cardinality)
        .maximize_sum("petroFlux_r")
        .build()
    )


def paql_queries(table, names, with_wide: bool = False) -> list[tuple[str, str, str]]:
    """``(name, PaQL text, partitioning label)`` for the named Galaxy queries."""
    by_name = {q.name: q.query for q in galaxy_workload(table).queries}
    queries = [(name, format_paql(by_name[name]), "default") for name in names]
    if with_wide:
        queries.append(("Qwide", format_paql(wide_query(table, table.num_rows // 10)), "wide"))
    return queries


def reference_optima(table, queries) -> dict[str, float]:
    """DIRECT optima from the SIMPLEX-backed solver, the oracle's reference."""
    engine = PackageQueryEngine(solver=BranchAndBoundSolver(lp_backend=LpBackend.SIMPLEX))
    engine.register_table(table, name="galaxy")
    return {
        name: engine.execute(text, method="direct", cache="bypass").objective
        for name, text, _ in queries
    }


def table_signature(table) -> str:
    digest = hashlib.sha256(str(table.version).encode())
    for name in table.schema.names:
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(table.column(name)).tobytes())
    return digest.hexdigest()


def answer_problem(result, text: str, table) -> str | None:
    """Why ``result`` is not a correct answer over ``table``, or ``None``.

    The package must be served at ``table``'s version, reference only live
    rows, and pass :func:`check_package` when rebuilt from ``table`` itself
    with the objective the engine reported.  A cached package that outlived
    a delete fails here.
    """
    package = result.package
    if package.table.version != table.version:
        return f"served at version {package.table.version}, table is at {table.version}"
    indices = np.asarray(package.indices)
    if len(indices) and (indices.min() < 0 or indices.max() >= table.num_rows):
        return "package references rows outside the table"
    live = Package.from_multiplicity_map(table, package.as_multiplicity_map())
    query = parse_paql(text)
    if not check_package(live, query).feasible:
        return "package fails check_package"
    objective = objective_value(live, query)
    if not math.isclose(objective, result.objective, rel_tol=1e-9, abs_tol=1e-9):
        return f"reported objective {result.objective} != recomputed {objective}"
    return None


def _timed_execute(outcome, tracer, op, kind, engine, text, table, **kwargs):
    """One query operation: time it, check it, count it.  Returns the result."""
    outcome.attempted += 1
    tick()
    _begin(tracer, op)
    try:
        start = clock()
        with _span(tracer, "engine.execute"):
            result = engine.execute(text, **kwargs)
        elapsed_ms = (clock() - start) * 1000.0
    except Exception as exc:  # a raising operation is a failed operation
        outcome.fail(f"{kind}: {type(exc).__name__}: {exc}")
        return None
    outcome.record(kind, elapsed_ms)
    problem = answer_problem(result, text, table)
    if problem is not None:
        outcome.fail(f"{kind}: {problem}")
        return None
    return result


def durable_engine(workdir: Path) -> tuple[PackageQueryEngine, Path]:
    """A default engine whose catalog logs every commit to a fresh file WAL."""
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    engine = PackageQueryEngine()
    wal_path = workdir / "wal.log"
    engine.database.attach_wal(wal_path)
    return engine, wal_path


def table_bytes(table) -> int:
    return table.num_rows * table.num_columns * 8


def timed_commit(outcome, tracer, wal_path: Path, user_bytes: int, commit) -> float:
    """Run one measured catalog commit; record its latency and WAL bytes."""
    before = wal_path.stat().st_size if wal_path.exists() else 0
    tick()
    start = clock()
    with _span(tracer, "engine.update"):
        commit()
    elapsed_ms = (clock() - start) * 1000.0
    outcome.record("commit", elapsed_ms)
    outcome.extra["wal_bytes"] = outcome.extra.get("wal_bytes", 0) + (
        wal_path.stat().st_size - before)
    outcome.extra["user_bytes"] = outcome.extra.get("user_bytes", 0) + user_bytes
    return elapsed_ms


def recover_and_check(outcome, tracer, op: int, engine, wal_path: Path, times: int = 1) -> None:
    """Recover a catalog from ``wal_path`` ``times`` times and compare each
    result with the live one.

    Recovery must land on the last acknowledged version of every table with
    an equal table signature and equal partitionings.
    """
    for _ in range(times):
        outcome.attempted += 1
        tick(force=True)
        _begin(tracer, op)
        start = clock()
        try:
            recovered = Database.recover(wal_path)
        except Exception as exc:  # a raising recovery is a failed operation
            outcome.fail(f"recover: {type(exc).__name__}: {exc}")
            continue
        outcome.record("recover", (clock() - start) * 1000.0)
        try:
            live, got = engine.table("galaxy"), recovered.table("galaxy")
            if got.version != live.version or table_signature(got) != table_signature(live):
                outcome.fail(f"recover: landed on version {got.version} (last acknowledged "
                             f"{live.version}) or on different rows")
            for label in engine.database.partitioning_labels("galaxy"):
                if partitioning_signature(recovered.partitioning("galaxy", label)) != (
                    partitioning_signature(engine.database.partitioning("galaxy", label))
                ):
                    outcome.fail(f"recover: partitioning {label!r} differs from the live one")
        finally:
            recovered.wal.close()


def close_durable(engine, wal_path: Path) -> None:
    engine.database.wal.close()
    shutil.rmtree(wal_path.parent, ignore_errors=True)


def content_order(table) -> np.ndarray:
    """Row positions sorted by row content: an order that ignores row order."""
    return np.lexsort([table.numeric_column(name) for name in reversed(table.schema.names)])


def pinned_optima(pinned: dict | None, index: int) -> dict[str, float] | None:
    return (pinned or {}).get("optima", {}).get(str(index))


# -- direct-galaxy -------------------------------------------------------------


def run_direct(seed: int, units: int, workdir: Path, sizes: Sizes = DEFAULT_SIZES,
               tracer=None, pinned=None) -> Outcome:
    """``units`` Galaxy instances of ``sizes.direct_rows`` rows, Q1-Q6 once each.

    Each instance's table is registered in a WAL-backed catalog (the
    measured commit) and recovered after its pass.
    """
    outcome = Outcome()
    op = 0
    measured = 0.0
    for index in range(units):
        tick(force=True)
        start = clock()
        table = instance_table(DIRECT, index, sizes.direct_rows, seed)
        engine, wal_path = durable_engine(workdir)
        timed_commit(outcome, tracer, wal_path, table_bytes(table),
                     lambda: engine.register_table(table, name="galaxy"))
        queries = paql_queries(table, SOLVE_QUERIES)
        engine.execute(dict((n, t) for n, t, _ in queries)[WARMUP_QUERY],
                       method="direct", cache="bypass")
        outcome.record("setup", (clock() - start) * 1000.0)

        expected = pinned_optima(pinned, index) or reference_optima(table, queries)
        pass_start = clock()
        for name, text, _ in queries:
            op += 1
            result = _timed_execute(outcome, tracer, op, name, engine, text, table,
                                    method="direct", cache="bypass")
            if result is None:
                continue
            if not math.isclose(result.objective, expected[name], rel_tol=OBJECTIVE_RTOL):
                outcome.fail(f"{name}: DIRECT objective {result.objective!r} != "
                             f"reference {expected[name]!r} (instance {index})")
            outcome.ratios.setdefault(name, []).append(approximation_ratio(
                result.objective, expected[name], parse_paql(text).objective.direction))
            rule = result.details["direct_stats"].solve_stats.pricing_rule or "highs"
            outcome.pricing[rule] = outcome.pricing.get(rule, 0) + 1
        pass_s = clock() - pass_start
        outcome.pass_s.append(pass_s)
        measured += pass_s
        op += 1
        recover_and_check(outcome, tracer, op, engine, wal_path)
        close_durable(engine, wal_path)
    outcome.measured_s = measured
    return outcome


# -- sketchrefine-galaxy -------------------------------------------------------


def sketch_instance(seed: int, index: int, workdir: Path, sizes: Sizes, outcome, tracer=None):
    """Set up one SKETCHREFINE instance: table, durable engine, both partitionings.

    The table is in the data set's row order; the seed draws the order of
    the returned queries.
    """
    table = instance_table(SKETCH, index, sizes.sketch_rows, None)
    engine, wal_path = durable_engine(workdir)
    timed_commit(outcome, tracer, wal_path, table_bytes(table),
                 lambda: engine.register_table(table, name="galaxy"))
    with _span(tracer, "partition.build"):
        engine.build_partitioning("galaxy", list(QUERY_ATTRIBUTES), size_threshold=sizes.sketch_tau)
        engine.build_partitioning("galaxy", list(WIDE_ATTRIBUTES), size_threshold=sizes.wide_tau,
                                  label="wide")
    queries = paql_queries(table, SOLVE_QUERIES, with_wide=True)
    order = np.random.default_rng(instance_seed(seed, SKETCH, index)).permutation(len(queries))
    return table, engine, wal_path, [queries[i] for i in order]


def run_sketchrefine(seed: int, units: int, workdir: Path, sizes: Sizes = DEFAULT_SIZES,
                     tracer=None, pinned=None) -> Outcome:
    """``units`` instances of ``sizes.sketch_rows`` rows, Q1-Q6 plus Qwide once each.

    Each table is set up SETUP_REPEATS times (every set-up's catalog is
    recovered and checked); the last set-up serves the pass.  The first
    table's pass runs twice and must reproduce its objectives exactly;
    pinned seeds must also reproduce the pinned objectives.
    """
    outcome = Outcome()
    op = 0
    measured = 0.0
    for index in range(units):
        for repeat in range(SETUP_REPEATS):
            tick(force=True)
            start = clock()
            table, engine, wal_path, queries = sketch_instance(
                seed, index, workdir, sizes, outcome, tracer)
            engine.execute(dict((n, t) for n, t, _ in queries)[WARMUP_QUERY],
                           method="sketchrefine", cache="bypass")
            outcome.record("setup", (clock() - start) * 1000.0)
            if repeat < SETUP_REPEATS - 1:
                op += 1
                recover_and_check(outcome, tracer, op, engine, wal_path)
                close_durable(engine, wal_path)

        optima = pinned_optima(pinned, index) or reference_optima(table, queries)
        expected_sr = (pinned or {}).get("sketchrefine", {}).get(str(seed), {}).get(str(index))
        objectives: dict[str, float] = {}
        for repeat in range(2 if index == 0 else 1):
            pass_start = clock()
            for name, text, label in queries:
                op += 1
                kind = name if repeat == 0 else f"{name}.repeat"
                result = _timed_execute(outcome, tracer, op, kind, engine, text, table,
                                        method="sketchrefine", cache="bypass",
                                        partitioning_label=label)
                if result is None:
                    continue
                if repeat:
                    if result.objective != objectives.get(name):
                        outcome.fail(f"{name}: repeated SKETCHREFINE objective "
                                     f"{result.objective!r} != {objectives.get(name)!r}")
                    continue
                objectives[name] = result.objective
                if expected_sr and result.objective != expected_sr[name]:
                    outcome.fail(f"{name}: SKETCHREFINE objective {result.objective!r} != "
                                 f"pinned {expected_sr[name]!r}")
                direction = parse_paql(text).objective.direction
                outcome.ratios.setdefault(name, []).append(
                    approximation_ratio(result.objective, optima[name], direction))
            if repeat == 0:
                pass_s = clock() - pass_start
                outcome.pass_s.append(pass_s)
                measured += pass_s
        op += 1
        recover_and_check(outcome, tracer, op, engine, wal_path)
        close_durable(engine, wal_path)
    outcome.measured_s = measured
    return outcome


# -- update-requery ------------------------------------------------------------


def update_setup(seed: int, workdir: Path, sizes: Sizes, tracer=None):
    """A ``sizes.update_rows``-row table with its partitioning in a WAL-backed catalog."""
    table = instance_table(UPDATE, 0, sizes.update_rows, seed)
    engine, wal_path = durable_engine(workdir)
    engine.register_table(table, name="galaxy")
    with _span(tracer, "partition.build"):
        engine.build_partitioning("galaxy", list(QUERY_ATTRIBUTES), size_threshold=sizes.update_tau)
    engine.execute(paql_queries(table, (WARMUP_QUERY,))[0][1], cache="bypass")
    return engine, wal_path, paql_queries(table, HOT_QUERIES)


def run_update(seed: int, units: int, workdir: Path, sizes: Sizes = DEFAULT_SIZES,
               tracer=None, pinned=None) -> Outcome:
    """``units`` steps of commit-then-requery, then recovery from the WAL.

    Each step commits one delta (``sizes.delta_rows`` rows inserted from a disjoint
    seeded Galaxy table plus as many random deletes), then re-executes the
    hot queries with the engine's defaults (AUTO method, cache on).  Before
    the stream each hot query is read once on the base table; those answers
    are compared with the base table's DIRECT optima.
    """
    outcome = Outcome()
    engine = wal_path = None
    for _ in range(SETUP_REPEATS):
        if engine is not None:
            close_durable(engine, wal_path)
        tick(force=True)
        start = clock()
        engine, wal_path, queries = update_setup(seed, workdir, sizes, tracer)
        outcome.record("setup", (clock() - start) * 1000.0)

    # The stream is part of the data set: the same rows (by content) are
    # inserted and deleted under every seed, so the cache sees the same hits
    # and misses; the seed only decides where those rows sit in the table.
    source = galaxy_table(sizes.delta_rows * units, seed=DATA_SEED + 1000 * UPDATE + 1)
    picks = np.random.default_rng(DATA_SEED + 1000 * UPDATE + 2)
    shuffle = np.random.default_rng(instance_seed(seed, UPDATE, 1))
    op = 0
    try:
        base = engine.table("galaxy")
        optima = pinned_optima(pinned, 0) or reference_optima(base, queries)
        stream_start = clock()
        for name, text, _ in queries:
            op += 1
            result = _timed_execute(outcome, tracer, op, "read", engine, text, base)
            if result is not None:
                outcome.ratios[name] = [approximation_ratio(
                    result.objective, optima[name], parse_paql(text).objective.direction)]
        for step in range(units):
            before = engine.table("galaxy")
            block = source.take(shuffle.permutation(
                np.arange(step * sizes.delta_rows, (step + 1) * sizes.delta_rows)))
            doomed = content_order(before)[
                picks.choice(before.num_rows, sizes.delta_rows, replace=False)]
            op += 1
            outcome.attempted += 1
            _begin(tracer, op)
            try:
                timed_commit(outcome, tracer, wal_path,
                             table_bytes(block) + doomed.size * 8,
                             lambda: engine.update_table("galaxy", insert=block, delete=doomed))
            except Exception as exc:  # a raising commit is a failed operation
                outcome.fail(f"commit: {type(exc).__name__}: {exc}")
                continue
            after = engine.table("galaxy")
            if after.version != before.version + 1 or after.num_rows != before.num_rows:
                outcome.fail(f"commit: table went {before.version}->{after.version}, "
                             f"{before.num_rows}->{after.num_rows} rows")
            for name, text, _ in queries:
                op += 1
                result = _timed_execute(outcome, tracer, op, "read", engine, text, after)
                if result is not None:
                    status = result.details["cache"]["status"]
                    outcome.cache_status[status] = outcome.cache_status.get(status, 0) + 1
                    outcome.record(f"read.{status}", outcome.samples["read"][-1])
        outcome.measured_s = clock() - stream_start
        op += 1
        recover_and_check(outcome, tracer, op, engine, wal_path, times=RECOVER_REPEATS)
    finally:
        close_durable(engine, wal_path)
    return outcome
