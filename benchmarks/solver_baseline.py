#!/usr/bin/env python3
"""Record a solver-performance baseline as ``BENCH_solver.json``.

Runs the Galaxy DIRECT workload through the SIMPLEX-backend branch-and-bound
twice — once with basis reuse (warm starts) and once forced cold — and records
node throughput, LP iteration counts and the warm-start hit rate.  It also
profiles the *constraint storage* of the matrix-form IR: for each query (and
for a larger ``--form-rows`` DIRECT instance) it reports the matrix nnz, the
bytes held by the chosen storage, and the bytes the PR 1 dense pipeline would
have held for the same model (per-constraint coefficient dicts + dense
``A_ub``/``A_eq`` + a dense simplex working matrix re-filled per solve).
Peak RSS of the whole run is recorded so memory regressions surface in the
uploaded CI artifact, not just throughput.  A presolve ablation solves the
ablation queries (including a flux-budget probe most of whose columns can
never enter a package) with root presolve on and off — objectives must match
— and profiles the root-LP columns/rows eliminated on the large DIRECT
instance.  The solver's one pricing rule (Dantzig) is profiled per query —
pivot counts, refactorisations, eta peak — on the solver queries
(``pricing_ablation``) and end-to-end at ``--form-rows`` (``large_solve``);
both keep their ``dantzig`` key so CI can hold the pivot counts to the
committed baseline.  The JSON is
committed in-repo so future performance PRs have a trajectory to compare
against, and CI re-generates it as a build artifact on every push.

Run with::

    PYTHONPATH=src python benchmarks/solver_baseline.py [--rows 800] [--form-rows 20000] [--out BENCH_solver.json]
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import scipy

from repro.core.translator import translate_query
from repro.db.expressions import col
from repro.ilp.branch_and_bound import BranchAndBoundSolver, SolverLimits
from repro.ilp.lp_backend import LpBackend
from repro.ilp.presolve import presolve_form
from repro.ilp.simplex import _WorkMatrix
from repro.paql.builder import query_over
from repro.workloads.galaxy import galaxy_table, galaxy_workload

#: Queries solved per configuration; Q1 branches (fractional LP relaxations),
#: Q5 solves at the root, giving both tree shapes a voice in the baseline.
_QUERIES = ("Q1", "Q5")

#: Queries profiled for constraint storage: the whole workload's shapes plus
#: a filtered-aggregate probe whose indicator rows exercise the CSR path.
_STORAGE_QUERIES = ("Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7", "SPARSE_PROBE")


def _run_configuration(table, workload, warm_start_lp: bool, presolve: bool = True) -> dict:
    totals = {
        "nodes_explored": 0,
        "lp_solves": 0,
        "simplex_iterations": 0,
        "warm_start_hits": 0,
    }
    per_query = {}
    started = time.perf_counter()
    for name in _QUERIES:
        query = workload.query(name).query
        translation = translate_query(table, query)
        solver = BranchAndBoundSolver(
            limits=SolverLimits(relative_gap=1e-3, node_limit=2000),
            lp_backend=LpBackend.SIMPLEX,
            warm_start_lp=warm_start_lp,
            presolve=presolve,
        )
        solution = solver.solve(translation.model)
        stats = solution.stats
        per_query[name] = {
            "status": solution.status.value,
            "objective": None if solution.objective_value != solution.objective_value
            else solution.objective_value,
            "nodes_explored": stats.nodes_explored,
            "lp_solves": stats.lp_solves,
            "simplex_iterations": stats.simplex_iterations,
            "warm_start_hits": stats.warm_start_hits,
            "refactorizations": stats.refactorizations,
            "eta_peak": stats.eta_peak,
            "pricing_rule": stats.pricing_rule,
        }
        for key in totals:
            totals[key] += getattr(stats, key)
    elapsed = time.perf_counter() - started
    return {
        "wall_seconds": round(elapsed, 4),
        "nodes_per_second": round(totals["nodes_explored"] / elapsed, 1),
        "warm_start_hit_rate": round(
            totals["warm_start_hits"] / max(1, totals["lp_solves"]), 4
        ),
        **totals,
        "per_query": per_query,
    }


def _dict_entry_bytes(num_entries: int) -> int:
    """Measured bytes of a ``{int: float}`` coefficient dict of this size.

    This is what the PR 1 pipeline stored per constraint; measured on a real
    dict (container + boxed keys/values) rather than theorised.
    """
    if num_entries == 0:
        return sys.getsizeof({})
    sample = {i + 1_000_000: float(i) + 0.5 for i in range(num_entries)}
    boxed = num_entries * (sys.getsizeof(1_000_000) + sys.getsizeof(0.5))
    return sys.getsizeof(sample) + boxed


def _work_matrix_bytes(work: _WorkMatrix) -> int:
    if work.sparse:
        return work.data.nbytes + work.indices.nbytes + work.indptr.nbytes
    return work.a.nbytes


def _sparse_probe_query(table):
    """A Galaxy query whose constraint rows are genuinely sparse.

    Filtered COUNT aggregates translate to 0/1 indicator rows (non-zero only
    for the tuples matching the filter), so unlike the plain COUNT/SUM rows of
    Q1–Q7 this exercises the CSR storage path of the matrix form.
    """
    redshift = table.numeric_column("redshift")
    radius = table.numeric_column("petroRad_r")
    nearby = float(np.quantile(redshift, 0.15))
    giant = float(np.quantile(radius, 0.92))
    return (
        query_over("galaxy", name="galaxy_sparse_probe")
        .no_repetition()
        .count_equals(12)
        .filtered_count_at_least(col("redshift") < nearby, 4)
        .filtered_count_at_most(col("petroRad_r") > giant, 2)
        .compare_counts(col("redshift") < nearby, col("petroRad_r") > giant)
        .maximize_sum("petroFlux_r")
        .build()
    )


def _presolve_probe_query(table):
    """A Galaxy query presolve can substantially reduce.

    ``petroFlux_r`` is heavy-tailed, so a total-flux budget makes the
    brightest tuples individually infeasible, and the "no saturated objects"
    filtered count is an indicator row whose every column fixes to zero —
    the classic DIRECT situation where most of the table can never enter an
    optimal package.  The objective is decoupled from the budgeted column so
    the ablation solves to proven optimality in both configurations.
    """
    flux = table.numeric_column("petroFlux_r")
    bright_cut = float(np.quantile(flux, 0.85))
    budget = float(np.quantile(flux, 0.5)) * 8 * 1.5
    return (
        query_over("galaxy", name="galaxy_presolve_probe")
        .no_repetition()
        .count_equals(8)
        .filtered_count_at_most(col("petroFlux_r") > bright_cut, 0)
        .sum_at_most("petroFlux_r", budget)
        .minimize_sum("extinction_r")
        .build()
    )


#: Queries in the presolve ablation; the probe plus the two solver queries.
_PRESOLVE_QUERIES = ("Q1", "Q5", "PRESOLVE_PROBE")


def _ablation_query(table, workload, name):
    if name == "PRESOLVE_PROBE":
        return _presolve_probe_query(table)
    return workload.query(name).query


def _profile_root_reduction(table, workload, query_names) -> dict:
    """Root-LP size before/after presolve (with integrality) per query."""
    per_query = {}
    for name in query_names:
        model = translate_query(table, _ablation_query(table, workload, name)).model
        form = model.to_matrix()
        integer_mask = model.bound_and_integrality_arrays()[2]
        reduction = presolve_form(form, integer_mask=integer_mask)
        rows_before = int(form.a_ub.shape[0] + form.a_eq.shape[0])
        entry = {
            "columns": form.num_variables,
            "rows": rows_before,
            "feasible": reduction.feasible,
            "presolve_ms": round(reduction.stats.presolve_ms, 3),
            "passes": reduction.stats.passes,
        }
        if reduction.feasible:
            entry.update(
                columns_after=reduction.form.num_variables,
                rows_after=int(
                    reduction.form.a_ub.shape[0] + reduction.form.a_eq.shape[0]
                ),
                vars_fixed=reduction.stats.vars_fixed,
                rows_removed=reduction.stats.rows_removed,
                column_reduction=round(
                    1.0 - reduction.form.num_variables / max(1, form.num_variables), 4
                ),
            )
        per_query[name] = entry
    return per_query


def _presolve_ablation(table, workload) -> dict:
    """Solve the ablation queries with presolve on and off; objectives must match."""
    configurations = {}
    for presolve in (True, False):
        per_query = {}
        started = time.perf_counter()
        for name in _PRESOLVE_QUERIES:
            translation = translate_query(table, _ablation_query(table, workload, name))
            # Solved to (near-)proven optimality, unlike the throughput runs:
            # the ablation's point is that presolve must not change the answer.
            solver = BranchAndBoundSolver(
                limits=SolverLimits(relative_gap=1e-9, node_limit=50_000),
                lp_backend=LpBackend.SIMPLEX,
                presolve=presolve,
            )
            solution = solver.solve(translation.model)
            per_query[name] = {
                "status": solution.status.value,
                "objective": None
                if solution.objective_value != solution.objective_value
                else round(solution.objective_value, 6),
                "nodes_explored": solution.stats.nodes_explored,
                "lp_solves": solution.stats.lp_solves,
                "simplex_iterations": solution.stats.simplex_iterations,
                "vars_fixed": solution.stats.vars_fixed,
                "rows_removed": solution.stats.rows_removed,
                "presolve_ms": round(solution.stats.presolve_ms, 3),
            }
        configurations["on" if presolve else "off"] = {
            "wall_seconds": round(time.perf_counter() - started, 4),
            "per_query": per_query,
        }
    matches = all(
        configurations["on"]["per_query"][name]["status"]
        == configurations["off"]["per_query"][name]["status"]
        and (
            configurations["on"]["per_query"][name]["objective"] is None
            or abs(
                configurations["on"]["per_query"][name]["objective"]
                - configurations["off"]["per_query"][name]["objective"]
            )
            <= 1e-4 * max(1.0, abs(configurations["off"]["per_query"][name]["objective"]))
        )
        for name in _PRESOLVE_QUERIES
    )
    configurations["objectives_match"] = matches
    return configurations


#: Queries in the 20k-row large-instance solve profile.
_LARGE_SOLVE_QUERIES = ("Q1", "Q5")


def _pricing_profile(table, workload, query_names) -> dict:
    """Per-query Dantzig pivot counts, keyed by the rule name for the CI budget."""
    per_query = {}
    started = time.perf_counter()
    nodes = 0
    for name in query_names:
        translation = translate_query(table, workload.query(name).query)
        solver = BranchAndBoundSolver(
            limits=SolverLimits(relative_gap=1e-3, node_limit=2000),
            lp_backend=LpBackend.SIMPLEX,
        )
        solution = solver.solve(translation.model)
        stats = solution.stats
        nodes += stats.nodes_explored
        per_query[name] = {
            "status": solution.status.value,
            "objective": None
            if solution.objective_value != solution.objective_value
            else solution.objective_value,
            "nodes_explored": stats.nodes_explored,
            "lp_solves": stats.lp_solves,
            "simplex_iterations": stats.simplex_iterations,
            "refactorizations": stats.refactorizations,
            "eta_peak": stats.eta_peak,
            "pricing_rule": stats.pricing_rule,
        }
    elapsed = time.perf_counter() - started
    return {
        "dantzig": {
            "wall_seconds": round(elapsed, 4),
            "nodes_per_second": round(nodes / elapsed, 1),
            "simplex_iterations": sum(q["simplex_iterations"] for q in per_query.values()),
            "per_query": per_query,
        }
    }


def _profile_storage(table, workload, query_names) -> dict:
    """Constraint-storage accounting: matrix-form pipeline vs the dense baseline."""
    per_query = {}
    for name in query_names:
        if name == "SPARSE_PROBE":
            query = _sparse_probe_query(table)
        else:
            query = workload.query(name).query
        model = translate_query(table, query).model
        form = model.to_matrix()
        work = _WorkMatrix(form.c, form.a_ub, form.b_ub, form.a_eq, form.b_eq)

        n = model.num_variables
        rows = model.num_constraints
        nnz = form.nnz
        model_bytes = sum(c.indices.nbytes + c.values.nbytes for c in model.constraints)
        now_total = model_bytes + form.constraint_storage_bytes() + _work_matrix_bytes(work)

        # PR 1 dense baseline for the identical model: one coefficient dict per
        # constraint, dense A_ub/A_eq, and the dense m x (n + mu + m) working
        # matrix the simplex re-filled on every solve.
        baseline_dicts = sum(_dict_entry_bytes(c.nnz) for c in model.constraints)
        # GE rows land in a_ub, so the dense matrices cover every row.
        baseline_matrices = form.dense_storage_bytes()
        mu = form.a_ub.shape[0]
        baseline_work = work.m * (n + mu + work.m) * 8
        baseline_total = baseline_dicts + baseline_matrices + baseline_work

        per_query[name] = {
            "variables": n,
            "constraint_rows": rows,
            "nnz": nnz,
            "storage": "csr" if form.is_sparse else "dense",
            "form_bytes": form.constraint_storage_bytes(),
            "form_sparse_bytes": form.sparse_storage_bytes(),
            "form_dense_bytes": form.dense_storage_bytes(),
            "model_coefficient_bytes": model_bytes,
            "work_matrix_bytes": _work_matrix_bytes(work),
            "constraint_storage_bytes": now_total,
            "dense_baseline_bytes": baseline_total,
            "reduction_vs_dense_baseline": round(1.0 - now_total / baseline_total, 4),
        }
    totals = {
        "nnz": sum(q["nnz"] for q in per_query.values()),
        "constraint_storage_bytes": sum(
            q["constraint_storage_bytes"] for q in per_query.values()
        ),
        "dense_baseline_bytes": sum(q["dense_baseline_bytes"] for q in per_query.values()),
    }
    totals["reduction_vs_dense_baseline"] = round(
        1.0 - totals["constraint_storage_bytes"] / totals["dense_baseline_bytes"], 4
    )
    return {"per_query": per_query, **totals}


def _peak_rss_bytes() -> int | None:
    """Peak resident set size of this process (bytes), where available."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports kilobytes, macOS bytes.
    return peak * 1024 if sys.platform.startswith("linux") else peak


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=800, help="Galaxy table size")
    parser.add_argument(
        "--form-rows", type=int, default=20_000,
        help="Galaxy table size for the large-instance constraint-storage profile",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--out", default="BENCH_solver.json", help="output path")
    args = parser.parse_args()

    table = galaxy_table(args.rows, seed=args.seed)
    workload = galaxy_workload(table, seed=args.seed)

    warm = _run_configuration(table, workload, warm_start_lp=True)
    cold = _run_configuration(table, workload, warm_start_lp=False)
    storage = _profile_storage(table, workload, _STORAGE_QUERIES)
    presolve_solves = _presolve_ablation(table, workload)
    pricing = _pricing_profile(table, workload, _QUERIES)

    large_table = galaxy_table(args.form_rows, seed=args.seed)
    large_workload = galaxy_workload(large_table, seed=args.seed)
    large_storage = _profile_storage(large_table, large_workload, _STORAGE_QUERIES)
    presolve_root_large = _profile_root_reduction(
        large_table, large_workload, _PRESOLVE_QUERIES
    )
    large_solve = _pricing_profile(large_table, large_workload, _LARGE_SOLVE_QUERIES)

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"

    report = {
        "benchmark": "galaxy-direct-simplex-bnb",
        "description": (
            "SIMPLEX-backend branch-and-bound over the Galaxy DIRECT workload "
            f"({args.rows} rows, queries {', '.join(_QUERIES)}); warm = basis "
            "reuse across the tree, cold = every node solved from scratch. "
            "matrix_form profiles constraint storage (model arrays + matrix "
            "form + shared simplex working matrix) against the PR 1 dense "
            "pipeline (coefficient dicts + dense matrices + per-solve dense "
            f"working matrix), at {args.rows} and {args.form_rows} rows."
        ),
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "rows": args.rows,
        "seed": args.seed,
        "warm": warm,
        "cold": cold,
        "iteration_savings": round(
            1.0 - warm["simplex_iterations"] / max(1, cold["simplex_iterations"]), 4
        ),
        "matrix_form": {
            "rows": args.rows,
            **storage,
        },
        "matrix_form_large": {
            "rows": args.form_rows,
            **large_storage,
        },
        "presolve": {
            # Solve ablation at --rows; root-LP reduction profile at the
            # --form-rows DIRECT instance (where column elimination matters).
            "rows": args.rows,
            "solve": presolve_solves,
            "root_reduction_large": {
                "rows": args.form_rows,
                "per_query": presolve_root_large,
            },
        },
        "pricing_ablation": {
            "rows": args.rows,
            **pricing,
        },
        "large_solve": {
            "rows": args.form_rows,
            **large_solve,
        },
        "peak_rss_bytes": _peak_rss_bytes(),
    }

    out = Path(args.out)
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}")
    print(
        f"warm: {warm['nodes_per_second']} nodes/s, hit rate "
        f"{warm['warm_start_hit_rate']:.0%}, {warm['simplex_iterations']} pivots"
    )
    print(
        f"cold: {cold['nodes_per_second']} nodes/s, {cold['simplex_iterations']} pivots"
    )
    print(
        f"storage @{args.form_rows} rows: {large_storage['nnz']} nnz, "
        f"{large_storage['constraint_storage_bytes']:,} bytes vs dense baseline "
        f"{large_storage['dense_baseline_bytes']:,} "
        f"({large_storage['reduction_vs_dense_baseline']:.0%} smaller)"
    )
    probe = presolve_root_large["PRESOLVE_PROBE"]
    print(
        f"presolve @{args.form_rows} rows (probe): "
        f"{probe['columns']} -> {probe.get('columns_after', 0)} columns, "
        f"{probe['rows']} -> {probe.get('rows_after', 0)} rows in "
        f"{probe['presolve_ms']:.1f} ms; objectives match: "
        f"{presolve_solves['objectives_match']}"
    )
    print(f"dantzig @{args.rows} rows: {pricing['dantzig']['simplex_iterations']} pivots")
    dantzig_large = large_solve["dantzig"]
    print(
        f"large solve @{args.form_rows} rows: dantzig "
        f"{dantzig_large['nodes_per_second']} nodes/s, "
        f"{dantzig_large['simplex_iterations']} pivots"
    )
    rss = report["peak_rss_bytes"]
    if rss:
        print(f"peak RSS: {rss / 1e6:.1f} MB")


if __name__ == "__main__":
    main()
