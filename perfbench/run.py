#!/usr/bin/env python3
"""Default-path engine benchmark: one command, every workload.

Drives a default-constructed ``PackageQueryEngine`` through one workload,
checks every answer, and prints every metric with its unit; the last line of
standard output is the JSON result::

    python3 perfbench/run.py --workload direct-galaxy --seed 42 --seconds 12 --trace 0

``--trace 0`` reports the end-to-end metrics of an untraced run.
``--trace 1`` runs the same inputs twice, untraced and then with spans on
every layer's entry points, and reports the per-layer metrics plus the
tracing overhead; the spans go to ``perfbench/out/``.  Each run appends its
per-operation medians to ``perfbench/out/run_table.csv`` and its full record
(metrics plus provenance) to ``perfbench/out/records.jsonl``.  METRICS.md
documents every metric.  The exit code is 1 if any operation failed.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

#: The workloads BENCHMARK.json names.
WORKLOADS = ("direct-galaxy", "update-requery")
#: Runnable but left out of BENCHMARK.json: its runs could not be made
#: steady within the run budget (METRICS.md).
EXTRA_WORKLOADS = ("sketchrefine-galaxy",)

#: Work units per requested second, measured on a 2-vCPU VM: Galaxy
#: instances for the solve workloads, commit-and-requery steps for
#: update-requery.  Fixing the work (not the wall time) makes both sides of
#: a comparison replay the same operations.
UNITS_PER_SECOND = {"direct-galaxy": 2.5, "sketchrefine-galaxy": 1 / 6, "update-requery": 12.0}
#: update-requery's floor: ten commits beyond the commit p90 and ten reads
#: beyond the read p95 recorded in the run table.
MIN_UNITS = {"direct-galaxy": 1, "sketchrefine-galaxy": 1, "update-requery": 100}

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_gmean_ms": "ms",
    "approx_ratio": "ratio",
    "wal_bytes_per_user_byte": "ratio",
    "recover_s": "s",
    "peak_rss_mb": "MB",
}


def units_for(workload: str, seconds: float) -> int:
    return max(MIN_UNITS[workload], math.ceil(seconds * UNITS_PER_SECOND[workload]))


def gmean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def run_workload(workload: str, seed: int, units: int, sizes, tracer=None):
    import references
    import workloads
    from calibration import HOST

    HOST.reset()
    workdir = OUT / f"work-{os.getpid()}"
    pinned = references.pinned(workload) if sizes == workloads.DEFAULT_SIZES else None
    try:
        if workload == "direct-galaxy":
            return workloads.run_direct(seed, units, workdir, sizes, tracer, pinned)
        if workload == "sketchrefine-galaxy":
            return workloads.run_sketchrefine(seed, units, workdir, sizes, tracer, pinned)
        return workloads.run_update(seed, units, workdir, sizes, tracer, pinned)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def operation_kinds(workload: str, outcome) -> list[str]:
    if workload == "update-requery":
        return ["commit", "read"]
    return [k for k in outcome.samples if k.startswith("Q") and "." not in k]


def end_to_end_metrics(workload: str, outcome, reference: bool = True) -> dict[str, float]:
    """The end-to-end metrics, timed in reference time (calibration.py)
    or, with ``reference=False``, in wall-clock time."""
    from calibration import HOST

    def timed(kind: str) -> list[float]:
        samples = outcome.samples.get(kind, [])
        if not reference:
            return samples
        return [ms * HOST.factor(end - ms / 1000.0, end)
                for ms, end in zip(samples, outcome.ends[kind])]

    latencies = [ms for kind in operation_kinds(workload, outcome) for ms in timed(kind)]
    return {
        "setup_s": statistics.median(timed("setup")) / 1000.0,
        "ops_per_s": len(latencies) / (sum(latencies) / 1000.0),
        "op_gmean_ms": gmean(latencies),
        "approx_ratio": gmean(statistics.median(v) for v in outcome.ratios.values()),
        "wal_bytes_per_user_byte": outcome.extra["wal_bytes"] / outcome.extra["user_bytes"],
        "recover_s": statistics.median(timed("recover")) / 1000.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def run_table_rows(workload: str, seed: int, run_id: str, trace: int, outcome) -> list[dict]:
    """One row per (workload, run, operation kind) with its latency profile."""
    kinds = dict(outcome.samples)
    kinds["pass"] = [s * 1000.0 for s in outcome.pass_s]
    rows = []
    for kind, values in sorted(kinds.items()):
        if not values:
            continue
        rows.append({
            "workload": workload, "seed": seed, "run": run_id, "trace": trace,
            "kind": kind, "samples": len(values),
            "median_ms": round(statistics.median(values), 4),
            "p90_ms": round(percentile(values, 90), 4),
            "p95_ms": round(percentile(values, 95), 4),
            "max_ms": round(max(values), 4),
        })
    return rows


def append_run_table(rows: list[dict]) -> None:
    path = OUT / "run_table.csv"
    new = not path.exists()
    with open(path, "a", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        if new:
            writer.writeheader()
        writer.writerows(rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + EXTRA_WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny tables and one unit of work (the benchmark's own tests)")
    args = parser.parse_args(argv)

    import workloads
    from provenance import provenance
    from tracing import Tracer, accounting_error, install_layer_spans, layer_metrics

    OUT.mkdir(parents=True, exist_ok=True)
    sizes = workloads.SMOKE_SIZES if args.smoke else workloads.DEFAULT_SIZES
    units = 1 if args.smoke else units_for(args.workload, args.seconds)
    run_id = f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    started = time.perf_counter()

    if args.trace:
        half = max(1, units // 2) if not args.smoke else 1
        plain = run_workload(args.workload, args.seed, half, sizes)
        tracer = Tracer()
        install_layer_spans(tracer)
        try:
            traced = run_workload(args.workload, args.seed, half, sizes, tracer)
        finally:
            tracer.unpatch()
        tracer.dump(OUT / f"spans-{args.workload}-{args.seed}-{run_id}.jsonl")
        outcomes = [plain, traced]
        metrics = layer_metrics(tracer.spans, traced.measured_s / plain.measured_s)
        values = {name: value for name, (value, _) in metrics.items()}
        units_of = {name: unit for name, (_, unit) in metrics.items()}
        extra = {"span_accounting_error": accounting_error(tracer.spans),
                 "spans": len(tracer.spans)}
        pricing: dict[str, int] = {}
        for span in tracer.spans:
            rule = span.counters.get("pricing")
            if rule:
                pricing[f"{span.name}:{rule}"] = pricing.get(f"{span.name}:{rule}", 0) + 1
    else:
        from calibration import HOST

        outcome = run_workload(args.workload, args.seed, units, sizes)
        outcomes = [outcome]
        values = end_to_end_metrics(args.workload, outcome)
        units_of = END_TO_END_UNITS
        extra = {"cache_status": outcome.cache_status,
                 "wall_metrics": end_to_end_metrics(args.workload, outcome, reference=False),
                 "host_speed_factor": HOST.factor(), "calibration_samples": len(HOST.samples)}
        pricing = outcome.pricing

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    failures = [f for o in outcomes for f in o.failures]
    record = {
        "workload": args.workload, "seed": args.seed, "run": run_id, "trace": args.trace,
        "units": units, "sizes": dataclasses.asdict(sizes),
        "wall_s": time.perf_counter() - started,
        "attempted": attempted, "failed": failed, "failures": failures[:20],
        "metrics": {n: {"value": values[n], "unit": units_of[n]} for n in values},
        "pricing_per_solve": pricing, **extra,
        "provenance": provenance(ROOT),
    }
    rows = [row for o in outcomes
            for row in run_table_rows(args.workload, args.seed, run_id, args.trace, o)]
    if rows:
        append_run_table(rows)
    with open(OUT / "records.jsonl", "a") as handle:
        handle.write(json.dumps(record) + "\n")

    for name, value in values.items():
        print(f"{args.workload} {name} = {value:.6g} {units_of[name]}")
    print(f"{args.workload} operations: {attempted} attempted, {failed} failed")
    for failure in failures[:20]:
        print(f"FAILED: {failure}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
