#!/usr/bin/env python3
"""Pinned reference optima for the benchmark's fixed data set.

The DIRECT optimum of every query on every data-set table a default-length
run visits is pinned in ``reference_optima.json`` (row order does not change
an optimum, so these hold for every seed).  For the default seed (42) and
the confirmation seed (7) the SKETCHREFINE objectives the default engine
returns are pinned too, so same-seed runs must reproduce them exactly.
Tables beyond the pinned ones get their optima computed before their timed
pass.  The optima come from the SIMPLEX-backed branch-and-bound solver,
outside any timing.

Regenerate (about two minutes) with::

    python3 perfbench/references.py
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

PINNED_PATH = HERE / "reference_optima.json"
PINNED_SEEDS = (42, 7)
#: Data-set tables pinned per workload: enough for runs of up to 24 seconds.
PINNED_INSTANCES = {"direct-galaxy": 60, "sketchrefine-galaxy": 4, "update-requery": 1}


def pinned(workload: str) -> dict | None:
    """The workload's pins: ``optima[index][query]`` and
    ``sketchrefine[seed][index][query]``, or ``None`` without a pin file."""
    if not PINNED_PATH.exists():
        return None
    return json.loads(PINNED_PATH.read_text()).get(workload)


def main() -> int:
    import workloads

    sizes = workloads.DEFAULT_SIZES
    workdir = HERE / "out" / "work-references"
    seed = PINNED_SEEDS[0]  # row order does not change an optimum
    result: dict = {}
    try:
        direct = {}
        for index in range(PINNED_INSTANCES["direct-galaxy"]):
            table = workloads.instance_table(workloads.DIRECT, index, sizes.direct_rows, seed)
            direct[str(index)] = workloads.reference_optima(
                table, workloads.paql_queries(table, workloads.SOLVE_QUERIES))
        result["direct-galaxy"] = {"optima": direct}
        print("direct-galaxy pinned", flush=True)

        sketch: dict = {"optima": {}, "sketchrefine": {}}
        for seed in PINNED_SEEDS:
            objectives = sketch["sketchrefine"].setdefault(str(seed), {})
            for index in range(PINNED_INSTANCES["sketchrefine-galaxy"]):
                table, engine, wal_path, queries = workloads.sketch_instance(
                    seed, index, workdir, sizes, workloads.Outcome())
                if str(index) not in sketch["optima"]:
                    sketch["optima"][str(index)] = workloads.reference_optima(table, queries)
                objectives[str(index)] = {
                    name: engine.execute(text, method="sketchrefine", cache="bypass",
                                         partitioning_label=label).objective
                    for name, text, label in queries
                }
                workloads.close_durable(engine, wal_path)
                print(f"sketchrefine-galaxy seed {seed} table {index} pinned", flush=True)
        result["sketchrefine-galaxy"] = sketch

        table = workloads.instance_table(workloads.UPDATE, 0, sizes.update_rows, seed)
        result["update-requery"] = {"optima": {"0": workloads.reference_optima(
            table, workloads.paql_queries(table, workloads.HOT_QUERIES))}}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    PINNED_PATH.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
