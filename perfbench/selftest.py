"""The benchmark's own tests, on seconds-scale inputs.

Run with::

    python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import provenance  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--smoke", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS + run.EXTRA_WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_appears_with_its_unit(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS + run.EXTRA_WORKLOADS)
def test_spans_account_for_their_parents(workload):
    tracer = tracing.Tracer()
    tracing.install_layer_spans(tracer)
    try:
        outcome = run.run_workload(workload, 5, 1, workloads.SMOKE_SIZES, tracer)
    finally:
        tracer.unpatch()
    assert outcome.failed == 0, outcome.failures
    assert tracer.spans and all(span.end >= span.start for span in tracer.spans)
    assert tracing.accounting_error(tracer.spans) <= tracing.ACCOUNTING_TOLERANCE

    # engine.self_ms is what the layers below execute() do not account for.
    metrics = {k: v for k, (v, _) in tracing.layer_metrics(tracer.spans, 1.0).items()}
    children = sum(
        span.ms for span in tracer.spans
        if span.parent >= 0 and tracer.spans[span.parent].name == "engine.execute"
    )
    assert metrics["engine.execute_ms"] == pytest.approx(
        metrics["engine.self_ms"] + children, rel=tracing.ACCOUNTING_TOLERANCE)


def test_unpatch_restores_every_entry_point():
    from repro.core.engine import PackageQueryEngine
    from repro.db.catalog import Database

    recover = vars(Database)["recover"]
    tracer = tracing.Tracer()
    tracing.install_layer_spans(tracer)
    tracer.unpatch()
    assert vars(Database)["recover"] is recover
    engine = PackageQueryEngine()
    table = workloads.instance_table(workloads.DIRECT, 0, 40, 1)
    engine.register_table(table, name="galaxy")
    engine.execute(workloads.paql_queries(table, ("Q5",))[0][1], method="direct")
    assert tracer.spans == []


def test_a_package_holding_a_deleted_row_fails_the_oracle():
    from repro.core.engine import PackageQueryEngine

    engine = PackageQueryEngine()
    table = workloads.instance_table(workloads.DIRECT, 0, 60, 1)
    engine.register_table(table, name="galaxy")
    _, text, _ = workloads.paql_queries(table, ("Q5",))[0]
    result = engine.execute(text, method="direct", cache="bypass")
    assert workloads.answer_problem(result, text, table) is None

    doomed = int(result.package.indices[0])
    engine.update_table("galaxy", delete=[doomed])
    current = engine.table("galaxy")
    # The old answer still holds the deleted row: served at a dead version.
    assert "version" in workloads.answer_problem(result, text, current)
    # The same row ids replayed onto the new version hit other or no rows.
    stale = SimpleNamespace(
        package=SimpleNamespace(
            table=current,
            indices=result.package.indices,
            as_multiplicity_map=result.package.as_multiplicity_map,
        ),
        objective=result.objective,
    )
    assert workloads.answer_problem(stale, text, current) is not None


def test_calibration_scales_by_the_kernel_runs_near_a_sample():
    host = calibration.HostSpeed()
    host.samples = [0.010, 0.020, 0.020, 0.010, 0.010]
    host.times = [0.0, 10.0, 10.5, 10.9, 30.0]
    ref = calibration.KERNEL_REFERENCE_S
    # Runs within PAD_S of the interval: 10.0, 10.5 and 10.9.
    assert host.factor(10.2, 10.3) == pytest.approx(ref / 0.020)
    # None within PAD_S: the MIN_NEAR nearest.
    assert host.factor(20.0, 20.5) == pytest.approx(ref / 0.010)
    assert host.factor() == pytest.approx(ref / 0.010)


def test_the_benchmark_clock_stands_still_while_the_kernel_runs():
    host = calibration.HostSpeed()
    before = host.clock()
    host.tick(force=True)
    assert host.clock() - before < 0.5 * host.samples[-1]


def test_the_calibration_burn_leaves_no_process_behind():
    assert provenance.effective_parallelism(steps=20_000) > 0
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
