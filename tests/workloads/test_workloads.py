"""Tests for the workload generators (recipes, Galaxy, TPC-H)."""

import numpy as np
import pytest

from repro.core.direct import DirectEvaluator
from repro.core.validation import check_package
from repro.ilp.branch_and_bound import BranchAndBoundSolver, SolverLimits
from repro.paql.ast import ConstraintSenseKeyword
from repro.paql.validator import validate_query
from repro.workloads.galaxy import GALAXY_ATTRIBUTES, galaxy_table, galaxy_workload
from repro.workloads.recipes import balanced_meal_query, meal_planner_query, recipes_table
from repro.workloads.specs import Workload
from repro.workloads.tpch import TPCH_ATTRIBUTES, query_projection, tpch_table, tpch_workload


class TestRecipes:
    def test_deterministic_given_seed(self):
        assert recipes_table(50, seed=3).equals(recipes_table(50, seed=3))
        assert not recipes_table(50, seed=3).equals(recipes_table(50, seed=4))

    def test_schema_and_values(self):
        table = recipes_table(100, seed=1)
        assert table.num_rows == 100
        assert set(table.column("gluten")) <= {"free", "contains"}
        kcal = table.numeric_column("kcal")
        assert kcal.min() >= 0.3 and kcal.max() <= 1.4

    def test_queries_validate_against_schema(self):
        table = recipes_table(20, seed=1)
        validate_query(meal_planner_query(), table.schema)
        validate_query(balanced_meal_query(), table.schema)


class TestGalaxy:
    def test_deterministic_and_sized(self):
        table = galaxy_table(300, seed=2)
        assert table.num_rows == 300
        assert table.schema.names == GALAXY_ATTRIBUTES
        assert table.equals(galaxy_table(300, seed=2))

    def test_attribute_correlations_present(self):
        """Brighter galaxies (larger flux) must have smaller magnitudes —
        the latent-factor structure that makes centroid representatives useful."""
        table = galaxy_table(2000, seed=2)
        flux = table.numeric_column("petroFlux_r")
        magnitude = table.numeric_column("petroMag_r")
        correlation = np.corrcoef(np.log(flux), magnitude)[0, 1]
        assert correlation < -0.5

    def test_workload_has_seven_valid_queries(self):
        table = galaxy_table(300, seed=2)
        workload = galaxy_workload(table)
        assert workload.query_names == ["Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7"]
        for workload_query in workload.queries:
            validate_query(workload_query.query, table.schema)
            assert workload_query.attributes <= set(GALAXY_ATTRIBUTES)

    def test_workload_attributes_are_union(self):
        workload = galaxy_workload(galaxy_table(200, seed=2))
        union = set()
        for workload_query in workload.queries:
            union |= workload_query.attributes
        assert set(workload.workload_attributes) == union

    def test_queries_are_feasible_on_generated_data(self):
        table = galaxy_table(400, seed=2)
        workload = galaxy_workload(table)
        solver = BranchAndBoundSolver(
            limits=SolverLimits(relative_gap=1e-3, node_limit=2000, time_limit_seconds=30)
        )
        evaluator = DirectEvaluator(solver=solver)
        for name in ("Q1", "Q3", "Q5"):
            query = workload.query(name).query
            package = evaluator.evaluate(table, query)
            assert check_package(package, query).feasible, name

    def test_q1_redshift_window_is_centred_on_ten_average_galaxies(self):
        table = galaxy_table(300, seed=2)
        window = galaxy_workload(table).query("Q1").query.global_constraints[1]
        assert window.sense is ConstraintSenseKeyword.BETWEEN
        centre = 10 * np.nanmean(table.numeric_column("redshift"))
        assert (window.lower + window.upper) / 2 == pytest.approx(centre)
        assert window.upper / window.lower == pytest.approx(1.35 / 0.65)

    def test_query_lookup_errors(self):
        workload = galaxy_workload(galaxy_table(100, seed=2))
        with pytest.raises(KeyError):
            workload.query("Q99")


class TestTpch:
    def test_schema_and_null_blocks(self):
        table = tpch_table(500, seed=4)
        assert table.schema.names == TPCH_ATTRIBUTES
        # The outer-join structure leaves NULLs in every source-relation block.
        for column in ("quantity", "ordertotal", "retailprice", "supplycost", "acctbal"):
            null_fraction = table.null_mask(column).mean()
            assert 0.0 < null_fraction < 0.6

    def test_query_projection_drops_nulls(self):
        table = tpch_table(500, seed=4)
        workload = tpch_workload(table, seed=4)
        for workload_query in workload.queries:
            projection = query_projection(table, workload_query.query)
            assert 0 < projection.num_rows <= table.num_rows
            for attribute in workload_query.attributes:
                assert not projection.null_mask(attribute).any()

    def test_projection_sizes_differ_by_query(self):
        table = tpch_table(800, seed=4)
        workload = tpch_workload(table, seed=4)
        sizes = {
            q.name: query_projection(table, q.query).num_rows for q in workload.queries
        }
        assert max(sizes.values()) > 1.5 * min(sizes.values())

    def test_workload_has_seven_valid_queries(self):
        table = tpch_table(300, seed=4)
        workload = tpch_workload(table, seed=4)
        assert len(workload.queries) == 7
        for workload_query in workload.queries:
            validate_query(workload_query.query, table.schema)

    def test_bounds_deterministic_given_seed(self):
        table = tpch_table(300, seed=4)
        first = tpch_workload(table, seed=4)
        second = tpch_workload(table, seed=4)
        for one, two in zip(first.queries, second.queries):
            assert [c.lower for c in one.query.global_constraints] == [
                c.lower for c in two.query.global_constraints
            ]

    def test_q1_quantity_window_is_jittered_around_twelve_average_items(self):
        table = tpch_table(300, seed=4)
        window = tpch_workload(table, seed=4).query("Q1").query.global_constraints[1]
        assert window.sense is ConstraintSenseKeyword.BETWEEN
        quantity = table.numeric_column("quantity")
        nominal = 12 * quantity[~np.isnan(quantity)].mean()
        centre = (window.lower + window.upper) / 2
        assert 0.9 * nominal <= centre <= 1.1 * nominal
        assert window.upper / window.lower == pytest.approx(1.4 / 0.6)

    def test_sample_query_feasible(self):
        table = tpch_table(600, seed=4)
        workload = tpch_workload(table, seed=4)
        query = workload.query("Q5").query
        projection = query_projection(table, query)
        solver = BranchAndBoundSolver(limits=SolverLimits(relative_gap=1e-3, node_limit=2000))
        package = DirectEvaluator(solver=solver).evaluate(projection, query)
        assert check_package(package, query).feasible


class TestWorkloadSpec:
    def test_workload_dataclass_helpers(self):
        table = recipes_table(30, seed=1)
        workload = Workload("recipes", table, [])
        assert workload.workload_attributes == []
        assert workload.query_names == []
