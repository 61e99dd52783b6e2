"""Tests for the solver black-box protocol, IIS extraction and statuses."""

import numpy as np
import pytest

from repro.ilp.branch_and_bound import BranchAndBoundSolver, SolverLimits
from repro.ilp.iis import constraint_columns, find_iis
from repro.ilp.model import ConstraintSense, IlpModel, ObjectiveSense
from repro.ilp.status import Solution, SolverStatus


def knapsack(values, weights, capacity) -> IlpModel:
    model = IlpModel()
    for i in range(len(values)):
        model.add_variable(f"x{i}", 0, 1)
    model.add_constraint({i: float(w) for i, w in enumerate(weights)}, ConstraintSense.LE, capacity)
    model.set_objective(ObjectiveSense.MAXIMIZE, {i: float(v) for i, v in enumerate(values)})
    return model


class _RecordingSolver:
    """A black box that is not a BranchAndBoundSolver: records, then delegates."""

    def __init__(self):
        self.models = []
        self._exact = BranchAndBoundSolver(limits=SolverLimits(relative_gap=1e-9))

    def solve(self, model):
        self.models.append(model)
        return self._exact.solve(model)


class TestBlackBoxProtocol:
    def test_black_box_protocol_with_direct_evaluator(self, recipes):
        """The evaluators accept any solver implementing the solve() protocol.

        The exact branch-and-bound solver is only one possible black box; a
        plain object with a ``solve(model)`` method serves DIRECT as well.
        """
        from repro.core.direct import DirectEvaluator
        from repro.core.validation import check_package
        from repro.paql.builder import query_over

        query = (
            query_over("recipes")
            .no_repetition()
            .count_at_most(5)
            .sum_at_most("kcal", 3.0)
            .maximize_sum("protein")
            .build()
        )
        solver = _RecordingSolver()
        evaluator = DirectEvaluator(solver=solver)
        package = evaluator.evaluate(recipes, query)
        assert len(solver.models) == 1
        assert check_package(package, query).feasible


class TestIis:
    def test_feasible_model_has_empty_iis(self):
        model = knapsack([1, 2], [1, 1], 2)
        assert find_iis(model) == []

    def test_single_conflicting_constraint(self):
        model = IlpModel()
        model.add_variable("x", 0, 1)
        model.add_constraint({0: 1.0}, ConstraintSense.GE, 5, name="too_big")
        assert find_iis(model) == ["too_big"]

    def test_conflicting_pair_found(self):
        model = IlpModel()
        model.add_variable("x", 0, 10)
        model.add_constraint({0: 1.0}, ConstraintSense.GE, 8, name="high")
        model.add_constraint({0: 1.0}, ConstraintSense.LE, 2, name="low")
        model.add_constraint({0: 1.0}, ConstraintSense.LE, 9, name="harmless")
        iis = find_iis(model)
        assert set(iis) == {"high", "low"}

    def test_iis_on_triplet_built_model(self):
        """The deletion filter handles models built through the array fast path."""
        model = IlpModel()
        for i in range(4):
            model.add_variable(f"x{i}", 0, 10)
        model.add_constraint_arrays(
            np.array([0, 1, 2, 3]), np.array([1.0, 1.0, 1.0, 1.0]),
            ConstraintSense.GE, 30.0, name="floor",
        )
        model.add_constraint_arrays(
            np.array([0, 1, 2, 3]), np.array([1.0, 1.0, 1.0, 1.0]),
            ConstraintSense.LE, 10.0, name="ceiling",
        )
        model.add_constraint_arrays(
            np.array([0]), np.array([1.0]), ConstraintSense.LE, 9.0, name="harmless"
        )
        model.set_objective_arrays(
            ObjectiveSense.MINIMIZE, np.array([0, 1]), np.array([1.0, 1.0])
        )
        assert set(find_iis(model)) == {"floor", "ceiling"}

    def test_constraint_columns(self):
        model = IlpModel()
        model.add_variable("x", 0, 10)
        model.add_variable("y", 0, 10)
        model.add_constraint({0: 1.0}, ConstraintSense.GE, 8, name="a")
        model.add_constraint({1: 1.0}, ConstraintSense.LE, 2, name="b")
        assert constraint_columns(model, ["a"]) == {0}
        assert constraint_columns(model, ["a", "b"]) == {0, 1}


class TestSolutionAndStatus:
    def test_status_helpers(self):
        assert SolverStatus.OPTIMAL.has_solution
        assert SolverStatus.FEASIBLE.has_solution
        assert not SolverStatus.INFEASIBLE.has_solution
        assert SolverStatus.CAPACITY_EXCEEDED.is_failure
        assert not SolverStatus.OPTIMAL.is_failure

    @pytest.mark.parametrize("status", list(SolverStatus))
    def test_solution_flags_follow_the_status(self, status):
        solution = Solution(status, np.array([1.0]), 1.0)
        assert solution.is_optimal == (status is SolverStatus.OPTIMAL)
        assert solution.has_solution == (status in (SolverStatus.OPTIMAL, SolverStatus.FEASIBLE))
        # A status either carries a solution, reports infeasibility/unboundedness,
        # or is a failure — never two of these at once.
        assert not (status.has_solution and status.is_failure)
        if not solution.has_solution:
            assert solution.value_of(0) == 0.0

    def test_solution_value_of(self):
        solution = Solution(SolverStatus.OPTIMAL, np.array([1.0, 2.0]), 3.0)
        assert solution.value_of(1) == 2.0
        assert solution.value_of(9) == 0.0
        assert Solution.infeasible().value_of(0) == 0.0

    def test_integral_values(self):
        solution = Solution(SolverStatus.OPTIMAL, np.array([0.999999, 2.000001]), 3.0)
        assert solution.integral_values().tolist() == [1, 2]

    def test_factories(self):
        assert Solution.infeasible().status is SolverStatus.INFEASIBLE
        assert Solution.failure(SolverStatus.TIME_LIMIT).status is SolverStatus.TIME_LIMIT
