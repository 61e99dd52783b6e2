"""Tests for the PaQL AST helpers: linear aggregate algebra and query copies."""

import pytest

from repro.db.aggregates import AggregateFunction
from repro.db.expressions import col
from repro.errors import PaQLValidationError
from repro.paql.ast import (
    AggregateRef,
    ConstraintSenseKeyword,
    GlobalConstraint,
    LinearAggregateExpression,
    Objective,
    ObjectiveDirection,
    PackageQuery,
)
from repro.paql.builder import query_over

COUNT = AggregateRef(AggregateFunction.COUNT)
SUM_KCAL = AggregateRef(AggregateFunction.SUM, "kcal")


class TestAggregateRef:
    def test_non_count_aggregates_need_a_column(self):
        with pytest.raises(PaQLValidationError):
            AggregateRef(AggregateFunction.SUM)

    def test_referenced_columns_include_the_filter(self):
        ref = AggregateRef(AggregateFunction.SUM, "kcal", filter=col("carbs") > 0)
        assert ref.referenced_columns == {"kcal", "carbs"}
        assert COUNT.referenced_columns == set()

    def test_describe_plain_and_filtered(self):
        assert COUNT.describe() == "COUNT(P.*)"
        assert SUM_KCAL.describe() == "SUM(P.kcal)"
        filtered = AggregateRef(AggregateFunction.COUNT, filter=col("carbs") > 0)
        assert filtered.describe().startswith("(SELECT COUNT(*) FROM P WHERE ")


class TestLinearAggregateExpression:
    def test_constant_expressions(self):
        expression = LinearAggregateExpression.constant_of(4)
        assert expression.is_constant
        assert expression.constant == 4.0
        assert not LinearAggregateExpression.of(COUNT).is_constant

    def test_add_chains_and_mutates_in_place(self):
        expression = LinearAggregateExpression()
        returned = expression.add(2, SUM_KCAL).add(-1, COUNT)
        assert returned is expression
        assert expression.terms == [(2.0, SUM_KCAL), (-1.0, COUNT)]

    def test_negated_scaled_and_plus_leave_operands_untouched(self):
        base = LinearAggregateExpression([(2.0, SUM_KCAL)], constant=1.0)
        other = LinearAggregateExpression.of(COUNT, 3.0)
        assert base.negated().terms == [(-2.0, SUM_KCAL)]
        assert base.negated().constant == -1.0
        assert base.scaled(0.5).terms == [(1.0, SUM_KCAL)]
        combined = base.plus(other)
        assert combined.terms == [(2.0, SUM_KCAL), (3.0, COUNT)]
        assert combined.constant == 1.0
        assert base.terms == [(2.0, SUM_KCAL)]


class TestGlobalConstraintAndObjective:
    def test_between_needs_ordered_bounds(self):
        expression = LinearAggregateExpression.of(COUNT)
        with pytest.raises(PaQLValidationError):
            GlobalConstraint(expression, ConstraintSenseKeyword.BETWEEN, 3)
        with pytest.raises(PaQLValidationError):
            GlobalConstraint(expression, ConstraintSenseKeyword.BETWEEN, 5, 3)
        with pytest.raises(PaQLValidationError):
            GlobalConstraint(expression, ConstraintSenseKeyword.LE, 3, 5)

    def test_describe(self):
        between = GlobalConstraint(
            LinearAggregateExpression.of(SUM_KCAL), ConstraintSenseKeyword.BETWEEN, 2, 2.5
        )
        assert between.describe() == "SUM(P.kcal) BETWEEN 2 AND 2.5"
        scaled = GlobalConstraint(
            LinearAggregateExpression([(2.0, COUNT)], constant=1.0), ConstraintSenseKeyword.LE, 7
        )
        assert scaled.describe() == "2*COUNT(P.*) + 1 <= 7"
        objective = Objective(ObjectiveDirection.MAXIMIZE, LinearAggregateExpression.of(SUM_KCAL))
        assert objective.describe() == "MAXIMIZE SUM(P.kcal)"


class TestPackageQuery:
    def test_with_constraints_returns_an_extended_copy(self):
        query = query_over("recipes", name="meal").no_repetition().count_equals(3).build()
        extra = GlobalConstraint(
            LinearAggregateExpression.of(SUM_KCAL), ConstraintSenseKeyword.LE, 2.5
        )
        extended = query.with_constraints([extra])
        assert isinstance(extended, PackageQuery)
        assert len(query.global_constraints) == 1
        assert extended.global_constraints[-1] is extra
        assert (extended.relation, extended.repeat, extended.name) == ("recipes", 0, "meal")

    def test_describe_lists_repeat_constraints_and_objective(self):
        query = query_over("recipes").no_repetition().count_equals(3).maximize_sum("kcal").build()
        assert query.describe() == (
            "PackageQuery over recipes; REPEAT 0; COUNT(P.*) = 3; MAXIMIZE SUM(P.kcal)"
        )
