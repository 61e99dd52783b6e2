"""Tests for the programmatic builder and the PaQL formatter (round trips)."""

import pytest

from repro.db.aggregates import AggregateFunction
from repro.db.expressions import Not, col
from repro.paql.ast import (
    AggregateRef,
    ConstraintSenseKeyword,
    GlobalConstraint,
    LinearAggregateExpression,
    ObjectiveDirection,
)
from repro.paql.builder import query_over
from repro.paql.parser import parse_paql
from repro.paql.pretty import format_expression, format_paql


class TestBuilder:
    def test_full_query(self):
        query = (
            query_over("recipes", name="meal")
            .no_repetition()
            .where(col("gluten") == "free")
            .count_equals(3)
            .sum_between("kcal", 2.0, 2.5)
            .minimize_sum("saturated_fat")
            .build()
        )
        assert query.relation == "recipes"
        assert query.name == "meal"
        assert query.repeat == 0
        assert len(query.global_constraints) == 2
        assert query.objective.direction is ObjectiveDirection.MINIMIZE

    def test_where_accumulates_conjunctively(self):
        query = (
            query_over("t").where(col("a") > 1).where(col("b") < 2).count_equals(1).build()
        )
        assert query.base_predicate.referenced_columns() == {"a", "b"}

    def test_count_variants(self):
        query = (
            query_over("t")
            .count_at_least(2)
            .count_at_most(5)
            .count_between(2, 5)
            .build()
        )
        senses = [c.sense for c in query.global_constraints]
        assert senses == [
            ConstraintSenseKeyword.GE,
            ConstraintSenseKeyword.LE,
            ConstraintSenseKeyword.BETWEEN,
        ]

    def test_sum_variants(self):
        query = (
            query_over("t")
            .sum_at_least("x", 1)
            .sum_at_most("x", 9)
            .sum_equals("y", 5)
            .build()
        )
        senses = [c.sense for c in query.global_constraints]
        assert senses == [
            ConstraintSenseKeyword.GE,
            ConstraintSenseKeyword.LE,
            ConstraintSenseKeyword.EQ,
        ]

    def test_avg_constraints(self):
        query = query_over("t").avg_at_most("x", 2).avg_at_least("x", 1).build()
        functions = [c.expression.terms[0][1].function for c in query.global_constraints]
        assert functions == [AggregateFunction.AVG, AggregateFunction.AVG]

    def test_filtered_counts(self):
        query = (
            query_over("t")
            .filtered_count_at_least(col("x") > 0, 2)
            .filtered_count_at_most(col("y") < 0, 1)
            .build()
        )
        assert all(
            c.expression.terms[0][1].filter is not None for c in query.global_constraints
        )

    def test_compare_counts(self):
        query = query_over("t").compare_counts(col("a") > 0, col("b") > 0).build()
        terms = query.global_constraints[0].expression.terms
        assert [coefficient for coefficient, _ in terms] == [1.0, -1.0]

    def test_objectives(self):
        assert (
            query_over("t").maximize_sum("x").build().objective.direction
            is ObjectiveDirection.MAXIMIZE
        )
        assert (
            query_over("t").minimize_count().build().objective.expression.terms[0][1].function
            is AggregateFunction.COUNT
        )
        assert (
            query_over("t").maximize_count().build().objective.direction
            is ObjectiveDirection.MAXIMIZE
        )

    def test_numeric_query_columns(self):
        query = (
            query_over("t")
            .where(col("label") == "x")
            .sum_at_most("a", 1)
            .minimize_sum("b")
            .build()
        )
        assert query.numeric_query_columns == {"a", "b"}
        assert query.referenced_columns == {"label", "a", "b"}


    def test_constrain_adds_a_prebuilt_constraint(self):
        difference = LinearAggregateExpression.of(AggregateRef(AggregateFunction.SUM, "protein"))
        difference.add(-1.0, AggregateRef(AggregateFunction.SUM, "fat"))
        constraint = GlobalConstraint(difference, ConstraintSenseKeyword.GE, 0)
        query = query_over("recipes").count_equals(3).constrain(constraint).build()
        assert query.global_constraints[-1] is constraint
        assert query.numeric_query_columns == {"protein", "fat"}
        assert "SUM(P.protein) - SUM(P.fat) >= 0" in format_paql(query)


class TestFormatExpression:
    def test_columns_are_qualified_and_strings_quoted(self):
        assert format_expression(col("gluten") == "free", "R") == "R.gluten = 'free'"

    def test_arithmetic_is_parenthesised_and_numbers_canonical(self):
        expression = (col("kcal") * 2.0 + 1.5) <= 10.0
        assert format_expression(expression, "T") == "((T.kcal * 2) + 1.5) <= 10"

    def test_logical_not_and_in_list(self):
        expression = (col("a") > 1) & Not(col("label").isin(["x", 3.0]))
        assert format_expression(expression, "R") == "(R.a > 1 AND NOT R.label IN ('x', 3))"

    def test_formatted_where_clause_parses_back(self):
        predicate = (col("kcal") < 1.5) | col("gluten").isin(["free"])
        text = f"SELECT PACKAGE(R) AS P FROM recipes R WHERE {format_expression(predicate, 'R')}"
        reparsed = parse_paql(text)
        assert format_expression(reparsed.base_predicate, "R") == format_expression(predicate, "R")


class TestFormatterRoundTrip:
    CASES = [
        "SELECT PACKAGE(R) AS P FROM recipes R",
        "SELECT PACKAGE(R) AS P FROM recipes R REPEAT 2",
        (
            "SELECT PACKAGE(R) AS P FROM recipes R REPEAT 0 "
            "WHERE R.gluten = 'free' AND R.kcal <= 1.5 "
            "SUCH THAT COUNT(P.*) = 3 AND SUM(P.kcal) BETWEEN 2.0 AND 2.5 "
            "MINIMIZE SUM(P.saturated_fat)"
        ),
        (
            "SELECT PACKAGE(T) AS P FROM items T "
            "SUCH THAT (SELECT COUNT(*) FROM P WHERE P.carbs > 0) >= 2 "
            "MAXIMIZE SUM(P.value)"
        ),
        (
            "SELECT PACKAGE(T) AS P FROM items T "
            "SUCH THAT AVG(P.price) <= 10 AND 2 * SUM(P.qty) - COUNT(P.*) >= 0"
        ),
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_parse_format_parse_is_stable(self, text):
        query = parse_paql(text)
        formatted = format_paql(query)
        reparsed = parse_paql(formatted)
        assert reparsed.relation == query.relation
        assert reparsed.repeat == query.repeat
        assert len(reparsed.global_constraints) == len(query.global_constraints)
        for original, round_tripped in zip(query.global_constraints, reparsed.global_constraints):
            assert round_tripped.sense is original.sense
            assert round_tripped.lower == pytest.approx(original.lower)
            if original.upper is not None:
                assert round_tripped.upper == pytest.approx(original.upper)
            original_coefficients = [c for c, _ in original.expression.terms]
            reparsed_coefficients = [c for c, _ in round_tripped.expression.terms]
            assert reparsed_coefficients == pytest.approx(original_coefficients)
        if query.objective is None:
            assert reparsed.objective is None
        else:
            assert reparsed.objective.direction is query.objective.direction

    def test_builder_query_formats(self):
        query = (
            query_over("recipes")
            .no_repetition()
            .where(col("gluten") == "free")
            .count_equals(3)
            .minimize_sum("fat")
            .build()
        )
        text = format_paql(query)
        assert "SELECT PACKAGE" in text
        assert "REPEAT 0" in text
        assert "MINIMIZE SUM(P.fat)" in text
        # The formatted text is itself valid PaQL.
        parse_paql(text)
