"""Further evaluator coverage: paper Section 2's motivating queries,
aggregate bindings, nulls, nesting, tracing and context options."""

from __future__ import annotations

import pytest

from repro.core.evaluator import EvalContext, answers, holds, satisfy
from repro.core.parser import parse_query
from repro.errors import EvaluationError, SafetyError
from repro.objects import Universe, from_python
from tests.conftest import answers_set


class TestSection2Queries:
    """Section 2: "1) Did any stock ever close above $200? 2) For each
    day, list the stock with the highest closing price." — against every
    schema."""

    def test_highest_per_day_euter(self, engine):
        results = engine.query(
            "?.euter.r(.date=D, .stkCode=S, .clsPrice=P),"
            " .euter.r~(.date=D, .clsPrice>P)"
        )
        assert answers_set(results, "D", "S") == {
            ("3/3/85", "ibm"), ("3/4/85", "ibm"),
        }

    def test_highest_per_day_chwab(self, engine):
        results = engine.query(
            "?.chwab.r(.date=D, .S=P), S != date,"
            " .chwab.r~(.date=D, .S2>P, S2 != date)"
        )
        assert answers_set(results, "D", "S") == {
            ("3/3/85", "ibm"), ("3/4/85", "ibm"),
        }

    def test_highest_per_day_ource(self, engine):
        # Negation placement matters: ``~.ource.S2(...)`` is "no relation
        # has a higher close" (what we want), while ``.ource.S2~(...)``
        # would be "some relation has no higher close" (true for every
        # stock's own relation).
        results = engine.query(
            "?.ource.S(.date=D, .clsPrice=P),"
            " ~.ource.S2(.date=D, .clsPrice>P)"
        )
        assert answers_set(results, "D", "S") == {
            ("3/3/85", "ibm"), ("3/4/85", "ibm"),
        }

    def test_negation_scope_distinction(self, engine):
        """The ∃¬ reading: every stock trivially has *some* relation (its
        own) with no higher close that day."""
        results = engine.query(
            "?.ource.S(.date=3/3/85, .clsPrice=P),"
            " .ource.S2~(.date=3/3/85, .clsPrice>P)"
        )
        assert answers_set(results, "S") == {"hp", "ibm"}


class TestAggregateBindings:
    def test_bind_whole_relation(self, universe):
        query = parse_query("?.euter.r=R")
        [solution] = answers(query, universe)
        assert solution.lookup("R").is_set

    def test_bind_whole_database(self, universe):
        query = parse_query("?.ource=D")
        [solution] = answers(query, universe)
        assert solution.lookup("D").is_tuple

    def test_join_on_aggregate_equality(self):
        universe = Universe.from_python(
            {"a": {"r": [{"x": 1}], "s": [{"x": 1}], "t": [{"x": 2}]}}
        )
        # Which relations hold exactly the same set of tuples?
        query = parse_query("?.a.Y1=V, .a.Y2=V, Y1 != Y2")
        results = answers(query, universe)
        pairs = {
            frozenset((s.lookup("Y1").value, s.lookup("Y2").value))
            for s in results
        }
        assert pairs == {frozenset({"r", "s"})}


class TestNullsAndMismatches:
    def test_null_never_binds(self):
        universe = Universe.from_python({"d": {"r": [{"a": None, "b": 1}]}})
        assert not holds(parse_query("?.d.r(.a=X)"), universe)
        assert holds(parse_query("?.d.r(.b=X)"), universe)

    def test_category_mismatch_is_false(self, universe):
        # .euter is a tuple; comparing it atomically fails, not errors.
        assert not holds(parse_query("?.euter>5"), universe)
        assert not holds(parse_query("?.euter.r(.stkCode(.x=1))"), universe)

    def test_epsilon_matches_anything(self, universe):
        assert holds(parse_query("?.euter"), universe)
        assert holds(parse_query("?.euter.r"), universe)

    def test_attribute_absence(self, universe):
        assert not holds(parse_query("?.euter.zzz"), universe)
        assert not holds(parse_query("?.euter.r(.volume=V)"), universe)


class TestNestedObjects:
    def test_three_levels_of_nesting(self):
        universe = Universe.from_python(
            {"d": {"r": [{"name": "a", "history": [{"y": 1990, "v": 7}]}]}}
        )
        results = answers(
            parse_query("?.d.r(.name=N, .history(.y=Y, .v>5))"), universe
        )
        assert answers_set(
            [{"N": s.lookup("N").value, "Y": s.lookup("Y").value} for s in results],
            "N", "Y",
        ) == {("a", 1990)}

    def test_set_of_sets(self):
        universe = Universe.from_python({"d": {"r": [[{"x": 1}], [{"x": 2}]]}})
        results = answers(parse_query("?.d.r((.x=X))"), universe)
        assert {s.lookup("X").value for s in results} == {1, 2}

    def test_heterogeneous_set_matching(self):
        universe = Universe.from_python({"d": {"r": [1, {"x": 2}, "three"]}})
        assert holds(parse_query("?.d.r(=1)"), universe)
        assert holds(parse_query("?.d.r(.x=2)"), universe)
        assert holds(parse_query("?.d.r(=three)"), universe)


class TestContext:
    def test_reorder_off_rejects_unsafe_order(self, universe):
        context = EvalContext(reorder=False)
        query = parse_query("?.euter.r(.clsPrice>P), .euter.r(.clsPrice=P)")
        with pytest.raises(SafetyError):
            list(satisfy(query.expr, universe, None, context))

    def test_update_in_query_context_rejected(self, universe):
        with pytest.raises(EvaluationError):
            list(satisfy(parse_query("?.euter.r+(.x=1)").expr, universe))

    def test_prebound_parameters(self, universe):
        query = parse_query("?.euter.r(.stkCode=S, .clsPrice=P)")
        results = answers(query, universe, {"S": "ibm"})
        assert {s.lookup("P").value for s in results} == {160, 155}

    def test_python_scalars_accepted_as_bindings(self, universe):
        query = parse_query("?.euter.r(.clsPrice=P)")
        assert holds(query, universe, {"P": 160})
        assert not holds(query, universe, {"P": -1})


class TestSelfJoins:
    def test_pairs_of_stocks_same_day(self, universe):
        results = answers(
            parse_query(
                "?.euter.r(.date=D, .stkCode=S1, .clsPrice=P1),"
                " .euter.r(.date=D, .stkCode=S2, .clsPrice=P2),"
                " P1 > P2"
            ),
            universe,
        )
        pairs = {
            (s.lookup("S1").value, s.lookup("S2").value) for s in results
        }
        assert pairs == {("ibm", "hp")}

    def test_duplicate_attr_items_conjoin(self):
        universe = Universe.from_python({"d": {"r": [{"a": 5}, {"a": 11}]}})
        results = answers(parse_query("?.d.r(.a>4, .a<10, .a=X)"), universe)
        assert {s.lookup("X").value for s in results} == {5}
