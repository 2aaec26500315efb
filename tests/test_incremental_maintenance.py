"""Incremental view maintenance: delta capture, repair plans, DRed.

The tentpole guarantee is differential: after any schedule of updates,
an engine that repairs its materialization in place answers exactly
like one that rebuilds from scratch every step. The unit tests pin the
pieces — :class:`~repro.core.updates.UpdateDelta` folding,
:func:`~repro.core.fixpoint.maintenance_plan` fallback reasons, and
the maintenance counters/spans the repair emits.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import IdlEngine
from repro.core.fixpoint import maintenance_plan
from repro.core.parser import parse_rule
from repro.core.rules import analyze_rule
from repro.core.terms import Const
from repro.core.updates import UpdateDelta
from repro.obs import InMemoryCollector, Observability
from repro.objects import from_python
from tests.conftest import answers_set


def rules(*sources, merge_on=None):
    analyzed = []
    for index, source in enumerate(sources):
        keys = ()
        if merge_on and index in merge_on:
            keys = merge_on[index]
        analyzed.append(analyze_rule(parse_rule(source), merge_on=keys))
    return analyzed


def pattern(*names):
    return tuple(Const(name) for name in names)


def element(**attrs):
    return from_python(attrs)


class TestUpdateDelta:
    def test_insert_then_delete_cancels(self):
        delta = UpdateDelta()
        delta.record_insert(("a", "r"), element(x=1))
        delta.record_delete(("a", "r"), element(x=1))
        inserts, deletes, symbolic = delta.fold()
        assert inserts == {} and deletes == {} and symbolic == set()

    def test_delete_then_insert_cancels(self):
        delta = UpdateDelta()
        delta.record_delete(("a", "r"), element(x=1))
        delta.record_insert(("a", "r"), element(x=1))
        inserts, deletes, _ = delta.fold()
        assert inserts == {} and deletes == {}

    def test_distinct_values_both_survive(self):
        delta = UpdateDelta()
        delta.record_insert(("a", "r"), element(x=1))
        delta.record_delete(("a", "r"), element(x=2))
        inserts, deletes, _ = delta.fold()
        assert len(inserts[("a", "r")]) == 1
        assert len(deletes[("a", "r")]) == 1

    def test_symbolic_paths_are_reported(self):
        delta = UpdateDelta()
        delta.mark_symbolic(("a", "r", "x"))
        _, _, symbolic = delta.fold()
        assert symbolic == {("a", "r", "x")}

    def test_rollback_discards_suffix(self):
        delta = UpdateDelta()
        delta.record_insert(("a", "r"), element(x=1))
        mark = delta.mark()
        delta.record_delete(("a", "r"), element(x=1))
        delta.mark_symbolic(("a", "r"))
        delta.rollback(mark)
        inserts, deletes, symbolic = delta.fold()
        assert len(inserts[("a", "r")]) == 1
        assert deletes == {} and symbolic == set()

    def test_changed_flag(self):
        delta = UpdateDelta()
        assert not delta.changed
        delta.record_insert(("a", "r"), element(x=1))
        assert delta.changed


class TestDeltaCapture:
    """Updates on an engine with a live materialization carry a delta."""

    def build(self):
        engine = IdlEngine()
        engine.add_database("a", {"r": [{"x": 1}, {"x": 2}]})
        engine.define(".v.p(.x=X) <- .a.r(.x=X)")
        engine.materialized_view()
        return engine

    def test_insert_is_recorded(self):
        result = self.build().update("?.a.r+(.x=3)")
        inserts, deletes, symbolic = result.delta.fold()
        assert list(inserts) == [("a", "r")]
        assert deletes == {} and symbolic == set()

    def test_delete_is_recorded(self):
        result = self.build().update("?.a.r-(.x=1)")
        inserts, deletes, _ = result.delta.fold()
        assert inserts == {}
        assert list(deletes) == [("a", "r")]

    def test_no_match_folds_empty(self):
        result = self.build().update("?.a.r-(.x=999)")
        inserts, deletes, symbolic = result.delta.fold()
        assert inserts == {} and deletes == {} and symbolic == set()

    def test_inplace_mutation_rewrites_as_delete_insert(self):
        # Mutating a set element in place folds to one whole-element
        # delete+insert pair at the owning set's path — not symbolic.
        result = self.build().update("?.a.r(.x=1, .x-=C)")
        inserts, deletes, symbolic = result.delta.fold()
        assert list(inserts) == [("a", "r")]
        assert list(deletes) == [("a", "r")]
        assert symbolic == set()

    def test_metadata_update_is_symbolic(self):
        result = self.build().update("?.a-.r")
        _, _, symbolic = result.delta.fold()
        assert symbolic == {("a", "r")}  # unknown delta: fall back

    def test_no_capture_without_materialization(self):
        engine = IdlEngine()
        engine.add_database("a", {"r": [{"x": 1}]})
        engine.define(".v.p(.x=X) <- .a.r(.x=X)")
        # No materialized view yet: capture would be wasted work.
        result = engine.update("?.a.r+(.x=2)")
        assert result.delta is None

    def test_no_capture_when_disabled(self):
        engine = IdlEngine(maintain=False)
        engine.add_database("a", {"r": [{"x": 1}]})
        engine.define(".v.p(.x=X) <- .a.r(.x=X)")
        engine.materialized_view()
        assert engine.update("?.a.r+(.x=2)").delta is None


TC = (
    ".g.tc(.a=X, .b=Y) <- .g.edge(.a=X, .b=Y)",
    ".g.tc(.a=X, .b=Y) <- .g.tc(.a=X, .b=Z), .g.edge(.a=Z, .b=Y)",
)


class TestMaintenancePlan:
    def test_recursive_stratum_is_rewritable(self):
        variants, reason = maintenance_plan(rules(*TC), [pattern("g", "edge")])
        assert reason is None
        assert len(variants) == 2
        assert all(variants)  # both rules read changed paths

    def test_untouched_rule_gets_no_variants(self):
        stratum = rules(".v.p(.x=X) <- .a.r(.x=X)")
        variants, reason = maintenance_plan(stratum, [pattern("b", "s")])
        assert reason is None
        assert variants == [[]]  # nothing it reads changed: never fires

    def test_merge_rule_falls_back(self):
        stratum = rules(
            ".v.p(.k=K, .n=N) <- .a.r(.k=K, .n=N)", merge_on={0: ("k",)}
        )
        variants, reason = maintenance_plan(stratum, [pattern("a", "r")])
        assert variants is None and reason == "merge-rule"

    def test_negation_over_changed_falls_back(self):
        stratum = rules(".v.p(.x=X) <- .a.r(.x=X), .b.s~(.y=X)")
        variants, reason = maintenance_plan(stratum, [pattern("b", "s")])
        assert variants is None and reason == "negation"

    def test_negation_over_unchanged_is_fine(self):
        stratum = rules(".v.p(.x=X) <- .a.r(.x=X), .b.s~(.y=X)")
        variants, reason = maintenance_plan(stratum, [pattern("a", "r")])
        assert reason is None


class TestMaintenanceObservability:
    def build(self, obs):
        engine = IdlEngine(obs=obs)
        engine.add_database("g", {"edge": [{"a": 1, "b": 2}, {"a": 2, "b": 3}]})
        engine.define(TC[0])
        engine.define(TC[1])
        engine.materialized_view()
        return engine

    def test_counters_accumulate(self):
        obs = Observability(enabled=False)  # metrics stay on regardless
        engine = self.build(obs)
        engine.update("?.g.edge+(.a=3, .b=4)")
        assert obs.metrics.counter_value("fixpoint.maintain.runs") == 1
        assert obs.metrics.counter_value("fixpoint.maintain.seeded") == 1
        assert obs.metrics.counter_value("fixpoint.maintain.fallbacks") == 0
        engine.update("?.g.edge-(.a=1, .b=2)")
        assert obs.metrics.counter_value("fixpoint.maintain.runs") == 2
        assert obs.metrics.counter_value("fixpoint.maintain.overdeleted") > 0

    def test_maintain_span_shape(self):
        obs = Observability(enabled=True)
        collector = obs.add_exporter(InMemoryCollector())
        engine = self.build(obs)
        engine.update("?.g.edge+(.a=3, .b=4)")
        span = collector.find("fixpoint.maintain")
        assert span is not None
        assert span.attributes["repaired"] >= 1
        assert span.attributes["fallbacks"] == 0
        assert span.attributes["seeded"] == 1
        events = [name for name, _ in span.events if name == "stratum-repaired"]
        assert events

    def test_fallback_span_reason(self):
        obs = Observability(enabled=True)
        collector = obs.add_exporter(InMemoryCollector())
        engine = IdlEngine(obs=obs)
        engine.add_database("a", {"r": [{"x": 1}]})
        engine.add_database("b", {"s": [{"y": 1}]})
        engine.define(".v.p(.x=X) <- .a.r(.x=X), .b.s~(.y=X)")
        engine.materialized_view()
        engine.update("?.b.s+(.y=2)")
        span = collector.find("fixpoint.maintain")
        assert span is not None
        assert span.attributes["fallbacks"] == 1
        events = [attributes for name, attributes in span.events
                  if name == "stratum-fallback"]
        assert events and events[0]["reason"] == "negation"
        # The fallback dropped the materialization; the answer is right.
        assert answers_set(engine.query("?.v.p(.x=X)"), "X") == set()


# -- property: incremental repair == full rebuild ------------------------------


def build_tc_engine():
    engine = IdlEngine()
    engine.add_database("g", {"edge": [{"a": 0, "b": 1}]})
    engine.define(TC[0])
    engine.define(TC[1])
    return engine


edge_ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete"]),
        st.integers(0, 3),
        st.integers(0, 3),
    ),
    max_size=10,
)


@given(edge_ops)
@settings(max_examples=60, deadline=None)
def test_recursive_maintenance_equals_rebuild(sequence):
    incremental = build_tc_engine()
    reference = build_tc_engine()
    incremental.materialized_view()
    for op, a, b in sequence:
        sign = "+" if op == "insert" else "-"
        request = f"?.g.edge{sign}(.a={a}, .b={b})"
        incremental.update(request)
        incremental.materialized_view()
        reference.update(request)
        reference.invalidate()
    lhs = answers_set(incremental.query("?.g.tc(.a=X, .b=Y)"), "X", "Y")
    rhs = answers_set(reference.query("?.g.tc(.a=X, .b=Y)"), "X", "Y")
    assert lhs == rhs


mixed_ops = st.lists(
    st.one_of(
        st.tuples(st.just("insert_r"), st.integers(0, 4)),
        st.tuples(st.just("delete_r"), st.integers(0, 4)),
        st.tuples(st.just("insert_s"), st.integers(0, 4)),
        st.tuples(st.just("delete_s"), st.integers(0, 4)),
    ),
    max_size=12,
)


@given(mixed_ops)
@settings(max_examples=60, deadline=None)
def test_join_and_negation_maintenance_equals_rebuild(sequence):
    def build():
        engine = IdlEngine()
        engine.add_database("a", {"r": [{"x": 1}]})
        engine.add_database("b", {"s": [{"y": 1}]})
        engine.define(".vj.p(.x=X, .y=Y) <- .a.r(.x=X), .b.s(.y=Y)")
        engine.define(".vn.q(.x=X) <- .a.r(.x=X), .b.s~(.y=X)")
        return engine

    incremental = build()
    reference = build()
    incremental.materialized_view()
    for op, value in sequence:
        kind, relation = op.split("_")
        sign = "+" if kind == "insert" else "-"
        attr = "x" if relation == "r" else "y"
        db = "a" if relation == "r" else "b"
        request = f"?.{db}.{relation}{sign}(.{attr}={value})"
        incremental.update(request)
        incremental.materialized_view()
        reference.update(request)
        reference.invalidate()
    for source in ("?.vj.p(.x=X, .y=Y)", "?.vn.q(.x=X)"):
        lhs = {tuple(sorted(a.items())) for a in incremental.query(source)}
        rhs = {tuple(sorted(a.items())) for a in reference.query(source)}
        assert lhs == rhs
