"""Incremental view maintenance: delta capture, repair plans, counting
and DRed.

The tentpole guarantee is differential: after any schedule of updates,
an engine that repairs its materialization in place answers exactly
like one that rebuilds from scratch every step. The unit tests pin the
pieces — :class:`~repro.core.updates.UpdateDelta` folding,
:func:`~repro.core.fixpoint.maintenance_plan` fallback reasons, and
the maintenance counters/spans the repair emits.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
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

    def test_capture_without_materialization(self):
        engine = IdlEngine()
        engine.add_database("a", {"r": [{"x": 1}]})
        engine.define(".v.p(.x=X) <- .a.r(.x=X)")
        # No materialized view yet: the log is still kept, because it is
        # also the request's undo log.
        inserts, deletes, symbolic = engine.update("?.a.r+(.x=2)").delta.fold()
        assert list(inserts) == [("a", "r")]
        assert deletes == {} and symbolic == set()

    def test_capture_with_maintenance_off(self):
        engine = IdlEngine(maintain=False)
        engine.add_database("a", {"r": [{"x": 1}]})
        engine.define(".v.p(.x=X) <- .a.r(.x=X)")
        engine.materialized_view()
        inserts, _, _ = engine.update("?.a.r+(.x=2)").delta.fold()
        assert list(inserts) == [("a", "r")]
        # The dirty SCC was dropped, not repaired: the view rebuilds.
        assert engine.ask("?.v.p(.x=2)")


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
@settings(max_examples=60, deadline=None, derandomize=True)
# Delete an edge of the cycle 0 -> 1 -> 0: the closure facts (0, 0) and
# (0, 1) supported each other around the cycle, and both must go.
@example([("insert", 1, 0), ("delete", 0, 1)])
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
@settings(max_examples=60, deadline=None, derandomize=True)
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


# -- property: counting repair == full rebuild ---------------------------------

#: Non-recursive views repaired by counting: ``u.p`` has an existential
#: body variable (a fact derives once per ``k`` of its ``x``), two SCCs
#: derive into ``w.q``, which ``d.o`` reads, and ``v.j`` is a join. The
#: closure's base rule is a counted SCC deriving into ``g.tc`` beside
#: the recursive SCC (DRed), and ``g.loop`` counts over their union.
COUNTING_VIEWS = (
    ".u.p(.x=X) <- .a.r(.x=X, .k=K)",
    ".w.q(.v=K) <- .a.r(.k=K)",
    ".w.q(.v=Y) <- .b.s(.y=Y)",
    ".d.o(.v=V) <- .w.q(.v=V), V != 0",
    ".v.j(.x=X, .y=Y) <- .a.r(.x=X, .k=K), .b.s(.k=K, .y=Y)",
    TC[0],
    TC[1],
    ".g.loop(.a=X) <- .g.tc(.a=X, .b=X)",
)

COUNTING_QUERIES = {
    "?.u.p(.x=X)": ("X",),
    "?.w.q(.v=V)": ("V",),
    "?.d.o(.v=V)": ("V",),
    "?.v.j(.x=X, .y=Y)": ("X", "Y"),
    "?.g.tc(.a=X, .b=Y)": ("X", "Y"),
    "?.g.loop(.a=X)": ("X",),
}


def build_counting_engine(method):
    engine = IdlEngine(fixpoint_method=method)
    engine.add_database("a", {"r": [{"x": 0, "k": 0}, {"x": 0, "k": 1},
                                    {"x": 1, "k": 1}]})
    engine.add_database("b", {"s": [{"k": 1, "y": 2}, {"k": 0, "y": 1}]})
    engine.add_database("g", {"edge": [{"a": 0, "b": 1}, {"a": 1, "b": 2}]})
    for source in COUNTING_VIEWS:
        engine.define(source)
    return engine


small = st.integers(0, 2)

counting_ops = st.lists(
    st.one_of(
        st.tuples(st.just("?.a.r+(.x={}, .k={})"), small, small),
        st.tuples(st.just("?.a.r-(.x={}, .k={})"), small, small),
        st.tuples(st.just("?.b.s+(.k={}, .y={})"), small, small),
        st.tuples(st.just("?.b.s-(.k={}, .y={})"), small, small),
        st.tuples(st.just("?.g.edge+(.a={}, .b={})"), small, small),
        st.tuples(st.just("?.g.edge-(.a={}, .b={})"), small, small),
        # Every row deriving one ``w.q`` value, from either source.
        st.tuples(st.just("?.a.r-(.k={})"), small, small),
        st.tuples(st.just("?.b.s-(.y={})"), small, small),
        # In-place edits: replace or null one attribute of the rows that
        # match (two rows can collapse into one). ``str.format`` ignores
        # the unused second number of a one-placeholder template.
        st.tuples(st.just("?.a.r(.x={}, .k+={})"), small, small),
        st.tuples(st.just("?.b.s(.k={}, .y+={})"), small, small),
        st.tuples(st.just("?.a.r(.x={}, .k-=K)"), small, small),
        # One request changing both sides of the join.
        st.tuples(st.just("?.a.r+(.x={0}, .k={1}), .b.s+(.k={1}, .y={0})"),
                  small, small),
        st.tuples(st.just("?.a.r-(.x={0}, .k={1}), .b.s-(.k={1})"),
                  small, small),
    ),
    min_size=3,
    max_size=16,
)


@pytest.mark.parametrize("method", ["naive", "seminaive"])
@given(sequence=counting_ops)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_counting_maintenance_equals_rebuild(method, sequence):
    incremental = build_counting_engine(method)
    reference = build_counting_engine(method)
    incremental.materialized_view()
    for template, first, second in sequence:
        request = template.format(first, second)
        incremental.update(request)
        reference.update(request)
        reference.invalidate()
        for query, names in COUNTING_QUERIES.items():
            assert (answers_set(incremental.query(query), *names)
                    == answers_set(reference.query(query), *names)), request


class TestCountingMaintenance:
    """Non-recursive SCCs repair by counting derivations."""

    def build(self, obs=None):
        engine = IdlEngine(obs=obs)
        engine.add_database("a", {"r": [{"x": 1, "k": 1}, {"x": 1, "k": 2}]})
        engine.add_database("b", {"s": [{"k": 1, "y": 10}]})
        engine.define(".u.p(.x=X) <- .a.r(.x=X, .k=K)")
        engine.define(".v.j(.x=X, .y=Y) <- .a.r(.x=X, .k=K), "
                      ".b.s(.k=K, .y=Y)")
        engine.materialized_view()
        return engine

    def test_fact_with_two_derivations_survives_one_delete(self):
        engine = self.build()
        engine.update("?.a.r-(.x=1, .k=1)")
        assert answers_set(engine.query("?.u.p(.x=X)"), "X") == {1}
        engine.update("?.a.r-(.x=1, .k=2)")
        assert answers_set(engine.query("?.u.p(.x=X)"), "X") == set()

    def test_repairs_are_counting_events_with_no_dred(self):
        obs = Observability(enabled=True)
        collector = obs.add_exporter(InMemoryCollector())
        engine = self.build(obs)
        engine.update("?.a.r(.x=1, .k+=3)")  # an in-place edit
        span = collector.find("fixpoint.maintain")
        methods = [attributes["method"] for name, attributes in span.events
                   if name == "stratum-repaired"]
        assert methods == ["counting", "counting"]
        assert span.attributes["counting"] == 2
        assert span.attributes["dred"] == 0
        assert span.attributes["overdeleted"] == 0
        assert span.attributes["rederived"] == 0

    def test_recursive_scc_repairs_by_dred(self):
        obs = Observability(enabled=True)
        collector = obs.add_exporter(InMemoryCollector())
        engine = IdlEngine(obs=obs)
        engine.add_database("g", {"edge": [{"a": 1, "b": 2}]})
        engine.define(TC[0])
        engine.define(TC[1])
        engine.materialized_view()
        engine.update("?.g.edge+(.a=2, .b=3)")
        span = collector.find("fixpoint.maintain")
        methods = sorted(attributes["method"] for name, attributes
                         in span.events if name == "stratum-repaired")
        # The base and recursive rules share their head, so they are one
        # recursive SCC, repaired by DRed.
        assert methods == ["dred"]

    def test_repl_profile_counts_each_method(self):
        import io

        from repro.tools.repl import IdlRepl

        engine = IdlEngine(obs=Observability())
        engine.add_database("g", {"edge": [{"a": 1, "b": 2}]})
        engine.define(TC[0])
        engine.define(TC[1])
        # A counted view over the closure (the closure itself is DRed).
        engine.define(".g.src(.a=X) <- .g.tc(.a=X, .b=Y)")
        engine.materialized_view()
        console = IdlRepl(engine=engine, out=io.StringIO())
        console.run([":profile ?.g.edge+(.a=2, .b=3)"])
        assert "repaired=2/2" in console.out.getvalue()
        assert "counting=1 dred=1" in console.out.getvalue()

    def test_join_with_both_sides_changed_falls_back(self):
        stratum = rules(".v.j(.x=X, .y=Y) <- .a.r(.x=X, .k=K), "
                        ".b.s(.k=K, .y=Y)")
        variants, reason = maintenance_plan(
            stratum, [pattern("a", "r"), pattern("b", "s")])
        assert variants is None and reason == "multi-delta-join"
        obs = Observability(enabled=True)
        collector = obs.add_exporter(InMemoryCollector())
        engine = self.build(obs)
        engine.update("?.a.r+(.x=2, .k=5), .b.s+(.k=5, .y=50)")
        span = collector.find("fixpoint.maintain")
        reasons = [attributes["reason"] for name, attributes in span.events
                   if name == "stratum-fallback"]
        assert reasons == ["multi-delta-join"]
        assert answers_set(engine.query("?.v.j(.x=X, .y=Y)"), "X", "Y") == {
            (1, 10), (2, 50)}


class TestFederationCounting:
    """The paper's three-member federation: every SCC an update dirties
    is non-recursive, so repairs never over-delete or re-derive."""

    VIEWS = {
        "?.dbI.p(.date=D, .stk=S, .price=P)": ("D", "S", "P"),
        "?.dbE.r(.date=D, .stkCode=S, .clsPrice=P)": ("D", "S", "P"),
        "?.dbO.S(.date=D, .clsPrice=P)": ("S", "D", "P"),
        "?.dbC.r(.date=D, .S=P), S != date": ("D", "S", "P"),
    }

    def build(self):
        from repro.multidb import Federation, FederationConfig
        from repro.workloads.stocks import paper_universe

        self.obs = Observability(enabled=False)
        federation = Federation.from_config(FederationConfig(obs=self.obs))
        for member in ("euter", "chwab", "ource"):
            federation.add_member(
                member, member,
                paper_universe().get(member).to_python())
        for user, style in (("dbE", "euter"), ("dbC", "chwab"),
                            ("dbO", "ource")):
            federation.add_user_view(user, style)
        federation.install()
        return federation

    def answers(self, engine):
        return {query: answers_set(engine.query(query), *names)
                for query, names in self.VIEWS.items()}

    def dred_work(self):
        return (self.obs.metrics.counter_value("fixpoint.maintain.overdeleted"),
                self.obs.metrics.counter_value("fixpoint.maintain.rederived"))

    @pytest.mark.parametrize("step", [
        lambda fed: fed.call("insStk", stk="hp", date="3/5/85", price=70),
        lambda fed: fed.update("?.chwab.r(.date=3/3/85, .hp+=51)"),
        lambda fed: fed.call("delStk", stk="ibm", date="3/4/85"),
        lambda fed: fed.update("?.dbE.r-(.date=3/3/85, .stkCode=hp)"),
    ], ids=["insStk", "chwab-edit", "delStk", "dbE.r-"])
    def test_update_repairs_without_dred(self, step):
        federation = self.build()
        engine = federation.engine
        engine.materialized_view()
        counter = self.obs.metrics.counter_value
        runs = counter("fixpoint.maintain.runs")
        fallbacks = counter("fixpoint.maintain.fallbacks")
        result = step(federation)
        assert result.succeeded
        assert counter("fixpoint.maintain.runs") == runs + 1
        # Only dbC's merge rule is rebuilt; every other SCC is repaired.
        assert counter("fixpoint.maintain.fallbacks") == fallbacks + 1
        assert self.dred_work() == (0, 0)
        repaired = self.answers(engine)
        engine.invalidate()
        assert repaired == self.answers(engine)

    def test_quote_leaves_with_its_last_holder(self):
        federation = self.build()
        engine = federation.engine
        engine.materialized_view()
        unified = "?.dbI.p(.date=3/9/85, .stk=hp, .price=70)"
        per_stock = "?.dbO.hp(.date=3/9/85, .clsPrice=70)"
        federation.update("?.euter.r+(.date=3/9/85, .stkCode=hp, "
                          ".clsPrice=70)")
        # The second holder adds nothing to the union the views read.
        federation.update("?.ource.hp+(.date=3/9/85, .clsPrice=70)")
        assert engine.ask(unified) and engine.ask(per_stock)
        federation.update("?.euter.r-(.date=3/9/85, .stkCode=hp)")
        assert engine.ask(unified) and engine.ask(per_stock)
        federation.update("?.ource.hp-(.date=3/9/85)")
        assert not engine.ask(unified) and not engine.ask(per_stock)
        assert self.dred_work() == (0, 0)
        repaired = self.answers(engine)
        engine.invalidate()
        assert repaired == self.answers(engine)
