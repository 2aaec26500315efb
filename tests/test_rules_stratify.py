"""Unit tests for rule analysis, pattern overlap, stratification and
make-true semantics."""

from __future__ import annotations

import pytest

from repro import IdlEngine
from repro.core.parser import parse_program, parse_rule
from repro.core.rules import (
    analyze_rule,
    body_references,
    make_true,
    patterns_overlap,
    resolve_target,
)
from repro.core.stratify import is_recursive_stratum, stratify
from repro.core.substitution import Substitution
from repro.core.terms import Const, Var
from repro.errors import SemanticError, StratificationError
from repro.objects import Atom, TupleObject, from_python, to_python
from repro.obs import InMemoryCollector, Observability
from tests.conftest import answers_set


def analyzed(source, merge_on=()):
    return analyze_rule(parse_rule(source), merge_on=merge_on)


class TestAnalyzeRule:
    def test_target_extraction(self):
        rule = analyzed(".dbI.p(.x=X) <- .euter.r(.stkCode=X)")
        assert rule.target == (Const("dbI"), Const("p"))
        assert not rule.is_higher_order

    def test_higher_order_target(self):
        rule = analyzed(".dbO.S(.x=X) <- .euter.r(.stkCode=S, .clsPrice=X)")
        assert rule.target == (Const("dbO"), Var("S"))
        assert rule.is_higher_order

    def test_deep_target(self):
        rule = analyzed(".a.b.c(.x=X) <- .euter.r(.stkCode=X)")
        assert rule.target == (Const("a"), Const("b"), Const("c"))

    def test_relation_only_head(self):
        rule = analyzed(".dbI.flag() <- .euter.r(.stkCode=hp)")
        assert rule.constructor is None

    def test_unsafe_body_rejected(self):
        with pytest.raises(SemanticError):
            analyzed(".dbI.p(.x=X) <- .euter.r(.stkCode=X, .clsPrice>Y)")

    def test_merge_on_must_be_in_head(self):
        with pytest.raises(SemanticError):
            analyzed(".dbI.p(.x=X) <- .euter.r(.stkCode=X)", merge_on=("zzz",))

    def test_merge_on_with_higher_order_constructor_allowed(self):
        rule = analyzed(
            ".dbC.r(.date=D, .S=P) <- .dbI.p(.date=D, .stk=S, .price=P)",
            merge_on=("date",),
        )
        assert rule.merge_on == ("date",)


class TestBodyReferences:
    def test_simple_positive(self):
        rule = parse_rule(".h.x(.a=A) <- .d.r(.a=A), .e.s(.b=A)")
        refs = body_references(rule.body)
        patterns = {(tuple(t.value for t in p), pos) for p, pos in refs}
        assert (("d", "r"), True) in patterns
        assert (("e", "s"), True) in patterns

    def test_negated_reference(self):
        rule = parse_rule(".h.x(.a=A) <- .d.r(.a=A), .d.s~(.a=A)")
        refs = body_references(rule.body)
        flags = {tuple(getattr(t, "value", None) for t in p): pos for p, pos in refs}
        assert flags[("d", "s")] is False

    def test_higher_order_reference(self):
        rule = parse_rule(".h.x(.a=Y) <- .X.Y(.a=A)")
        [(pattern, positive)] = body_references(rule.body)
        assert isinstance(pattern[0], Var) and isinstance(pattern[1], Var)


class TestPatternsOverlap:
    def test_constants(self):
        assert patterns_overlap((Const("a"), Const("b")), (Const("a"), Const("b")))
        assert not patterns_overlap((Const("a"), Const("b")), (Const("a"), Const("c")))

    def test_variables_match_anything(self):
        assert patterns_overlap((Var("X"), Const("b")), (Const("a"), Const("b")))
        assert patterns_overlap((Const("a"), Var("Y")), (Const("a"), Const("b")))

    def test_prefix_matches(self):
        assert patterns_overlap((Const("a"),), (Const("a"), Const("b")))
        assert patterns_overlap((Const("a"), Const("b")), (Const("a"),))


class TestStratify:
    def test_independent_rules_one_each(self):
        rules = [
            analyzed(".v.a(.x=X) <- .d.r(.x=X)"),
            analyzed(".v.b(.x=X) <- .d.s(.x=X)"),
        ]
        strata = stratify(rules)
        assert sum(len(s) for s in strata) == 2

    def test_dependency_ordering(self):
        first = analyzed(".v.b(.x=X) <- .v.a(.x=X)")
        second = analyzed(".v.a(.x=X) <- .d.r(.x=X)")
        strata = stratify([first, second])
        # a's rule must evaluate before b's rule.
        flat = [rule for stratum in strata for rule in stratum]
        assert flat.index(second) < flat.index(first)

    def test_recursive_scc_groups_together(self):
        rules = [
            analyzed(".v.even(.x=X) <- .d.zero(.x=X)"),
            analyzed(".v.even(.x=X) <- .v.odd(.y=X)"),
            analyzed(".v.odd(.y=X) <- .v.even(.x=X)"),
        ]
        strata = stratify(rules)
        recursive = [s for s in strata if is_recursive_stratum(s)]
        # The two v.even rules share their head, so the base rule joins
        # the cycle's SCC.
        assert len(strata) == 1 and len(recursive[0]) == 3

    def test_negative_cycle_rejected(self):
        rules = [
            analyzed(".v.a(.x=X) <- .d.r(.x=X), .v.b~(.x=X)"),
            analyzed(".v.b(.x=X) <- .v.a(.x=X)"),
        ]
        with pytest.raises(StratificationError):
            stratify(rules)

    def test_higher_order_negative_edge(self):
        # A negated higher-order reference depends on every head.
        rules = [
            analyzed(".v.a(.x=X) <- .d.r(.x=X), .X.Y~(.q=X)"),
            analyzed(".v.b(.x=X) <- .v.a(.x=X)"),
        ]
        # v.a negatively references .X.Y which overlaps v.b's target, and
        # v.b references v.a: a negative cycle.
        with pytest.raises(StratificationError):
            stratify(rules)


def scc_keys(rules):
    return [tuple(id(rule) for rule in stratum) for stratum in stratify(rules)]


#: Queries over every relation the paper's federation program defines or
#: reads, so each footprint selects a different dependency-closed subset.
FOOTPRINT_QUERIES = (
    "?.dbI.p(.date=D, .stk=S, .price=P)",
    "?.dbE.r(.date=D, .stkCode=S, .clsPrice=P)",
    "?.dbO.S(.date=D, .clsPrice=P)",
    "?.dbO.hp(.date=D, .clsPrice=P)",
    "?.dbC.r(.date=D)",
    "?.euter.r(.date=D, .stkCode=S)",
    "?.chwab.r(.date=D)",
)


class TestSubsetStratification:
    """A dependency-closed rule subset stratifies into the same SCC keys
    as the whole program — the invariant the engine's SCC-keyed overlay
    cache relies on to share work between pruned and full queries."""

    @pytest.mark.parametrize("source", FOOTPRINT_QUERIES)
    def test_footprint_subset_keeps_program_scc_keys(self, unified_engine,
                                                     source):
        program_keys = scc_keys(unified_engine.program.rules)
        statement = parse_program(source)[0]
        _, needed = unified_engine.effect_analysis().query_footprint(
            statement
        )
        subset_keys = scc_keys(needed)
        assert set(subset_keys) <= set(program_keys)
        assert sorted(rule_id for key in subset_keys for rule_id in key) \
            == sorted(id(rule) for rule in needed)

    def test_recursive_component_key_ignores_discovery_order(self):
        # The query reaches v.a's rules first and v.b's rule (listed
        # before them) only through them; the subset must still key the
        # v.a/v.b component exactly as the whole program does.
        engine = IdlEngine()
        engine.define(".v.b(.x=X) <- .v.a(.x=X)")
        engine.define(".v.a(.x=X) <- .d.r(.x=X)")
        engine.define(".v.a(.x=X) <- .v.b(.x=X)")
        statement = parse_program("?.v.a(.x=X)")[0]
        _, needed = engine.effect_analysis().query_footprint(statement)
        assert len(needed) == 3
        assert scc_keys(needed) == scc_keys(engine.program.rules)


class TestMakeTrue:
    def build(self, source, merge_on=()):
        return analyzed(source, merge_on=merge_on)

    def test_inserts_fact(self):
        rule = self.build(".v.p(.x=X) <- .d.r(.x=X)")
        overlay = TupleObject()
        subst = Substitution.of({"X": Atom(1)})
        assert make_true(rule, subst, overlay) is not None
        assert to_python(overlay) == {"v": {"p": [{"x": 1}]}}

    def test_duplicate_fact_reports_no_change(self):
        rule = self.build(".v.p(.x=X) <- .d.r(.x=X)")
        overlay = TupleObject()
        subst = Substitution.of({"X": Atom(1)})
        make_true(rule, subst, overlay)
        assert make_true(rule, subst, overlay) is None

    def test_higher_order_target_resolution(self):
        rule = self.build(".dbO.S(.x=X) <- .d.r(.s=S, .x=X)")
        overlay = TupleObject()
        make_true(rule, Substitution.of({"S": Atom("hp"), "X": Atom(1)}), overlay)
        make_true(rule, Substitution.of({"S": Atom("ibm"), "X": Atom(2)}), overlay)
        assert sorted(overlay.get("dbO").attr_names()) == ["hp", "ibm"]

    def test_unbound_target_variable_raises(self):
        rule = self.build(".dbO.S(.x=X) <- .d.r(.s=S, .x=X)")
        with pytest.raises(SemanticError):
            resolve_target(rule.target, Substitution.of({"X": Atom(1)}))

    def test_merge_on_extends_matching_element(self):
        rule = self.build(
            ".v.r(.date=D, .S=P) <- .d.q(.date=D, .s=S, .p=P)",
            merge_on=("date",),
        )
        overlay = TupleObject()
        make_true(
            rule,
            Substitution.of({"D": Atom("d1"), "S": Atom("hp"), "P": Atom(1)}),
            overlay,
        )
        make_true(
            rule,
            Substitution.of({"D": Atom("d1"), "S": Atom("ibm"), "P": Atom(2)}),
            overlay,
        )
        make_true(
            rule,
            Substitution.of({"D": Atom("d2"), "S": Atom("hp"), "P": Atom(3)}),
            overlay,
        )
        rows = to_python(overlay.get("v").get("r"))
        assert {"date": "d1", "hp": 1, "ibm": 2} in rows
        assert {"date": "d2", "hp": 3} in rows
        assert len(rows) == 2

    def test_merge_is_idempotent(self):
        rule = self.build(
            ".v.r(.date=D, .S=P) <- .d.q(.date=D, .s=S, .p=P)",
            merge_on=("date",),
        )
        overlay = TupleObject()
        subst = Substitution.of({"D": Atom("d1"), "S": Atom("hp"), "P": Atom(1)})
        assert make_true(rule, subst, overlay) is not None
        assert make_true(rule, subst, overlay) is None

    def test_merge_conflict_keeps_the_higher_value_in_any_order(self):
        rule = self.build(
            ".v.r(.date=D, .S=P) <- .d.q(.date=D, .s=S, .p=P)",
            merge_on=("date",),
        )
        for prices in ((1, 2), (2, 1)):
            overlay = TupleObject()
            for price in prices:
                make_true(rule, Substitution.of(
                    {"D": Atom("d1"), "S": Atom("hp"), "P": Atom(price)}
                ), overlay)
            assert to_python(overlay.get("v").get("r")) == [
                {"date": "d1", "hp": 2}]

    def test_relation_creation_counts_as_change(self):
        rule = self.build(".v.flag() <- .d.r(.x=X)")
        overlay = TupleObject()
        assert make_true(rule, Substitution.empty(), overlay) is not None
        assert make_true(rule, Substitution.empty(), overlay) is None
        assert len(overlay.get("v").get("flag")) == 0

    def test_path_collision_detected(self):
        rule = self.build(".v.p(.x=X) <- .d.r(.x=X)")
        overlay = from_python({"v": 5})  # v is an atom, not a tuple
        with pytest.raises(SemanticError):
            make_true(rule, Substitution.of({"X": Atom(1)}), overlay)


class TestOneOwnerPerHead:
    """Rules whose heads are equal up to variable names share a stratum,
    so each derived path has one owner; heads that only overlap keep
    strata of their own."""

    def stratum_of(self, strata, rule):
        [index] = [i for i, stratum in enumerate(strata) if rule in stratum]
        return index

    def test_equal_heads_share_a_stratum(self):
        rules = [
            analyzed(".v.p(.x=X) <- .d.r(.x=X)"),
            analyzed(".v.q(.x=X) <- .d.s(.x=X)"),
            analyzed(".v.p(.x=Y) <- .d.s(.x=Y)"),
            analyzed(".dbO.S(.x=X) <- .d.r(.s=S, .x=X)"),
            analyzed(".dbO.T(.y=X) <- .d.s(.t=T, .x=X)"),
        ]
        strata = stratify(rules)
        assert sorted(len(stratum) for stratum in strata) == [1, 2, 2]
        assert self.stratum_of(strata, rules[0]) \
            == self.stratum_of(strata, rules[2])
        assert self.stratum_of(strata, rules[3]) \
            == self.stratum_of(strata, rules[4])
        assert not any(is_recursive_stratum(stratum) for stratum in strata)

    def test_overlapping_unequal_heads_keep_their_strata(self):
        rules = [
            analyzed(".v.a(.x=X) <- .d.q(.x=X)"),
            analyzed(".v.S(.x=X) <- .d.r(.s=S, .x=X)"),
            analyzed(".W.a(.x=X) <- .d.r(.s=W, .x=X)"),
        ]
        assert [len(stratum) for stratum in stratify(rules)] == [1, 1, 1]

    def test_merge_view_over_one_owner_equals_rebuild(self):
        # A repair lists the fact it adds to ``u.p`` last; a rebuild
        # lists it among its own rule's facts. The merge view over
        # ``u.p`` must not tell the two orders apart.
        engine = IdlEngine()
        engine.add_database("a", {"r": [{"d": 1, "s": "hp", "p": 10}]})
        engine.add_database("b", {"r": [{"d": 1, "s": "hp", "p": 20}]})
        engine.define(".u.p(.d=D, .s=S, .p=P) <- .a.r(.d=D, .s=S, .p=P)")
        engine.define(".u.p(.d=D, .s=S, .p=P) <- .b.r(.d=D, .s=S, .p=P)")
        engine.define(".c.r(.d=D, .S=P) <- .u.p(.d=D, .s=S, .p=P)",
                      merge_on=("d",))
        query = "?.c.r(.d=D, .S=P), S != d"
        assert answers_set(engine.query(query), "S", "P") == {("hp", 20)}
        engine.update("?.a.r+(.d=1, .s=hp, .p=30)")
        repaired = answers_set(engine.query(query), "S", "P")
        engine.invalidate()
        assert repaired == answers_set(engine.query(query), "S", "P") \
            == {("hp", 30)}

    def test_pruned_subsets_keep_the_program_keys(self):
        engine = IdlEngine()
        engine.define(".v.p(.x=X) <- .d.r(.x=X)")
        engine.define(".w.q(.x=X) <- .v.p(.x=X)")
        engine.define(".v.p(.x=X) <- .d.s(.x=X)")
        engine.define(".g.tc(.a=X, .b=Y) <- .g.e(.a=X, .b=Y)")
        engine.define(".g.tc(.a=X, .b=Y) <- .g.tc(.a=X, .b=Z), "
                      ".g.e(.a=Z, .b=Y)")
        program_keys = scc_keys(engine.program.rules)
        assert sorted(len(key) for key in program_keys) == [1, 2, 2]
        for source, rules in (("?.v.p(.x=X)", 2), ("?.w.q(.x=X)", 3),
                              ("?.g.tc(.a=X, .b=Y)", 2)):
            statement = parse_program(source)[0]
            _, needed = engine.effect_analysis().query_footprint(statement)
            assert len(needed) == rules
            assert set(scc_keys(needed)) <= set(program_keys)


#: ``.v.a`` and the higher-order ``.v.S`` overlap without being equal,
#: and ``w.c`` negates ``.v.b``, which only ``.v.S`` can derive. Tying
#: overlapping heads together would put ``v.a``, ``w.c`` and ``v.S`` in
#: one negative cycle; tying equal heads only keeps three strata.
OVERLAP_PROGRAM = (
    ".v.a(.x=X) <- .w.c(.x=X)",
    ".w.c(.x=X) <- .d.q(.x=X), .v.b~(.x=X)",
    ".v.S(.x=X) <- .d.r(.s=S, .x=X)",
)

OVERLAP_QUERIES = {
    "?.v.a(.x=X)": ("X",),
    "?.w.c(.x=X)": ("X",),
    "?.v.S(.x=X)": ("S", "X"),
}


class TestOverlappingHeads:
    def build(self, obs=None):
        engine = IdlEngine(obs=obs)
        engine.add_database("d", {
            "q": [{"x": 1}, {"x": 2}, {"x": 3}],
            "r": [{"s": "b", "x": 1}, {"s": "a", "x": 5}],
        })
        for source in OVERLAP_PROGRAM:
            engine.define(source)
        return engine

    def answers(self, engine):
        return {query: answers_set(engine.query(query), *names)
                for query, names in OVERLAP_QUERIES.items()}

    def test_program_stratifies(self):
        strata = stratify([analyzed(source) for source in OVERLAP_PROGRAM])
        assert [len(stratum) for stratum in strata] == [1, 1, 1]

    def test_maintenance_falls_back_and_equals_rebuild(self):
        obs = Observability(enabled=True)
        collector = obs.add_exporter(InMemoryCollector())
        engine = self.build(obs)
        engine.materialized_view()
        assert answers_set(engine.query("?.v.a(.x=X)"), "X") == {2, 3, 5}
        for request in ("?.d.r+(.s=b, .x=2)", "?.d.r-(.s=b, .x=1)"):
            engine.update(request)
            span = collector.find("fixpoint.maintain")
            reasons = [attributes["reason"] for name, attributes
                       in span.events if name == "stratum-fallback"]
            assert "shared-head" in reasons
            repaired = self.answers(engine)
            engine.invalidate()
            assert repaired == self.answers(engine)
        assert answers_set(engine.query("?.v.a(.x=X)"), "X") == {1, 3, 5}

    def test_shared_head_keeps_a_fact_another_scc_holds(self):
        # ``v.a`` 2 derives from both heads; the ``.v.S`` side losing it
        # is no change of the union ``u.z`` reads.
        engine = IdlEngine()
        engine.add_database("d", {"q": [{"x": 2}],
                                  "r": [{"s": "a", "x": 2}]})
        engine.define(".v.a(.x=X) <- .d.q(.x=X)")
        engine.define(".v.S(.x=X) <- .d.r(.s=S, .x=X)")
        engine.define(".u.z(.x=X) <- .v.a(.x=X)")
        engine.materialized_view()
        engine.update("?.d.r-(.s=a, .x=2)")
        assert answers_set(engine.query("?.u.z(.x=X)"), "X") == {2}


class TestFederationStrata:
    def live_sccs(self, n_members):
        from repro.multidb import Federation, FederationConfig
        from repro.workloads.stocks import StockWorkload

        obs = Observability(enabled=True)
        collector = obs.add_exporter(InMemoryCollector())
        federation = Federation.from_config(FederationConfig(obs=obs))
        data = StockWorkload(n_stocks=3, n_days=2)
        for index in range(n_members):
            style = ("euter", "chwab", "ource")[index % 3]
            federation.add_member(f"m{index:02d}", style,
                                  data.relations_for(style))
        for user, style in (("dbE", "euter"), ("dbC", "chwab"),
                            ("dbO", "ource")):
            federation.add_user_view(user, style)
        federation.install()
        federation.engine.invalidate()
        federation.engine.materialized_view()
        return collector.find("fixpoint.materialize").attributes["strata"]

    def test_live_scc_count_does_not_grow_with_members(self):
        assert self.live_sccs(4) == self.live_sccs(16)
