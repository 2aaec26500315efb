"""Indexed set access: pushdown applicability, invalidation, caches.

The selection-pushdown machinery (``SetObject.index_on`` +
``EvalContext.use_indexes``) must be invisible semantically: every test
here checks either that a probe was (or was not) used via the
``index.*`` counters, or that answers after an update path match a
freshly scanned evaluation.
"""

from __future__ import annotations

import gc
import io
import traceback

import pytest

from repro import IdlEngine
from repro.core import ast, safety
from repro.core.binding import body_executable
from repro.core.evaluator import EvalContext, answers, holds
from repro.core.parser import parse_query, parse_update_clause
from repro.errors import SafetyError
from repro.objects import Universe, from_python
from repro.objects.atom import Atom
from repro.objects.set import SetObject
from repro.objects.tuple import TupleObject
from repro.workloads.stocks import paper_universe
from tests.conftest import UNIFIED_VIEW_RULES, UPDATE_PROGRAMS
from tests.test_query_memo import canon, fresh, hammer

ROWS = [
    {"date": "3/3/85", "stkCode": "hp", "clsPrice": 50},
    {"date": "3/4/85", "stkCode": "hp", "clsPrice": 65},
    {"date": "3/3/85", "stkCode": "ibm", "clsPrice": 160},
    {"date": "3/4/85", "stkCode": "ibm", "clsPrice": 155},
]


def small_universe():
    return Universe.from_python({"euter": {"r": list(ROWS)}})


def profiled(query, universe, use_indexes=True):
    context = EvalContext(profile=True, use_indexes=use_indexes)
    results = answers(parse_query(query), universe, None, context)
    return results, context.counters


def signatures(results):
    """Order-free comparison key for evaluator or engine answers."""
    rendered = set()
    for answer in results:
        if hasattr(answer, "signature"):  # Substitution
            rendered.add(answer.signature())
        else:  # QueryAnswer: plain-Python bindings
            rendered.add(frozenset(answer.bindings.items()))
    return rendered


# -- the index itself ---------------------------------------------------------


class TestSetIndex:
    def test_buckets_by_value_key(self):
        relation = from_python(
            [
                {"k": 1, "id": "a"},
                {"k": 1.0, "id": "b"},
                {"k": True, "id": "c"},
                {"k": "x", "id": "d"},
            ]
        )
        index = relation.index_on("k")
        # 1 and 1.0 share a value key; True does not (bool is tagged).
        assert len(index.candidates(Atom(1).value_key())) == 2
        assert len(index.candidates(Atom(True).value_key())) == 1
        assert len(index.candidates(Atom("x").value_key())) == 1

    def test_residual_holds_unclassifiable_elements(self):
        relation = from_python(
            [{"k": 1}, {"j": 2}, "atom", [1, 2], {"k": [3]}]
        )
        index = relation.index_on("k")
        # Elements without an atomic .k can never satisfy `.k = atom`
        # themselves, but they are returned with every probe so the
        # caller's evaluation stays complete for other plan shapes.
        assert len(index.residual) == 4
        assert len(index.candidates(Atom(1).value_key())) == 5
        assert len(index.candidates(Atom(99).value_key())) == 4

    def test_index_reused_until_mutation(self):
        relation = from_python([{"k": 1}])
        first = relation.index_on("k")
        assert relation.index_on("k") is first
        assert relation.peek_index("k") is first
        relation.add(from_python({"k": 2}))
        assert relation.peek_index("k") is None
        assert relation.index_on("k") is not first

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda s: s.add(from_python({"k": 9})),
            lambda s: s.discard_value(from_python({"k": 1})),
            lambda s: s.remove_where(lambda o: True),
            lambda s: s.clear(),
        ],
    )
    def test_every_mutator_bumps_version(self, mutate):
        relation = from_python([{"k": 1}, {"k": 2}])
        before = relation.version
        mutate(relation)
        assert relation.version > before

    def test_noop_mutations_keep_version(self):
        relation = from_python([{"k": 1}])
        before = relation.version
        relation.add(from_python({"k": 1}))  # already present
        relation.discard_value(from_python({"k": 7}))  # absent
        relation.remove_where(lambda o: False)
        assert relation.version == before

    def test_reindex_detects_in_place_mutation(self):
        relation = from_python([{"k": 1, "v": "a"}, {"k": 2, "v": "b"}])
        relation.index_on("v")
        element = next(iter(relation))
        element.set("v", Atom("changed"))
        before = relation.version
        relation.reindex()
        assert relation.version > before
        assert relation.peek_index("v") is None

    def test_reindex_detects_value_swap(self):
        # Two elements exchange values: the key *set* is unchanged, but
        # every bucket now points at the wrong object — reindex must
        # still invalidate (it compares per-key object identity).
        first = TupleObject([("k", Atom(1))])
        second = TupleObject([("k", Atom(2))])
        relation = SetObject([first, second])
        relation.index_on("k")
        before = relation.version
        first.set("k", Atom(2))
        second.set("k", Atom(1))
        relation.reindex()
        assert relation.version > before

    def test_elements_returns_snapshot_iter_is_live(self):
        relation = from_python([{"k": 1}, {"k": 2}])
        snapshot = relation.elements()
        relation.add(from_python({"k": 3}))
        assert len(snapshot) == 2
        assert len(list(iter(relation))) == 3


# -- when pushdown applies ----------------------------------------------------


class TestPushdownApplies:
    def test_constant_selection_probes(self):
        results, counters = profiled(
            "?.euter.r(.date=3/3/85, .stkCode=S, .clsPrice=P)",
            small_universe(),
        )
        assert len(results) == 2
        assert counters.get("index.builds") == 1
        assert not counters.get("index.fallbacks")

    def test_second_probe_hits_cached_index(self):
        universe = small_universe()
        query = parse_query("?.euter.r(.date=3/3/85, .stkCode=hp, .clsPrice=P)")
        context = EvalContext(profile=True)
        answers(query, universe, None, context)
        answers(query, universe, None, context)
        assert context.counters.get("index.builds") == 1
        assert context.counters.get("index.hits") == 1

    def test_bound_variable_selection_probes(self):
        # S is bound by the first conjunct; the second probes with it.
        results, counters = profiled(
            "?.euter.r(.date=3/3/85, .stkCode=S, .clsPrice=P),"
            " .euter.r(.date=3/4/85, .stkCode=S, .clsPrice=Q)",
            small_universe(),
        )
        assert len(results) == 2
        assert counters.get("index.builds", 0) >= 1
        assert not counters.get("index.fallbacks")

    def test_bound_higher_order_attribute_probes(self):
        # A ranges over attribute names in the first conjunct; by the
        # time the second conjunct's set is probed, .A is a known name.
        universe = Universe.from_python(
            {
                "d": {
                    "names": [{"attr": "k"}],
                    "data": [{"k": 1}, {"k": 2}, {"j": 1}],
                }
            }
        )
        results, counters = profiled(
            "?.d.names(.attr=A), .d.data(.A=1)", universe
        )
        assert len(results) == 1
        assert counters.get("index.builds") == 1

    def test_probe_and_scan_agree(self):
        universe = small_universe()
        query = "?.euter.r(.date=3/3/85, .stkCode=S, .clsPrice=P)"
        on, _ = profiled(query, universe, use_indexes=True)
        off, counters = profiled(query, universe, use_indexes=False)
        assert signatures(on) == signatures(off)
        # With use_indexes off, no index counter moves at all.
        assert not any(k.startswith("index.") for k in counters)


# -- when pushdown must fall back ---------------------------------------------


class TestPushdownFallsBack:
    @pytest.mark.parametrize(
        "query",
        [
            "?.euter.r(.date=D, .stkCode=S, .clsPrice=P)",  # all unbound
            "?.euter.r(.clsPrice>100, .stkCode=S)",  # no = conjunct first...
            "?.euter.r~(.date=3/3/85)",  # negated set expression
            "?.euter.r(.date~=3/9/99, .stkCode=S)",  # negated comparison
        ],
    )
    def test_unusable_selections_scan(self, query):
        on, counters = profiled(query, small_universe(), use_indexes=True)
        off, _ = profiled(query, small_universe(), use_indexes=False)
        assert signatures(on) == signatures(off)

    def test_all_unbound_counts_fallback(self):
        _, counters = profiled(
            "?.euter.r(.date=D, .stkCode=S, .clsPrice=P)", small_universe()
        )
        assert counters.get("index.fallbacks") == 1
        assert not counters.get("index.builds")

    def test_unbound_higher_order_attribute_falls_back(self):
        universe = Universe.from_python(
            {"chwab": {"r": [{"date": "3/3/85", "hp": 50, "ibm": 160}]}}
        )
        results, counters = profiled("?.chwab.r(.date=D, .S=P)", universe)
        assert counters.get("index.fallbacks") == 1
        assert len(results) == 3  # S also ranges over "date"

    def test_non_atomic_comparison_falls_back(self):
        # .k(...) descends into a nested set — no atomic = selection.
        universe = Universe.from_python(
            {"d": {"r": [{"k": [{"a": 1}]}, {"k": [{"a": 2}]}]}}
        )
        results, counters = profiled("?.d.r(.k(.a=1))", universe)
        assert len(results) == 1
        # The outer relation probe has no plan; the nested descent may
        # itself count, so only the outer fallback is asserted.
        assert counters.get("index.fallbacks", 0) >= 1

    def test_merged_set_falls_back(self):
        # A base relation shadowed by a view rule of the same name
        # evaluates through a MergedSet overlay — not a SetObject, so
        # the probe declines and the scan answers.
        engine = IdlEngine(universe=small_universe())
        engine.define(
            ".euter.r(.date=D, .stkCode=S, .clsPrice=P) <-"
            " .euter.r(.date=D, .stkCode=S, .clsPrice=P)"
        )
        results = engine.query("?.euter.r(.date=3/3/85, .stkCode=hp, .clsPrice=P)")
        assert len(results) == 1


# -- no stale answers across update paths -------------------------------------


class TestInvalidation:
    QUERY = "?.euter.r(.date=3/3/85, .stkCode=S, .clsPrice=P)"

    def check_fresh(self, engine):
        indexed = engine.query(self.QUERY)
        scan = IdlEngine(universe=engine.universe, use_indexes=False)
        assert signatures(indexed) == signatures(scan.query(self.QUERY))
        return indexed

    def test_insert_after_probe(self):
        engine = IdlEngine(universe=small_universe())
        assert len(self.check_fresh(engine)) == 2
        engine.update("?.euter.r+(.date=3/3/85, .stkCode=sun, .clsPrice=30)")
        assert len(self.check_fresh(engine)) == 3

    def test_delete_after_probe(self):
        engine = IdlEngine(universe=small_universe())
        self.check_fresh(engine)
        engine.update("?.euter.r-(.date=3/3/85, .stkCode=hp)")
        assert len(self.check_fresh(engine)) == 1

    def test_in_place_modify_after_probe(self):
        engine = IdlEngine(universe=small_universe())
        query = "?.euter.r(.clsPrice=50, .stkCode=S)"
        assert len(engine.query(query)) == 1  # builds the clsPrice index
        # .clsPrice-=C nulls the value *in place* (the element object is
        # mutated, not replaced); the engine's post-update reindex must
        # invalidate the clsPrice index built above.
        engine.update("?.euter.r(.stkCode=hp, .date=3/3/85, .clsPrice-=C)")
        assert engine.query(query) == []
        scan = IdlEngine(universe=engine.universe, use_indexes=False)
        assert scan.query(query) == []

    def test_no_op_update_leaves_consistent_state(self):
        engine = IdlEngine(universe=small_universe())
        self.check_fresh(engine)
        result = engine.update("?.euter.r-(.date=9/9/99, .stkCode=nope)")
        assert result.deleted == 0
        assert len(self.check_fresh(engine)) == 2

    def test_view_materialization_is_indexable(self):
        # Derived relations are plain SetObjects: probes apply to them.
        engine = IdlEngine(universe=small_universe(), obs=None)
        engine.define(
            ".dbI.p(.date=D, .stk=S, .price=P) <-"
            " .euter.r(.date=D, .stkCode=S, .clsPrice=P)"
        )
        context = EvalContext(profile=True)
        results = answers(
            parse_query("?.dbI.p(.date=3/3/85, .stk=S, .price=P)"),
            engine.materialized_view(),
            None,
            context,
        )
        assert len(results) == 2
        assert context.counters.get("index.builds", 0) >= 1

    def test_recursive_program_stays_correct(self):
        engine = IdlEngine()
        engine.add_database(
            "g", {"edge": [{"a": i, "b": i + 1} for i in range(6)]}
        )
        engine.define(".g.tc(.a=X, .b=Y) <- .g.edge(.a=X, .b=Y)")
        engine.define(
            ".g.tc(.a=X, .b=Y) <- .g.tc(.a=X, .b=Z), .g.edge(.a=Z, .b=Y)"
        )
        indexed = engine.query("?.g.tc(.a=0, .b=B)")
        scan = IdlEngine(universe=engine.universe, use_indexes=False)
        scan.define(".g.tc(.a=X, .b=Y) <- .g.edge(.a=X, .b=Y)")
        scan.define(
            ".g.tc(.a=X, .b=Y) <- .g.tc(.a=X, .b=Z), .g.edge(.a=Z, .b=Y)"
        )
        assert signatures(indexed) == signatures(scan.query("?.g.tc(.a=0, .b=B)"))
        assert len(indexed) == 6


# -- node memos ---------------------------------------------------------------


def counting_orders(monkeypatch):
    """Record every goal order derived (each ``order_conjuncts`` call)."""
    calls = []
    real = safety.order_conjuncts

    def counting(conjuncts, bound):
        calls.append(tuple(conjuncts))
        return real(conjuncts, bound)

    monkeypatch.setattr(safety, "order_conjuncts", counting)
    return calls


class TestNodeMemos:
    def test_repeated_statement_derives_no_goal_order(self, monkeypatch):
        calls = counting_orders(monkeypatch)
        query = fresh(
            "?.euter.r(.date=3/3/85, .stkCode=S), .euter.r(.stkCode=S, .clsPrice=P)"
        )
        universe = small_universe()
        first = answers(query, universe, None, EvalContext())
        assert calls
        calls.clear()
        assert answers(query, universe, None, EvalContext()) == first
        assert calls == []

    def test_repeated_call_derives_no_goal_order(self, monkeypatch):
        calls = counting_orders(monkeypatch)
        engine = IdlEngine(universe=paper_universe())
        engine.universe.add_database("dbU")
        engine.define(UNIFIED_VIEW_RULES)
        engine.define_update(UPDATE_PROGRAMS)
        engine.materialized_view()
        engine.call("dbU", "insStk", stk="sun", date="3/5/85", price=30)
        assert calls
        calls.clear()
        engine.call("dbU", "insStk", stk="sun", date="3/5/85", price=30)
        assert calls == []

    def test_failed_order_is_memoized_and_raised_fresh(self, monkeypatch):
        calls = counting_orders(monkeypatch)
        body = parse_update_clause(
            ".dbU.insStk(.stk=S, .date=D, .price=P) -> "
            ".euter.r+(.date=D, .stkCode=S, .clsPrice=P)"
        ).body
        assert [body_executable(body, {"S", "D"}) for _ in range(3)] == [False] * 3
        raised = []
        for _ in range(3):
            with pytest.raises(SafetyError) as failure:
                safety.goal_order(body, {"S", "D"})
            raised.append((str(failure.value),
                           len(traceback.extract_tb(failure.value.__traceback__))))
        assert len(set(raised)) == 1
        assert "not ground" in raised[0][0]
        assert len(calls) == 1

    def test_context_references_no_ast_node(self):
        context = EvalContext(profile=True)
        universe = small_universe()
        for day in range(5):
            query = parse_query(f"?.euter.r(.date=3/{day}/85, .stkCode=S)")
            answers(query, universe, None, context)
        assert context.counters["visits"] > 0
        pending, reached = gc.get_referents(context), []
        while pending:  # everything the context holds, through containers
            obj = pending.pop()
            reached.append(obj)
            if isinstance(obj, (dict, tuple, list, set, frozenset)):
                pending.extend(gc.get_referents(obj))
        assert not any(isinstance(obj, (ast.Expr, ast.Statement))
                       for obj in reached)


@pytest.mark.concurrency
def test_threads_sharing_one_engine_past_the_memo_bounds():
    """Four threads query one engine with ~3000 distinct texts, well
    past every memo's bound, interleaved with repeats of a few hot
    texts. No thread may raise, and every answer must equal a serial
    run's."""
    engine = IdlEngine(universe=paper_universe())
    texts = [f"?.euter.r(.stkCode=S, .clsPrice=P), P > {n}" for n in range(3000)]
    answered = {}

    def work(offset, i):
        if i % 2:
            text = texts[i % 16]
        else:
            text = texts[offset + 2 * i]
        answered.setdefault(text, []).append(canon(engine.query(text)))

    assert hammer(4, len(texts) // 4 * 2, work) == []
    assert len(answered) == len(texts)
    serial = IdlEngine(universe=paper_universe())
    for text in texts:
        expected = canon(serial.query(text))
        assert all(seen == expected for seen in answered[text]), text


# -- observability ------------------------------------------------------------


class TestObservability:
    def test_metrics_counters_move(self):
        from repro.obs import Observability

        engine = IdlEngine(universe=small_universe(), obs=Observability())
        engine.query("?.euter.r(.date=3/3/85, .stkCode=S, .clsPrice=P)")
        engine.query("?.euter.r(.date=D, .stkCode=S, .clsPrice=P)")
        metrics = engine.obs.metrics
        assert metrics.counter_value("evaluator.index.builds") >= 1
        assert metrics.counter_value("evaluator.index.fallbacks") >= 1

    def test_profile_index_stats(self):
        from repro.obs import InMemoryCollector, Observability, QueryProfile

        obs = Observability()
        collector = InMemoryCollector()
        obs.add_exporter(collector)
        engine = IdlEngine(universe=small_universe(), obs=obs)
        engine.query("?.euter.r(.date=3/3/85, .stkCode=S, .clsPrice=P)")
        stats = QueryProfile(collector.last).index_stats
        assert stats["builds"] == 1
        assert stats["fallbacks"] == 0

    def test_repl_profile_shows_index_line(self):
        from repro.tools.repl import IdlRepl

        out = io.StringIO()
        repl = IdlRepl(out=out)
        repl.engine.add_database("euter", {"r": list(ROWS)})
        repl.handle(":profile ?.euter.r(.date=3/3/85, .stkCode=S, .clsPrice=P)")
        text = out.getvalue()
        assert "index: builds=1" in text

    def test_repl_metrics_shows_index_counters(self):
        from repro.tools.repl import IdlRepl

        out = io.StringIO()
        repl = IdlRepl(out=out)
        repl.engine.add_database("euter", {"r": list(ROWS)})
        repl.handle("?.euter.r(.date=3/3/85, .stkCode=S, .clsPrice=P)")
        repl.handle(":metrics")
        assert "evaluator.index." in out.getvalue()

    def test_engine_flag_disables_probing(self):
        from repro.obs import Observability

        engine = IdlEngine(
            universe=small_universe(), obs=Observability(), use_indexes=False
        )
        engine.query("?.euter.r(.date=3/3/85, .stkCode=S, .clsPrice=P)")
        metrics = engine.obs.metrics
        assert metrics.counter_value("evaluator.index.builds") == 0
        assert metrics.counter_value("evaluator.index.fallbacks") == 0
