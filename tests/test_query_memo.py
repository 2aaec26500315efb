"""The query path's memos: each query text is parsed once and each
parsed statement's footprint analysed once per program version, and
program calls bind their arguments instead of rendering them into text.

A memoized statement must answer exactly like a fresh parse of the same
text — after the program grows, after updates, with pruning on and
off — and neither memo may grow past its bound.
"""

from __future__ import annotations

import json
import sys
import threading
from collections import OrderedDict

import pytest

from repro import IdlEngine
from repro.analysis import effects
from repro.core import lexer, parser
from repro.core.parser import QUERY_MEMO_LIMIT
from repro.errors import ParseError, SemanticError
from repro.multidb import (
    AccessPolicy,
    AuthorizedSession,
    Federation,
    InMemoryConnector,
)
from repro.multidb.adapters import universe_rows
from repro.multidb.changes import MemberChange
from repro.multidb.resilience import FakeClock
from repro.objects.encode import to_python
from repro.workloads.stocks import StockWorkload, paper_universe
from tests.conftest import (
    CUSTOMIZED_VIEW_RULES,
    DBC_VIEW_RULE,
    UNIFIED_VIEW_RULES,
    UPDATE_PROGRAMS,
    VIEW_UPDATE_PROGRAMS,
)


@pytest.fixture(autouse=True)
def empty_memo(monkeypatch):
    """Each test starts from an empty query memo."""
    monkeypatch.setattr(parser, "_query_memo", OrderedDict())


@pytest.fixture
def tokenized(monkeypatch):
    """Count the sources :func:`repro.core.lexer.tokenize` lexes."""
    seen = []
    real = lexer.tokenize

    def counting(source):
        seen.append(source)
        return real(source)

    monkeypatch.setattr(lexer, "tokenize", counting)
    return seen


def unified_engine(prune):
    engine = IdlEngine(universe=paper_universe(), prune=prune)
    engine.universe.add_database("dbU")
    engine.define(UNIFIED_VIEW_RULES)
    engine.define(CUSTOMIZED_VIEW_RULES)
    engine.define(DBC_VIEW_RULE, merge_on=("date",))
    engine.define_update(UPDATE_PROGRAMS)
    engine.define_update(VIEW_UPDATE_PROGRAMS)
    return engine


def fresh(source):
    """A parse of ``source`` that bypasses the memo."""
    (statement,) = parser._parse_statements(source)
    return statement


def canon(answers):
    return sorted(json.dumps(answer.bindings, sort_keys=True)
                  for answer in answers)


class TestParseMemo:
    def test_repeated_text_tokenizes_once(self, tokenized):
        engine = unified_engine(prune=True)
        text = "?.dbI.p(.stk=S, .price=P), P > 1.5 + 0"
        first = engine.query(text)
        for _ in range(4):
            assert engine.query(text) == first
        assert tokenized.count(text) == 1

    def test_each_call_returns_a_new_list_of_the_shared_statement(self):
        text = "?.euter.r(.stkCode=S), S != memo_shared"
        first, second = parser.parse_program(text), parser.parse_program(text)
        assert first is not second
        assert first[0] is second[0]

    def test_bad_text_raises_the_same_position_every_time(self, tokenized):
        text = "?.euter.r(.date=D,, .stkCode=S)"
        positions = []
        for _ in range(3):
            with pytest.raises(ParseError) as raised:
                parser.parse_program(text)
            positions.append((raised.value.line, raised.value.column,
                              str(raised.value)))
        assert len(set(positions)) == 1
        assert positions[0][:2] == (1, 19)
        assert tokenized.count(text) == 3
        assert text not in parser._query_memo

    def test_same_rule_text_defined_twice_gives_two_rules(self):
        engine = IdlEngine(universe=paper_universe())
        text = ".v.r(.s=S) <- .euter.r(.stkCode=S)"
        first = engine.define(text)
        second = engine.define(text)
        assert first is not second
        assert first.rule is not second.rule
        assert len(engine.program.rules) == 2
        assert text not in parser._query_memo

    def test_memo_stays_within_its_bound(self, monkeypatch, tokenized):
        assert parser.QUERY_MEMO_LIMIT == QUERY_MEMO_LIMIT == 1024
        monkeypatch.setattr(parser, "QUERY_MEMO_LIMIT", 4)
        engine = unified_engine(prune=False)
        texts = [f"?.euter.r(.stkCode=S, .clsPrice=P), P > {n}"
                 for n in range(10)]
        for text in texts:
            engine.query(text)
            assert len(parser._query_memo) <= 4
        assert list(parser._query_memo)[-1] == texts[-1]
        engine.query(texts[0])  # evicted: lexed again
        assert tokenized.count(texts[0]) == 2


class TestFootprintMemo:
    def test_footprint_is_analysed_once_per_statement(self):
        engine = unified_engine(prune=True)
        analysis = engine.effect_analysis()
        statement = engine._one_query("?.dbE.r(.stkCode=S)")
        assert (analysis.query_footprint(statement)
                is analysis.query_footprint(statement))
        assert analysis.query_footprint(fresh("?.dbE.r(.stkCode=S)")) == \
            analysis.query_footprint(statement)

    def test_memo_stays_within_its_bound(self, monkeypatch):
        assert effects.FOOTPRINT_MEMO_LIMIT == QUERY_MEMO_LIMIT
        monkeypatch.setattr(effects, "FOOTPRINT_MEMO_LIMIT", 3)
        engine = unified_engine(prune=True)
        for n in range(8):
            engine.query(f"?.dbI.p(.stk=S, .price=P), P > {n}")
            assert len(engine.effect_analysis()._footprints) <= 3

    @pytest.mark.parametrize("prune", [True, False])
    def test_cached_text_sees_a_rule_defined_after_it(self, prune):
        """A footprint memoized before ``define`` would leave the new
        rule out of the pruned rule set (``.w.t`` never materialized)."""
        engine = IdlEngine(universe=paper_universe(), prune=prune)
        engine.define(".v.r(.s=S) <- .w.t(.s=S)")
        text = "?.v.r(.s=S)"
        assert engine.query(text) == []
        engine.define(".w.t(.s=S) <- .euter.r(.stkCode=S)")
        cached = engine.query(text)
        assert canon(cached) == canon(engine.query(fresh(text)))
        assert {answer["S"] for answer in cached} == {"hp", "ibm"}
        if prune:
            assert engine.last_prune.rules_used == 2

    @pytest.mark.parametrize("prune", [True, False])
    def test_cached_text_answers_like_a_fresh_parse_across_updates(
            self, prune):
        engine = unified_engine(prune=prune)
        texts = ["?.dbI.p(.stk=S, .date=D, .price=P)",
                 "?.dbO.S(.date=D, .clsPrice=P), P > 60",
                 "?.dbC.r(.date=D, .hp=P)",
                 "?.euter.r(.stkCode=S)"]
        updates = [
            "?.dbU.insStk(.stk=sun, .date=3/5/85, .price=30)",
            "?.euter.r+(.date=3/6/85, .stkCode=hp, .clsPrice=71)",
            "?.dbU.delStk(.stk=hp, .date=3/3/85)",
            "?.dbU.rmStk(.stk=ibm)",
        ]
        for update in [None] + updates:
            if update is not None:
                engine.update(update)
            for text in texts:
                assert canon(engine.query(text)) == \
                    canon(engine.query(fresh(text)))
                assert engine.ask(text) == engine.ask(fresh(text))


class TestBoundCalls:
    def test_call_texts_are_constant_per_argument_names(self, tokenized):
        engine = unified_engine(prune=True)
        for day, price in (("3/5/85", 30), ("3/6/85", 31), ("3/7/85", 32.5)):
            engine.call("dbU", "insStk", stk="sun", date=day, price=price)
        calls = [text for text in tokenized if text.startswith("?")]
        assert calls == ["?.dbU.insStk(.stk=A0, .date=A1, .price=A2)"]
        assert engine.ask("?.dbI.p(.stk=sun, .date=3/7/85, .price=32.5)")

    @pytest.mark.parametrize("value", [True, None, 1j, ["hp"]])
    def test_values_idl_has_no_literal_for_are_refused(self, value):
        engine = unified_engine(prune=False)
        with pytest.raises(SemanticError):
            engine.call("dbU", "rmStk", stk=value)
        assert engine.ask("?.euter.r(.stkCode=hp)")

    def test_bound_call_matches_the_literal_request(self):
        def run(bound):
            engine = unified_engine(prune=True)
            engine.query("?.dbI.p(.stk=S)")  # live views to maintain
            if bound:
                result = engine.call("dbU", "insStk", stk="sun",
                                     date="3/5/85", price=30.5)
            else:
                result = engine.update(
                    "?.dbU.insStk(.stk='sun', .date='3/5/85', .price=30.5)")
            inserts, deletes, symbolic = result.delta.fold()
            log = {
                "counts": (result.inserted, result.deleted, result.modified),
                "inserts": {path: sorted(map(repr, map(to_python,
                                                       elements.values())))
                            for path, elements in inserts.items()},
                "deletes": {path: sorted(map(repr, map(to_python,
                                                       elements.values())))
                            for path, elements in deletes.items()},
                "symbolic": symbolic,
            }
            state = {db: universe_rows(engine.universe, db)
                     for db in ("euter", "chwab", "ource")}
            return log, state, canon(engine.query("?.dbI.p(.stk=S, .P=Q)"))

        assert run(bound=True) == run(bound=False)

    def test_federation_call_matches_the_literal_request(self):
        def run(bound):
            workload = StockWorkload(n_stocks=3, n_days=3, seed=13)
            federation = Federation()
            connectors = {}
            for style in ("euter", "chwab", "ource"):
                connectors[style] = InMemoryConnector(
                    workload.relations_for(style))
                federation.add_member(style, style,
                                      connector=connectors[style],
                                      clock=FakeClock())
            federation.install()
            if bound:
                federation.call("insStk", stk="nova", date="9/9/99",
                                price=7.25)
                federation.call("delStk", stk=workload.symbols[0],
                                date=workload.days[0])
            else:
                federation.update(
                    "?.dbU.insStk(.stk='nova', .date='9/9/99', .price=7.25)")
                federation.update(
                    f"?.dbU.delStk(.stk='{workload.symbols[0]}', "
                    f".date='{workload.days[0]}')")
            intents = [record["members"]
                       for record in federation.journal.records()
                       if record["type"] == "intent"]
            states = {name: connector.scan()
                      for name, connector in connectors.items()}
            return intents, states

        bound, literal = run(bound=True), run(bound=False)
        assert bound == literal
        assert len(bound[0]) == 2

    def test_session_call_stores_quotes_and_backslashes_unchanged(self):
        engine = IdlEngine(universe=paper_universe())
        engine.universe.add_database("dbU")
        engine.define_update(
            ".dbU.note(.s=S, .d=D) -> "
            ".euter.r+(.date=D, .stkCode=S, .clsPrice=1)")
        policy = AccessPolicy()
        policy.grant("admin", "*", actions=("read", "write"))
        session = AuthorizedSession(engine, "admin", policy)
        awkward = "o'brien\\co"
        result = session.call("dbU", "note", s=awkward, d="9/9/99")
        assert result.succeeded
        rows = session.query("?.euter.r(.date=D, .stkCode=S)", D="9/9/99")
        assert rows == [{"D": "9/9/99", "S": awkward}]
        assert type(rows[0]) is dict


class TestFederationQueryPath:
    def test_member_split_follows_the_attached_set(self):
        workload = StockWorkload(n_stocks=3, n_days=2, seed=7)
        federation = Federation()
        for style in ("euter", "chwab", "ource"):
            federation.add_member(style, style, workload.relations_for(style))
        federation.install()
        text = (f"?.euter.r(.stkCode={workload.symbols[0]}, "
                ".date=D, .clsPrice=P)")

        def split(result):
            attrs = dict(result.trace.events)["member-pruning"]
            counters = result.metrics["counters"]
            return (attrs["skipped"], attrs["scanned"],
                    counters.get("analysis.prune.skipped"),
                    counters.get("analysis.prune.scanned"))

        first = federation.query(text)
        assert split(first) == (["chwab", "ource"], ["euter"], 2, 1)
        assert first.availability.complete
        again = federation.query(text)
        assert split(again) == split(first)
        assert list(again) == list(first)
        federation._quarantine("ource", "down")
        partial = federation.query(text, on_unavailable="partial")
        assert split(partial) == (["chwab"], ["euter"], 1, 1)
        assert partial.availability.unavailable == {"ource"}
        assert list(partial) == list(first)


class TestConnectorApplyCopies:
    def test_mutating_a_change_after_apply_leaves_the_rows(self):
        connector = InMemoryConnector({"r": [{"k": 1}]})
        row = {"k": 2}
        change = MemberChange(insert={"r": [row]}, delete={"r": [{"k": 1}]})
        connector.apply(change)
        row["k"] = 99
        change["insert"]["r"].append({"k": 3})
        change["full"] = True
        change["replace"] = {}
        assert connector.scan() == {"r": [{"k": 2}]}
        connector.apply({"r": [{"k": 5}]})  # a plain full state
        assert connector.scan() == {"r": [{"k": 5}]}


def hammer(n_threads, calls, work):
    """Run ``work(offset, i)`` for ``i`` in ``range(calls)`` on each of
    ``n_threads`` threads started together, switching threads as often
    as the interpreter allows; returns the exceptions they raised."""
    barrier = threading.Barrier(n_threads)
    errors = []

    def worker(offset):
        try:
            barrier.wait(timeout=60)
            for i in range(calls):
                work(offset, i)
        except Exception as exc:  # reported by the caller
            errors.append(repr(exc))

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(offset,))
                   for offset in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    return errors


@pytest.mark.concurrency
def test_threads_sharing_the_memos_answer_like_a_serial_run(monkeypatch):
    """Several threads query one engine with repeated and distinct texts
    while both memos evict (their bounds are shrunk so that eviction
    happens every few texts). The views are live before the threads
    start; what runs concurrently is the query path: parse, footprint,
    pruning and evaluation."""
    monkeypatch.setattr(parser, "QUERY_MEMO_LIMIT", 6)
    monkeypatch.setattr(effects, "FOOTPRINT_MEMO_LIMIT", 4)
    engine = unified_engine(prune=True)
    engine.materialized_view()
    shapes = ["?.dbI.p(.stk=S, .price=P), P > {n}",
              "?.dbO.S(.date=D, .clsPrice=P), P < {n}",
              "?.dbE.r(.stkCode=S, .clsPrice=P), P != {n}",
              "?.euter.r(.date=D, .clsPrice=P), P >= {n}"]
    texts = [shape.format(n=n) for n in (50, 60, 65, 70, 100)
             for shape in shapes]
    texts += ["?.dbI.p(.stk=S)", "?.dbC.r(.date=D, .hp=P)"] * 5
    expected = {text: canon(engine.query(text)) for text in texts}
    answered = []

    def work(offset, i):
        text = texts[(i + 7 * offset) % len(texts)]
        assert canon(engine.query(text)) == expected[text], text
        answered.append(text)

    assert hammer(4, 3 * len(texts), work) == []
    assert len(answered) == 4 * 3 * len(texts)
    assert len(parser._query_memo) <= 6
    assert len(engine.effect_analysis()._footprints) <= 4


@pytest.mark.concurrency
def test_threads_hitting_and_evicting_the_parse_memo(monkeypatch):
    """Hits and evictions of the same few texts interleave on every
    call; each caller must still get its text's statement."""
    monkeypatch.setattr(parser, "QUERY_MEMO_LIMIT", 3)
    texts = [f"?.a.r(.x=X), X > {n}" for n in range(8)]
    expected = {text: fresh(text) for text in texts}

    def work(offset, i):
        text = texts[(i * (offset + 1)) % len(texts)]
        (statement,) = parser.parse_program(text)
        assert statement == expected[text], text

    assert hammer(4, 2000, work) == []
    assert len(parser._query_memo) <= 3


@pytest.mark.concurrency
def test_threads_hitting_and_evicting_the_footprint_memo(monkeypatch):
    monkeypatch.setattr(effects, "FOOTPRINT_MEMO_LIMIT", 3)
    engine = unified_engine(prune=True)
    analysis = engine.effect_analysis()
    statements = [fresh(text) for text in (
        "?.dbI.p(.stk=S)", "?.dbE.r(.stkCode=S)", "?.dbO.S(.date=D)",
        "?.dbC.r(.date=D)", "?.euter.r(.date=D)", "?.chwab.r(.date=D)",
        "?.ource.S(.date=D)", "?.dbU.X(.date=D)")]
    expected = [effects.EffectAnalysis(engine.program).query_footprint(s)
                for s in statements]

    def work(offset, i):
        index = (i * (offset + 1)) % len(statements)
        reads, needed = analysis.query_footprint(statements[index])
        assert (reads, needed) == expected[index], index

    assert hammer(4, 2000, work) == []
    assert len(analysis._footprints) <= 3
