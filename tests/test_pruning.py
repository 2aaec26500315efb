"""Member pruning and narrowed journal intents.

The static effect analysis (src/repro/analysis/effects.py) tells the
engine which view rules a query can reach and tells the federation
which members an update can write. Both optimizations are **on by
default** and must be invisible to semantics:

* the engine's pruned materialization answers every query exactly as
  the full materialization does (differential Hypothesis property,
  including faulty connectors, quarantined members and
  ``on_unavailable="partial"``);
* the federation's narrowed flush journals and stages exactly the
  update's write set; members outside it report ``unchanged``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.effects import EffectAnalysis, Effects, EffectSet
from repro.core.engine import IdlEngine
from repro.errors import FederationError, MemberUnavailableError
from repro.multidb import (
    FakeClock,
    FaultyConnector,
    Federation,
    FederationConfig,
    InMemoryConnector,
    ResiliencePolicy,
)
from repro.workloads.stocks import StockWorkload

STYLES = ("euter", "chwab", "ource")
ATTEMPTS = 2

seeds = st.integers(min_value=0, max_value=30)
fault_schedules = st.fixed_dictionaries({
    "euter": st.integers(min_value=0, max_value=4),
    "chwab": st.integers(min_value=0, max_value=4),
    "ource": st.integers(min_value=0, max_value=4),
})


def build_federation(workload, prune, schedule=None, seed=0):
    """A three-style federation; ``schedule`` scripts connector faults."""
    clock = FakeClock()
    federation = Federation.from_config(FederationConfig(prune=prune))
    for style in STYLES:
        relations = workload.relations_for(style)
        connector = InMemoryConnector(relations)
        if schedule is not None:
            connector = FaultyConnector(connector)
            connector.fail_next(schedule[style])
        federation.add_member(
            style, style, connector=connector,
            policy=ResiliencePolicy(
                max_attempts=ATTEMPTS, base_delay=0.01, jitter=0.0,
                failure_threshold=100, seed=seed,
            ),
            clock=clock,
        )
    return federation


def queries_for(workload):
    """A query mix touching one member, one style pair, and the unified
    view — the shapes whose pruning decisions differ."""
    symbol = workload.symbols[0]
    day = workload.days[0]
    return [
        "?.dbI.p(.date=D, .stk=S, .price=P)",
        f"?.dbI.p(.stk={symbol}, .date=D, .price=P)",
        f"?.euter.r(.stkCode={symbol}, .date=D, .clsPrice=P)",
        f"?.chwab.r(.date={day}, .{symbol}=P)",
        f"?.ource.{symbol}(.date=D, .clsPrice=P)",
    ]


def answer_set(result):
    return frozenset(
        frozenset(answer.items()) for answer in result
    )


# ---------------------------------------------------------------------------
# The differential property
# ---------------------------------------------------------------------------


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_pruned_answers_equal_unpruned_answers(seed):
    workload = StockWorkload(n_stocks=4, n_days=3, seed=seed)
    pruned = build_federation(workload, "on")
    full = build_federation(workload, "off")
    pruned.install()
    full.install()
    for source in queries_for(workload):
        assert answer_set(pruned.query(source)) == \
            answer_set(full.query(source)), source


@given(seeds, fault_schedules)
@settings(max_examples=25, deadline=None)
def test_pruned_answers_equal_unpruned_under_faults(seed, schedule):
    """Pruning commutes with degradation: for any fault schedule the
    pruned and unpruned federations quarantine the same members and
    return identical partial answers."""
    workload = StockWorkload(n_stocks=4, n_days=2, seed=seed)
    failed = {name for name, n in schedule.items() if n >= ATTEMPTS}
    federations = []
    for prune in ("on", "off"):
        federation = build_federation(
            workload, prune, schedule=schedule, seed=seed
        )
        if len(failed) == len(STYLES):
            with pytest.raises(MemberUnavailableError):
                federation.install()
            return
        federation.install()
        federations.append(federation)
    pruned, full = federations
    assert set(pruned.quarantined) == set(full.quarantined) == failed
    for source in queries_for(workload):
        lhs = pruned.query(source, on_unavailable="partial")
        rhs = full.query(source, on_unavailable="partial")
        assert answer_set(lhs) == answer_set(rhs), source
        assert lhs.availability.unavailable == rhs.availability.unavailable
        assert lhs.complete == rhs.complete


@given(seeds)
@settings(max_examples=15, deadline=None)
def test_pruned_updates_leave_identical_member_states(seed):
    """Narrowed intents are invisible to member state: after the same
    update sequence, every member holds the same rows either way."""
    workload = StockWorkload(n_stocks=3, n_days=2, seed=seed)
    symbol = workload.symbols[0]
    day = workload.days[-1]
    requests = [
        f"?.euter.r-(.stkCode={symbol}, .date={day})",
        f"?.dbU.insStk(.stk=zzcorp, .date={day}, .price=17)",
        f"?.ource.zzcorp+(.date={day}, .clsPrice=41)",
    ]
    states = []
    for prune in ("on", "off"):
        federation = build_federation(workload, prune)
        federation.install()
        for source in requests:
            federation.update(source)
        states.append({
            style: federation.connectors[style].scan()
            for style in STYLES
        })
    assert states[0] == states[1]


# ---------------------------------------------------------------------------
# Pruning decisions and counters
# ---------------------------------------------------------------------------


class TestQueryPruning:
    def fed(self, prune="on"):
        workload = StockWorkload(n_stocks=3, n_days=2, seed=7)
        federation = build_federation(workload, prune)
        federation.install()
        return workload, federation

    def test_prune_rejects_unknown_mode(self):
        with pytest.raises(FederationError):
            FederationConfig(prune="maybe")

    def test_member_query_skips_the_other_members(self):
        workload, federation = self.fed()
        symbol = workload.symbols[0]
        result = federation.query(f"?.euter.r(.stkCode={symbol}, "
                                  ".date=D, .clsPrice=P)")
        counters = result.metrics["counters"]
        assert counters.get("analysis.prune.skipped") == 2
        assert counters.get("analysis.prune.scanned") == 1
        decision = federation.engine.last_prune
        assert decision.applied and decision.reason == "pruned"
        assert decision.rules_used == 0

    def test_unified_query_scans_everyone(self):
        _, federation = self.fed()
        result = federation.query("?.dbI.p(.date=D, .stk=S, .price=P)")
        counters = result.metrics["counters"]
        assert "analysis.prune.skipped" not in counters
        assert counters.get("analysis.prune.scanned") == 3
        decision = federation.engine.last_prune
        assert decision.reason == "full"
        assert decision.rules_used == decision.rules_total

    def test_prune_off_never_skips(self):
        workload, federation = self.fed("off")
        symbol = workload.symbols[0]
        result = federation.query(f"?.euter.r(.stkCode={symbol}, "
                                  ".date=D, .clsPrice=P)")
        counters = result.metrics["counters"]
        assert "analysis.prune.skipped" not in counters
        assert federation.engine.last_prune.reason == "off"

    def test_query_span_carries_the_pruning_event(self):
        workload, federation = self.fed()
        symbol = workload.symbols[0]
        result = federation.query(f"?.euter.r(.stkCode={symbol}, "
                                  ".date=D, .clsPrice=P)")
        events = {name: attrs for name, attrs in result.trace.events}
        assert "member-pruning" in events
        attrs = events["member-pruning"]
        assert attrs["reason"] == "pruned"
        assert sorted(attrs["skipped"]) == ["chwab", "ource"]


# ---------------------------------------------------------------------------
# Narrowed journal intents
# ---------------------------------------------------------------------------


class TestNarrowedIntents:
    def fed(self, prune="on"):
        workload = StockWorkload(n_stocks=3, n_days=2, seed=9)
        federation = build_federation(workload, prune)
        federation.install()
        return workload, federation

    def intent_members(self, federation, update_id):
        for record in federation.journal.records():
            if record["type"] == "intent" and record["update"] == update_id:
                return sorted(record["members"])
        raise AssertionError(f"no intent for update {update_id}")

    def test_direct_member_update_journals_only_that_member(self):
        workload, federation = self.fed()
        symbol = workload.symbols[0]
        day = workload.days[0]
        result = federation.update(
            f"?.euter.r-(.stkCode={symbol}, .date={day})"
        )
        assert result.member_outcomes["euter"] == "applied"
        assert result.member_outcomes["chwab"] == "unchanged"
        assert result.member_outcomes["ource"] == "unchanged"
        assert self.intent_members(federation, result.update_id) == ["euter"]

    def test_control_program_update_journals_every_style(self):
        _, federation = self.fed()
        result = federation.call("insStk", stk="zzcorp",
                                 date="1/1/91", price=42)
        assert all(outcome == "applied"
                   for outcome in result.member_outcomes.values())
        assert self.intent_members(federation, result.update_id) == \
            sorted(STYLES)

    def test_program_call_journals_only_the_members_it_changed(self):
        # delStk runs a clause per member, but for a stock only euter
        # holds, chwab has no such column and ource no such relation:
        # those clauses fail and write nothing, so neither is staged.
        workload, federation = self.fed()
        day = workload.days[0]
        federation.update(
            f"?.euter.r+(.stkCode=nova, .date={day}, .clsPrice=7)"
        )
        result = federation.call("delStk", stk="nova", date=day)
        assert result.member_outcomes["euter"] == "applied"
        assert result.member_outcomes["chwab"] == "unchanged"
        assert result.member_outcomes["ource"] == "unchanged"
        assert self.intent_members(federation, result.update_id) == ["euter"]

    def test_prune_off_journals_the_same_intent(self):
        # ``prune`` governs query-side pruning only: a flush stages the
        # members the update changed either way.
        intents = {}
        for prune in ("on", "off"):
            workload, federation = self.fed(prune)
            symbol = workload.symbols[0]
            day = workload.days[0]
            result = federation.update(
                f"?.euter.r-(.stkCode={symbol}, .date={day})"
            )
            assert result.member_outcomes["chwab"] == "unchanged"
            intents[prune] = self.intent_members(federation,
                                                 result.update_id)
        assert intents["off"] == intents["on"] == ["euter"]

    def test_narrowed_flush_emits_the_span_event(self):
        workload, federation = self.fed()
        symbol = workload.symbols[0]
        day = workload.days[0]
        result = federation.update(
            f"?.euter.r-(.stkCode={symbol}, .date={day})"
        )
        events = [
            (name, attrs)
            for span in result.trace.walk()
            for name, attrs in span.events
        ]
        narrowed = dict(events)["intent-narrowed"]
        assert narrowed["staged"] == ["euter"]
        assert sorted(narrowed["outside_write_set"]) == ["chwab", "ource"]

    def test_write_footprint_is_inspectable(self):
        _, federation = self.fed()
        effects = federation.write_footprint("?.dbU.insStk(.stk=zzz)")
        assert isinstance(effects, Effects)
        assert effects.writes.bounded
        assert effects.writes.dbs == set(STYLES)


# ---------------------------------------------------------------------------
# Effect-set mechanics
# ---------------------------------------------------------------------------


class TestEffectSets:
    def test_describe_and_bounds(self):
        concrete = EffectSet(frozenset({("euter", "r"), ("ource", None)}))
        assert concrete.describe() == ".euter.r, .ource.*"
        assert concrete.bounded
        assert concrete.dbs == {"euter", "ource"}
        assert concrete.touches_db("ource")
        assert not concrete.touches_db("chwab")

    def test_symbolic_database_touches_everything(self):
        symbolic = EffectSet(frozenset({(None, "r")}))
        assert not symbolic.bounded
        assert symbolic.touches_db("anything")
        assert symbolic.describe() == ".*.r"

    def test_empty_set(self):
        empty = EffectSet(frozenset())
        assert empty.describe() == "(none)"
        assert empty.bounded
        assert not empty.touches_db("euter")

    def test_request_footprint_on_a_bare_engine(self):
        engine = IdlEngine()
        engine.add_database("d", {"r": [{"x": 1}]})
        engine.define_update(".dbU.drop(.x=X) -> .d.r-(.x=X)")
        analysis = EffectAnalysis(engine.program)
        statement = engine._one_query("?.dbU.drop(.x=1)")
        effects = analysis.request_footprint(statement)
        assert effects.writes.dbs == {"d"}
        assert ("d", "r") in effects.writes.patterns
