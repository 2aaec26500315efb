"""Metrics derived from spans: every tracing setup yields the same
engine, fixpoint and evaluator metrics (see
``repro.obs.metrics.SPAN_METRICS``), and the registry sees nothing but
those folds."""

from __future__ import annotations

from collections import OrderedDict

import pytest

from repro import IdlEngine
from repro.bench import TC_PROGRAM, chain_universe
from repro.core import parser
from repro.errors import IdlError
from repro.obs import Observability, TraceLimits
from repro.obs.metrics import SPAN_METRICS, Counter, MetricsRegistry
from repro.workloads.stocks import paper_universe
from tests.test_query_memo import hammer

SETUPS = {
    "tracing-on": lambda: Observability(enabled=True),
    "tracing-off": lambda: Observability(enabled=False),
    "sampled-out": lambda: Observability(sample_rate=0.0),
    "span-capped": lambda: Observability(limits=TraceLimits(max_spans=1)),
    "attribute-capped": lambda: Observability(
        limits=TraceLimits(max_attributes=0)),
}


def run_sequence(obs):
    """Materialize, repair an insert and a delete, fall back on a
    negation, roll back a failing update, then query. Returns the
    ``engine.updates`` value before and after the failing update."""
    engine = IdlEngine(obs=obs)
    engine.add_database("g", {"edge": [
        {"a": 1, "b": 2}, {"a": 2, "b": 3}, {"a": 1, "b": 3},
    ]})
    engine.add_database("a", {"r": [{"x": 1}, {"x": 2}]})
    engine.add_database("b", {"s": [{"y": 1}]})
    engine.declare_key("a", "r", ("x",))
    engine.define(".g.tc(.a=X, .b=Y) <- .g.edge(.a=X, .b=Y)")
    engine.define(".g.tc(.a=X, .b=Y) <- .g.tc(.a=X, .b=Z), .g.edge(.a=Z, .b=Y)")
    engine.define(".v.p(.x=X) <- .a.r(.x=X), .b.s~(.y=X)")
    engine.materialized_view()
    engine.update("?.g.edge+(.a=3, .b=4)")
    engine.update("?.g.edge-(.a=1, .b=2)")
    engine.update("?.b.s+(.y=2)")  # negation over b.s: falls back
    before = obs.metrics.counter_value("engine.updates")
    with pytest.raises(IdlError):
        engine.update("?.a.r+(.x=9), .a.r+(.x=9, .z=1)")  # duplicate key
    after = obs.metrics.counter_value("engine.updates")
    engine.query("?.g.tc(.a=X, .b=Y)")
    engine.query("?.v.p(.x=X)")
    engine.ask("?.g.tc(.a=2, .b=4)")
    return before, after


def span_metrics(obs):
    """Every counter and histogram count :data:`SPAN_METRICS` names."""
    counters, histograms = {}, {}
    for count, sums, duration in SPAN_METRICS.values():
        names = [name for _, name in sums]
        if count is not None:
            names.append(count)
        for name in names:
            counters[name] = obs.metrics.counter_value(name)
        if duration is not None:
            histograms[duration] = obs.metrics.histogram(duration).count
    return counters, histograms


@pytest.mark.parametrize("setup", sorted(SETUPS))
def test_span_metrics_match_across_tracing_setups(setup, monkeypatch):
    # evaluator.reorder.applied counts goal orders derived, i.e. misses
    # of the memo on each AST node. Query texts parse to nodes shared by
    # the whole process (the parse memo), so an engine that reruns
    # texts an earlier engine ran derives only its own rule bodies'
    # orders: 9 on this sequence for the first engine, 5 for later
    # ones. Each run starts from an empty parse memo so that the order
    # in which setups run cannot change the count.
    monkeypatch.setattr(parser, "_query_memo", OrderedDict())
    reference = SETUPS["tracing-on"]()
    run_sequence(reference)
    monkeypatch.setattr(parser, "_query_memo", OrderedDict())
    obs = SETUPS[setup]()
    before, after = run_sequence(obs)
    rerun = Observability(enabled=False)
    run_sequence(rerun)  # the same texts again: their orders are memoized

    assert after == before == 3  # the rolled-back update counts nothing
    counters, histograms = span_metrics(obs)
    assert (counters, histograms) == span_metrics(reference)
    assert counters["fixpoint.maintain.runs"] == 3
    assert counters["fixpoint.maintain.seeded"] >= 2
    assert counters["fixpoint.maintain.overdeleted"] > 0
    assert counters["fixpoint.maintain.rederived"] > 0
    assert counters["fixpoint.maintain.fallbacks"] == 1
    assert counters["fixpoint.runs"] >= 2
    assert counters["fixpoint.iterations"] > 0
    assert histograms["engine.query.ms"] == 2
    assert histograms["fixpoint.materialize.ms"] == counters["fixpoint.runs"]
    assert counters["evaluator.index.builds"] == 9
    assert counters["evaluator.index.hits"] == 16
    assert counters["evaluator.index.misses"] == 9
    assert counters["evaluator.index.fallbacks"] == 18
    assert counters["evaluator.reorder.applied"] == 9
    assert rerun.metrics.counter_value("evaluator.reorder.applied") == 5


def test_disabled_closure_increments_only_its_folded_spans(monkeypatch):
    """B3's timing guard measures this workload (a 40-node semi-naive
    closure on disabled observability) against the bare engine. The
    registry must see no increment beyond the folds of the spans that
    closed: one per SPAN_METRICS entry of each, never one per probe."""
    increments, folded = [], []
    inc, fold = Counter.inc, MetricsRegistry.fold

    def counting_inc(self, amount=1):
        increments.append(self.name)
        return inc(self, amount)

    def recording_fold(self, span):
        folded.append(span.name)
        return fold(self, span)

    monkeypatch.setattr(Counter, "inc", counting_inc)
    monkeypatch.setattr(MetricsRegistry, "fold", recording_fold)
    engine = IdlEngine(universe=chain_universe(40),
                       obs=Observability(enabled=False))
    engine.define(TC_PROGRAM)
    assert len(engine.overlay.get("g").get("tc")) == 40 * 41 // 2
    entries = 0
    for name in folded:
        count, sums, _ = SPAN_METRICS[name]
        entries += (count is not None) + len(sums)
    assert folded == ["fixpoint.materialize"]
    assert len(increments) <= entries, sorted(set(increments))
    assert "evaluator.index.hits" in increments


INDEX_COUNTERS = ("evaluator.index.builds", "evaluator.index.hits",
                  "evaluator.index.misses", "evaluator.index.fallbacks")


@pytest.mark.concurrency
def test_threads_sharing_one_engine_count_like_a_serial_run():
    """Four threads query one engine while switching as often as the
    interpreter allows. Each request counts on a context of its own, so
    the registry's evaluator.index.* totals equal a serial run's of the
    same queries exactly. Indexes are built before the threads start."""
    texts = ["?.euter.r(.stkCode=hp, .date=D, .clsPrice=P)",
             "?.euter.r(.stkCode=S, .date=D), .chwab.r(.date=D, .S=P)",
             "?.ource.S(.date=D, .clsPrice=P), P > 60"]
    calls = 60

    def warmed():
        obs = Observability(enabled=False)
        engine = IdlEngine(universe=paper_universe(), obs=obs)
        for text in texts:
            engine.query(text)
        return engine, obs

    serial, serial_obs = warmed()
    for _ in range(4):
        for i in range(calls):
            serial.query(texts[i % len(texts)])
    shared, shared_obs = warmed()
    assert hammer(4, calls,
                  lambda offset, i: shared.query(texts[i % len(texts)])) == []
    expected = {name: serial_obs.metrics.counter_value(name)
                for name in INDEX_COUNTERS}
    assert expected["evaluator.index.hits"] > 4 * calls
    assert expected["evaluator.index.fallbacks"] > 0
    assert {name: shared_obs.metrics.counter_value(name)
            for name in INDEX_COUNTERS} == expected
