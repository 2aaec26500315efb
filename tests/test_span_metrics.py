"""Metrics derived from spans: every tracing setup yields the same
engine and fixpoint metrics (see ``repro.obs.metrics.SPAN_METRICS``)."""

from __future__ import annotations

import pytest

from repro import IdlEngine
from repro.errors import IdlError
from repro.obs import Observability, TraceLimits
from repro.obs.metrics import SPAN_METRICS

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
def test_span_metrics_match_across_tracing_setups(setup):
    reference = SETUPS["tracing-on"]()
    run_sequence(reference)
    obs = SETUPS[setup]()
    before, after = run_sequence(obs)

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
