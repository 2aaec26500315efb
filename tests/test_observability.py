"""Federation-wide observability: spans, metrics, profiles, results.

The golden span-tree tests pin down the *shape* of a trace (stable
span names and structural attributes, never timings) so the pipeline's
instrumentation points cannot silently disappear; the result-type
tests cover the unified ``QueryResult``/``UpdateResult`` API and the
``on_unavailable`` switch.
"""

from __future__ import annotations

import json
import warnings

import pytest

from repro.errors import FederationError
from repro.multidb import Federation, FederationConfig, InMemoryConnector
from repro.multidb.results import (
    APPLIED,
    SNAPSHOT_ONLY,
    QueryResult,
    UpdateResult,
)
from repro.obs import (
    InMemoryCollector,
    JsonLinesExporter,
    MetricsRegistry,
    Observability,
    QueryProfile,
    Tracer,
)
from repro.obs.trace import NOOP_SPAN
from repro.workloads.stocks import StockWorkload

QUERY = "?.dbI.p(.date=D, .stk=S, .price=P)"


def build_stock_federation(obs=None):
    """The paper's three-member federation; chwab sits behind a real
    connector so updates have a member to flush to."""
    workload = StockWorkload(n_stocks=2, n_days=2, seed=42)
    federation = Federation.from_config(FederationConfig(obs=obs))
    federation.add_member("euter", "euter", workload.euter_relations())
    federation.add_member(
        "chwab", "chwab",
        connector=InMemoryConnector(workload.chwab_relations()),
    )
    federation.add_member("ource", "ource", workload.ource_relations())
    federation.install()
    return federation


# ---------------------------------------------------------------------------
# Tracer / span units
# ---------------------------------------------------------------------------


class TestTracer:
    def test_spans_nest_via_the_active_stack(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner", depth=1):
                with tracer.span("leaf"):
                    pass
            with tracer.span("sibling"):
                pass
        assert outer.tree() == (
            "outer", [("inner", [("leaf", [])]), ("sibling", [])]
        )

    def test_attributes_events_and_timing(self):
        times = iter([1.0, 2.5])
        tracer = Tracer(clock=lambda: next(times))
        with tracer.span("op", member="m") as span:
            span.set("rows", 3)
            span.event("retry", attempt=1)
        assert span.attributes == {"member": "m", "rows": 3}
        assert span.events == [("retry", {"attempt": 1})]
        assert span.duration == pytest.approx(1.5)
        assert span.duration_ms == pytest.approx(1500.0)

    def test_on_finish_fires_for_root_spans_only(self):
        finished = []
        tracer = Tracer(on_finish=finished.append)
        with tracer.span("root"):
            with tracer.span("child"):
                pass
        assert [span.name for span in finished] == ["root"]

    def test_exceptions_are_recorded_and_propagate(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom") as span:
                raise ValueError("nope")
        assert span.attributes["error"] == "ValueError"
        assert tracer.current is None

    def test_render_shows_attributes_and_events(self):
        tracer = Tracer()
        with tracer.span("parent", n=2) as span:
            span.event("woke", after=0.5)
            with tracer.span("kid"):
                pass
        text = span.render()
        assert "parent" in text and "[n=2]" in text
        assert "* woke" in text and "after=0.5" in text
        assert "└─ kid" in text

    def test_noop_span_is_inert(self):
        assert NOOP_SPAN.set("k", 1) is NOOP_SPAN
        assert NOOP_SPAN.event("e") is NOOP_SPAN
        assert NOOP_SPAN.find("x") is None
        assert NOOP_SPAN.render() == "(tracing disabled)"
        with NOOP_SPAN as span:
            assert span is NOOP_SPAN


class TestMetricsRegistry:
    def test_counters_are_keyed_by_name_and_tags(self):
        metrics = MetricsRegistry()
        metrics.counter("retries", member="a").inc()
        metrics.counter("retries", member="a").inc(2)
        metrics.counter("retries", member="b").inc()
        assert metrics.counter_value("retries", member="a") == 3
        assert metrics.counter_value("retries", member="b") == 1
        assert metrics.counter_value("retries", member="zzz") == 0
        assert metrics.counter_total("retries") == 4

    def test_histograms_track_distribution(self):
        metrics = MetricsRegistry()
        for value in (1.0, 3.0, 2.0):
            metrics.histogram("latency").observe(value)
        histogram = metrics.histogram("latency")
        assert histogram.count == 3
        assert histogram.minimum == 1.0
        assert histogram.maximum == 3.0
        assert histogram.mean == pytest.approx(2.0)

    def test_snapshot_and_render(self):
        metrics = MetricsRegistry()
        metrics.counter("hits", member="m").inc()
        snap = metrics.snapshot()
        assert snap["counters"]["hits{member=m}"] == 1
        assert "hits{member=m}" in metrics.render()
        metrics.reset()
        assert metrics.render() == "(no metrics recorded)"


# ---------------------------------------------------------------------------
# Golden span trees through the federation
# ---------------------------------------------------------------------------


class TestGoldenSpanTrees:
    def test_query_trace_covers_the_whole_pipeline(self):
        federation = build_stock_federation()
        result = federation.query(QUERY)

        root = result.trace
        assert root.name == "federation.query"
        assert root.attributes["on_unavailable"] == "fail"
        assert root.attributes["answers"] == len(result)

        assert [child.name for child in root.children] == ["engine.query"]
        engine_query = root.children[0]
        assert [child.name for child in engine_query.children] == [
            "fixpoint.materialize", "engine.evaluate",
        ]

        materialize = engine_query.children[0]
        assert materialize.attributes["method"] == "seminaive"
        assert materialize.children  # at least one stratum
        for index, stratum in enumerate(materialize.children):
            assert stratum.name == "fixpoint.stratum"
            assert stratum.attributes["index"] == index
            assert stratum.attributes["rules"] >= 1
            assert stratum.attributes["reused"] is False

        evaluate = engine_query.children[1]
        assert evaluate.attributes["answers"] == len(result)
        assert evaluate.attributes["counters"]["visits"] > 0

    def test_cached_query_skips_materialization(self):
        federation = build_stock_federation()
        federation.query(QUERY)
        result = federation.query(QUERY)
        engine_query = result.trace.children[0]
        assert [child.name for child in engine_query.children] == [
            "engine.evaluate",
        ]

    def test_update_trace_covers_engine_and_flush(self):
        federation = build_stock_federation()
        result = federation.insert_quote("nova", "9/9/99", 9.0)

        root = result.trace
        assert root.name == "federation.call"
        assert root.attributes["program"] == "insStk"
        assert root.attributes["flushed"] is True
        assert [child.name for child in root.children] == [
            "engine.update", "federation.flush",
        ]

        update = root.children[0]
        assert update.attributes["inserted"] >= 1

        flush = root.children[1]
        applies = flush.find_all("connector.apply")
        assert [span.attributes["member"] for span in applies] == ["chwab"]
        assert all(span.attributes["attempts"] == 1 for span in applies)

    def test_install_emits_a_root_span(self):
        collector = InMemoryCollector()
        obs = Observability(exporters=[collector])
        build_stock_federation(obs=obs)
        install = collector.find("federation.install")
        assert install is not None
        assert install.attributes["attached"] == ["chwab", "euter", "ource"]
        assert install.attributes["quarantined"] == []


# ---------------------------------------------------------------------------
# The unified result types
# ---------------------------------------------------------------------------


class TestQueryResult:
    def test_behaves_as_a_plain_list(self):
        federation = build_stock_federation()
        result = federation.query(QUERY)
        assert isinstance(result, list)
        assert isinstance(result, QueryResult)
        assert len(result) == 4  # 2 stocks x 2 days
        assert result.answers == list(result)
        assert result[:2] == list(result)[:2]

    def test_carries_availability_stats_profile_metrics(self):
        federation = build_stock_federation()
        result = federation.query(QUERY)
        assert result.complete
        assert result.availability.contributed == {"euter", "chwab", "ource"}
        assert result.stats is not None and result.stats.rounds >= 1
        assert isinstance(result.profile, QueryProfile)
        assert result.profile.counters["visits"] > 0
        assert "fixpoint.iterations" in result.metrics["counters"]
        assert repr(result) == "QueryResult(4 answers)"

    def test_profile_renders_the_span_tree(self):
        federation = build_stock_federation()
        result = federation.query(QUERY)
        text = result.profile.render()
        assert "federation.query" in text
        assert "fixpoint.stratum" in text
        assert result.profile.strata  # per-stratum attribute dicts

    def test_ask_still_returns_a_boolean(self):
        federation = build_stock_federation()
        assert federation.ask(QUERY) is True


class TestUpdateResult:
    def test_member_outcomes_and_flush_status(self):
        federation = build_stock_federation()
        result = federation.insert_quote("nova", "9/9/99", 9.0)
        assert isinstance(result, UpdateResult)
        assert result.succeeded and result.changed
        assert result.flushed is True
        assert result.member_outcomes == {
            "chwab": APPLIED, "euter": SNAPSHOT_ONLY, "ource": SNAPSHOT_ONLY,
        }
        assert result.availability.complete
        assert result.metrics["counters"]["engine.updates"] >= 1
        assert result.trace.name == "federation.call"

    def test_update_profile_reports_maintenance(self):
        federation = build_stock_federation()
        federation.query(QUERY)  # materialize the integration views
        result = federation.insert_quote("nova", "9/9/99", 9.0)
        maintenance = result.profile.maintenance
        assert maintenance  # the repair (or its fallback) was attempted
        assert {"strata", "repaired", "fallbacks", "seeded"} <= set(maintenance[0])

    def test_no_op_update_reports_unchanged_members(self):
        federation = build_stock_federation()
        result = federation.delete_quote("ghost", "1/1/01")
        assert not result.changed
        assert result.flushed is False
        assert set(result.member_outcomes.values()) == {"unchanged"}

    def test_engine_update_result_contract_is_inherited(self):
        from repro.core.updates import UpdateResult as EngineUpdateResult

        federation = build_stock_federation()
        result = federation.insert_quote("nova", "9/9/99", 9.0)
        assert isinstance(result, EngineUpdateResult)
        assert result.inserted >= 1 and result.deleted == 0


# ---------------------------------------------------------------------------
# Deprecation shims
# ---------------------------------------------------------------------------


class TestDeprecations:
    def test_invalid_on_unavailable_is_rejected(self):
        federation = build_stock_federation()
        with pytest.raises(FederationError, match="on_unavailable"):
            federation.query(QUERY, on_unavailable="explode")

    def test_plain_query_does_not_warn(self):
        federation = build_stock_federation()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            federation.query(QUERY)
            federation.query(QUERY, on_unavailable="partial")


# ---------------------------------------------------------------------------
# Disabled observability and exporters
# ---------------------------------------------------------------------------


class TestDisabledObservability:
    def test_answers_identical_with_tracing_off(self):
        enabled = build_stock_federation()
        disabled = build_stock_federation(obs=Observability(enabled=False))
        assert sorted(map(str, enabled.query(QUERY))) == sorted(
            map(str, disabled.query(QUERY))
        )

    def test_result_has_no_trace_or_profile(self):
        federation = build_stock_federation(obs=Observability(enabled=False))
        result = federation.query(QUERY)
        assert result.trace is None
        assert result.profile is None
        assert result.availability is not None

    def test_metrics_stay_on_when_tracing_is_off(self):
        federation = build_stock_federation(obs=Observability(enabled=False))
        result = federation.query(QUERY)
        assert result.metrics["counters"]["fixpoint.runs"] >= 1

    def test_bare_engine_has_no_observability(self):
        from repro.core.engine import IdlEngine

        engine = IdlEngine()
        assert engine.obs is None
        assert engine.eval_ctx.tracer is None


class TestExporters:
    def test_in_memory_collector_sees_every_root_span(self):
        collector = InMemoryCollector()
        obs = Observability(exporters=[collector])
        federation = build_stock_federation(obs=obs)
        federation.query(QUERY)
        federation.insert_quote("nova", "9/9/99", 9.0)
        names = [span.name for span in collector]
        assert "federation.install" in names
        assert "federation.query" in names
        assert "federation.call" in names
        assert collector.last.name == "federation.call"

    def test_jsonl_exporter_round_trips(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonLinesExporter(path) as exporter:
            obs = Observability(exporters=[exporter])
            federation = build_stock_federation(obs=obs)
            federation.query(QUERY)
        documents = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        query_doc = next(
            doc for doc in documents if doc["name"] == "federation.query"
        )
        assert query_doc["duration_ms"] > 0
        assert [child["name"] for child in query_doc["children"]] == [
            "engine.query"
        ]
        assert exporter.exported == len(documents)
