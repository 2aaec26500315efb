"""Observability for the multidatabase federation.

The paper's two-level mapping (members → unified view → customized
views, Figure 1) means every answer is the product of a pipeline: name
mapping, higher-order rewriting, stratified fixpoint, connector scans.
This package makes that pipeline inspectable end to end:

* :mod:`repro.obs.trace` — hierarchical spans with wall time, fact
  counts and structured attributes; head-based sampling with
  error/slow tail escapes and per-trace limits; a no-op fast path when
  disabled;
* :mod:`repro.obs.metrics` — counters and histograms
  (``fixpoint.iterations``, ``connector.scan.retries``,
  ``circuit.state_changes``, ``evaluator.reorder.applied``, ...), each
  backed by a sliding window (:mod:`repro.obs.window`) for per-window
  rates and latency percentiles, plus per-request delta accumulators;
  ``SPAN_METRICS`` derives engine, fixpoint and evaluator ones from spans.
  The static effect analysis adds ``analysis.prune.skipped`` /
  ``analysis.prune.scanned`` — per-query counts of members whose scans
  the inferred read set avoided vs. required — and query spans carry
  ``member-pruning`` events describing each decision (see
  ``docs/static_analysis.md``); update flush spans carry an
  ``intent-narrowed`` event naming the members the change log staged
  and those it left alone;
* :mod:`repro.obs.slo` — per-operation and per-member objectives with
  multi-window burn rates;
* :mod:`repro.obs.server` — live ``/metrics`` (Prometheus text),
  ``/health``, ``/slo`` and ``/traces/*`` exposition over HTTP;
* :mod:`repro.obs.profile` — the per-query EXPLAIN-style profile tree;
* :mod:`repro.obs.export` — JSON-lines exporter and an in-memory
  collector.

:class:`Observability` bundles one tracer, one metrics registry, the
slow-query log, the SLO tracker and the exporters; a
:class:`~repro.multidb.federation.Federation` creates one by default
and threads it through its engine and every member connector, so
``federation.query(...)`` returns a
:class:`~repro.multidb.results.QueryResult` whose ``trace``/``profile``
/``metrics`` cover the whole pipeline. Pass
``Observability(enabled=False)`` (or build a bare ``IdlEngine`` with no
``obs``, which keeps no metrics either) to turn tracing off — benchmark
B3 asserts the disabled path costs under 5%, and benchmark B18 asserts
the full telemetry pipeline (sampling at 0.1, windows on) costs under
5% over the disabled path.
"""

from __future__ import annotations

from collections import deque

from repro.obs.export import InMemoryCollector, JsonLinesExporter
from repro.obs.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
)
from repro.obs.profile import QueryProfile
from repro.obs.server import TelemetryServer, render_prometheus
from repro.obs.slo import SLO, SLOTracker
from repro.obs.trace import (
    NOOP_SPAN,
    NOOP_TRACER,
    NoopTracer,
    SlowQueryLog,
    Span,
    TraceLimits,
    Tracer,
)
from repro.obs.window import CounterWindow, HistogramWindow, WindowConfig


class Observability:
    """One tracer + one metrics registry + slow-query log + SLO tracker
    + the exporters.

    ``enabled`` gates tracing and per-query profiling (node-visit
    counters); metrics stay on either way, since the disabled
    :class:`NoopTracer` still hands out counting spans.

    The production knobs (all keep the debugging defaults when unset):

    * ``sample_rate`` — fraction of root traces exported (head-based;
      1.0 keeps everything). Errors and slow roots are kept regardless;
    * ``slow_threshold_ms`` — the tail-escape bar, also the slow-query
      log's threshold;
    * ``limits`` — per-trace :class:`TraceLimits` span/event/attribute
      caps;
    * ``window`` — a :class:`WindowConfig` for the metric windows
      (``False`` disables windowing, the PR-3 behavior);
    * ``slow_log`` — a :class:`SlowQueryLog` (``False`` disables it);
    * ``slo`` — an :class:`SLOTracker` (``False`` disables SLO
      tracking);
    * ``recent_traces`` — how many kept root spans ``/traces/recent``
      remembers;
    * ``rng`` — injectable sampling randomness for tests.
    """

    __slots__ = ("enabled", "metrics", "exporters", "tracer", "slow_log",
                 "slo", "recent", "sample_rate", "slow_threshold_ms")

    def __init__(self, enabled=True, exporters=(), clock=None,
                 sample_rate=1.0, slow_threshold_ms=None, limits=None,
                 window=None, slow_log=None, slo=None, recent_traces=32,
                 rng=None):
        self.enabled = bool(enabled)
        self.metrics = MetricsRegistry(window=window)
        self.exporters = list(exporters)
        self.sample_rate = float(sample_rate)
        self.slow_threshold_ms = slow_threshold_ms
        if slow_log is False:
            self.slow_log = None
        elif slow_log is None:
            self.slow_log = (
                SlowQueryLog(threshold_ms=slow_threshold_ms)
                if self.enabled else None
            )
        else:
            self.slow_log = slow_log
        if slo is False:
            self.slo = None
        elif slo is None:
            self.slo = SLOTracker() if self.enabled else None
        else:
            self.slo = slo
        self.recent = deque(maxlen=max(1, int(recent_traces)))
        if self.enabled:
            self.tracer = Tracer(
                clock=clock,
                on_finish=self._export,
                on_drop=self._dropped,
                sample_rate=sample_rate,
                slow_threshold_ms=slow_threshold_ms,
                limits=limits,
                metrics=self.metrics,
                rng=rng,
            )
        else:
            self.tracer = NoopTracer(metrics=self.metrics)

    def span(self, name, **attributes):
        """A new span from this observability's tracer (a counting or
        no-op span when tracing is disabled)."""
        return self.tracer.span(name, **attributes)

    def add_exporter(self, exporter):
        self.exporters.append(exporter)
        return exporter

    def snapshot(self):
        """Point-in-time metrics snapshot (JSON-ready)."""
        return self.metrics.snapshot()

    def recent_traces(self):
        """The last kept root spans as JSON-ready trees (newest
        last) — the ``/traces/recent`` payload."""
        return [span.as_dict() for span in list(self.recent)]

    def _export(self, span):
        """A finished root span the sampler kept: feed the operational
        sinks, remember it, then fan out to the exporters."""
        self._observe_root(span)
        self.recent.append(span)
        for exporter in self.exporters:
            exporter.export(span)

    def _dropped(self, span):
        """A finished root span the sampler dropped: the slow-query log
        and the SLO tracker still see it (sampling must bias neither),
        but exporters and ``/traces/recent`` do not."""
        self._observe_root(span)

    def _observe_root(self, span):
        if self.slow_log is not None:
            self.slow_log.record(span)
        if self.slo is not None:
            self.slo.record_operation(
                span.name,
                span.duration_ms,
                ok="error" not in span.attributes,
            )

    def __repr__(self):
        return (f"Observability(enabled={self.enabled}, "
                f"sample_rate={self.sample_rate}, "
                f"exporters={len(self.exporters)}, metrics={self.metrics!r})")


__all__ = [
    "Counter",
    "CounterWindow",
    "Histogram",
    "HistogramWindow",
    "InMemoryCollector",
    "JsonLinesExporter",
    "MetricsRegistry",
    "MetricsSnapshot",
    "NOOP_SPAN",
    "NOOP_TRACER",
    "NoopTracer",
    "Observability",
    "QueryProfile",
    "SLO",
    "SLOTracker",
    "SlowQueryLog",
    "Span",
    "TelemetryServer",
    "TraceLimits",
    "Tracer",
    "WindowConfig",
    "render_prometheus",
]
