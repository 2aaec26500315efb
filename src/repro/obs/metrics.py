"""Federation-wide metrics: counters and histograms with tags.

A :class:`MetricsRegistry` is a flat namespace of named instruments,
optionally qualified by tags (``counter("connector.scan.retries",
member="chwab")``). Instruments are created on first use and accumulate
for the registry's lifetime — one registry per
:class:`~repro.obs.Observability`, shared by every layer it is threaded
through (federation, engine, fixpoint, connectors).

Increments are a dict lookup plus an integer add, cheap enough to stay
on even when tracing is disabled; the hot evaluator loop still guards
behind ``metrics is not None`` so an engine without observability pays
nothing. The engine and the fixpoint increment nothing by hand:
:meth:`MetricsRegistry.fold` derives their metrics from their spans.

Beyond the cumulative values, every instrument feeds a sliding window
(:mod:`repro.obs.window`) so :meth:`MetricsRegistry.snapshot` reports
per-window rates and latency percentiles (p50/p90/p99/max) — what the
``/metrics`` exposition and the SLO layer scrape. Pass
``MetricsRegistry(window=False)`` to keep only the cumulative values.

Two concurrent requests must not report each other's increments, so a
request wraps its work in :meth:`MetricsRegistry.request`: a
thread-local *accumulator* that records the deltas this request (and,
via :meth:`adopt_requests`, its executor worker threads) produced.
``QueryResult.metrics`` carries that delta snapshot; the cumulative
registry stays reachable as ``Observability.metrics``.

Instruments are thread-safe: the scatter-gather executor (see
:mod:`repro.multidb.executor`) increments connector and pool counters
from worker threads, so every mutation happens under a per-instrument
lock and instrument creation is serialized by the registry.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

from repro.obs.window import (
    CounterWindow,
    HistogramWindow,
    WindowConfig,
    percentile,
)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "tags", "key", "value", "window", "_lock",
                 "_registry")

    def __init__(self, name, tags, window=None, registry=None):
        self.name = name
        self.tags = tags
        self.key = _render_key(name, tags)
        self.value = 0
        self.window = window
        self._registry = registry
        self._lock = threading.Lock()

    def inc(self, amount=1):
        with self._lock:
            self.value += amount
        if self.window is not None:
            self.window.add(amount)
        registry = self._registry
        if registry is not None:
            for accumulator in registry.active_requests():
                accumulator.count(self.key, amount)
        return self

    def __repr__(self):
        return f"Counter({self.key}={self.value})"


class Histogram:
    """Summary statistics of an observed distribution (count, sum,
    min, max, mean) plus a sliding window for percentiles — enough for
    latency reporting without keeping every sample forever."""

    __slots__ = ("name", "tags", "key", "count", "total", "minimum",
                 "maximum", "window", "_lock", "_registry")

    def __init__(self, name, tags, window=None, registry=None):
        self.name = name
        self.tags = tags
        self.key = _render_key(name, tags)
        self.count = 0
        self.total = 0.0
        self.minimum = None
        self.maximum = None
        self.window = window
        self._registry = registry
        self._lock = threading.Lock()

    def observe(self, value):
        with self._lock:
            self.count += 1
            self.total += value
            if self.minimum is None or value < self.minimum:
                self.minimum = value
            if self.maximum is None or value > self.maximum:
                self.maximum = value
        if self.window is not None:
            self.window.observe(value)
        registry = self._registry
        if registry is not None:
            for accumulator in registry.active_requests():
                accumulator.observe(self.key, value)
        return self

    @property
    def mean(self):
        return self.total / self.count if self.count else None

    def as_dict(self):
        summary = {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "mean": self.mean,
        }
        if self.window is not None:
            windowed = self.window.snapshot()
            summary["p50"] = windowed["p50"]
            summary["p90"] = windowed["p90"]
            summary["p99"] = windowed["p99"]
            summary["rate"] = windowed["rate"]
            summary["window_max"] = windowed["max"]
        return summary

    def __repr__(self):
        return (f"Histogram({self.key}, "
                f"count={self.count}, mean={self.mean})")


def _tag_key(tags):
    return tuple(sorted(tags.items()))


def _render_key(name, tags):
    if not tags:
        return name
    inner = ",".join(f"{key}={value}" for key, value in sorted(tags.items()))
    return f"{name}{{{inner}}}"


class MetricsSnapshot(dict):
    """A point-in-time, JSON-ready, *immutable* metrics view.

    Behaves like the plain dict it always was
    (``snapshot["counters"][key]``) but refuses mutation, so a snapshot
    stored on a result object cannot drift after the fact."""

    __slots__ = ()

    def _frozen(self, *args, **kwargs):
        raise TypeError("MetricsSnapshot is immutable")

    __setitem__ = _frozen
    __delitem__ = _frozen
    clear = _frozen
    pop = _frozen
    popitem = _frozen
    setdefault = _frozen
    update = _frozen

    def __repr__(self):
        return (f"MetricsSnapshot(counters={len(self.get('counters', ()))}, "
                f"histograms={len(self.get('histograms', ()))})")


class _RequestAccumulator:
    """Per-request metric deltas: every increment and observation made
    while the request is active (on its thread or an adopted worker)
    lands here too. ``snapshot()`` summarizes exactly this request."""

    __slots__ = ("_counters", "_values", "_lock")

    def __init__(self):
        self._counters = {}
        self._values = {}
        self._lock = threading.Lock()

    def count(self, key, amount):
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + amount

    def observe(self, key, value):
        with self._lock:
            self._values.setdefault(key, []).append(value)

    def snapshot(self):
        """The request's delta as a :class:`MetricsSnapshot` —
        histogram percentiles are exact here (every sample of the
        request is retained)."""
        with self._lock:
            counters = dict(self._counters)
            values = {key: list(samples)
                      for key, samples in self._values.items()}
        histograms = {}
        for key in sorted(values):
            samples = sorted(values[key])
            histograms[key] = {
                "count": len(samples),
                "sum": sum(samples),
                "min": samples[0],
                "max": samples[-1],
                "mean": sum(samples) / len(samples),
                "p50": percentile(samples, 0.50),
                "p90": percentile(samples, 0.90),
                "p99": percentile(samples, 0.99),
            }
        return MetricsSnapshot({
            "counters": {key: counters[key] for key in sorted(counters)},
            "histograms": histograms,
        })


#: Metrics derived from spans, by span name: ``(counter counting the
#: span, ((attribute, counter summing it), ...), histogram of the span's
#: duration in ms)``.
SPAN_METRICS = {
    "fixpoint.materialize": (
        "fixpoint.runs",
        (("rounds", "fixpoint.iterations"),
         ("firings", "fixpoint.rule_firings"),
         ("derivations", "fixpoint.derivations"),
         ("reused_strata", "fixpoint.reused_strata")),
        "fixpoint.materialize.ms",
    ),
    "fixpoint.maintain": (
        "fixpoint.maintain.runs",
        (("seeded", "fixpoint.maintain.seeded"),
         ("overdeleted", "fixpoint.maintain.overdeleted"),
         ("rederived", "fixpoint.maintain.rederived"),
         ("fallbacks", "fixpoint.maintain.fallbacks")),
        None,
    ),
    "engine.query": (None, (), "engine.query.ms"),
    "engine.update": ("engine.updates", (), None),
}


class MetricsRegistry:
    """Named counters and histograms, created on first use.

    ``window`` shapes the sliding windows every instrument feeds:
    ``None`` uses the default :class:`~repro.obs.window.WindowConfig`,
    a config instance overrides it, ``False`` disables windowing (no
    rates, no percentiles — the PR-3 behavior).
    """

    __slots__ = ("_counters", "_histograms", "_lock", "_window", "_local")

    def __init__(self, window=None):
        self._counters = {}
        self._histograms = {}
        self._lock = threading.Lock()
        if window is False:
            self._window = None
        elif window is None:
            self._window = WindowConfig()
        else:
            self._window = window
        self._local = threading.local()

    @property
    def window_config(self):
        """The active :class:`WindowConfig`, or None when disabled."""
        return self._window

    # -- instruments ---------------------------------------------------

    def counter(self, name, **tags):
        key = (name, _tag_key(tags))
        instrument = self._counters.get(key)
        if instrument is None:
            with self._lock:
                window = (CounterWindow(self._window)
                          if self._window is not None else None)
                instrument = self._counters.setdefault(
                    key, Counter(name, dict(tags), window=window,
                                 registry=self)
                )
        return instrument

    def histogram(self, name, **tags):
        key = (name, _tag_key(tags))
        instrument = self._histograms.get(key)
        if instrument is None:
            with self._lock:
                window = (HistogramWindow(self._window)
                          if self._window is not None else None)
                instrument = self._histograms.setdefault(
                    key, Histogram(name, dict(tags), window=window,
                                   registry=self)
                )
        return instrument

    def fold(self, span):
        """Derive the :data:`SPAN_METRICS` of one span that closed
        without an exception (a failed span feeds nothing)."""
        derived = SPAN_METRICS.get(span.name)
        if derived is None:
            return
        count, sums, duration = derived
        if count is not None:
            self.counter(count).inc()
        attributes = span.attributes
        for attribute, name in sums:
            self.counter(name).inc(attributes.get(attribute, 0))
        if duration is not None:
            self.histogram(duration).observe(span.duration_ms)

    # -- per-request deltas --------------------------------------------

    @contextmanager
    def request(self):
        """Scope one request: yields a :class:`_RequestAccumulator`
        that receives every delta recorded on this thread (and on
        worker threads that :meth:`adopt_requests` it) until the block
        exits. Nests — an inner request sees only its own deltas while
        the outer one keeps accumulating."""
        accumulator = _RequestAccumulator()
        stack = self._request_stack()
        stack.append(accumulator)
        try:
            yield accumulator
        finally:
            if accumulator in stack:
                stack.remove(accumulator)

    def active_requests(self):
        """The accumulators active on *this* thread (outermost first).
        The executor captures this on the dispatching thread and
        re-activates it on each worker via :meth:`adopt_requests`."""
        stack = getattr(self._local, "requests", None)
        return tuple(stack) if stack else ()

    @contextmanager
    def adopt_requests(self, accumulators):
        """Make another thread's active accumulators receive this
        thread's deltas for the duration of the block (the
        scatter-gather worker handshake, mirroring ``Tracer.adopt``)."""
        if not accumulators:
            yield
            return
        stack = self._request_stack()
        stack.extend(accumulators)
        try:
            yield
        finally:
            for accumulator in accumulators:
                if accumulator in stack:
                    stack.remove(accumulator)

    def _request_stack(self):
        stack = getattr(self._local, "requests", None)
        if stack is None:
            stack = self._local.requests = []
        return stack

    # -- reading -------------------------------------------------------

    def counter_value(self, name, **tags):
        """Current value of a counter, 0 when it never fired."""
        instrument = self._counters.get((name, _tag_key(tags)))
        return instrument.value if instrument is not None else 0

    def counter_total(self, name):
        """Sum of a counter across every tag combination."""
        return sum(
            instrument.value
            for (counter_name, _), instrument in self._counters.items()
            if counter_name == name
        )

    def snapshot(self):
        """A point-in-time, JSON-ready view of every instrument:
        ``{"counters": {key: int}, "rates": {key: events/s},
        "histograms": {key: summary}}`` (``rates`` only when windowing
        is on; histogram summaries then carry p50/p90/p99/rate too)."""
        counters = {}
        rates = {}
        for (name, _), instrument in sorted(self._counters.items()):
            counters[instrument.key] = instrument.value
            if instrument.window is not None:
                rates[instrument.key] = instrument.window.rate()
        histograms = {
            instrument.key: instrument.as_dict()
            for (name, _), instrument in sorted(self._histograms.items())
        }
        sections = {"counters": counters, "histograms": histograms}
        if self._window is not None:
            sections["rates"] = rates
        return MetricsSnapshot(sections)

    def render(self):
        """Aligned plain-text listing (the REPL's ``:metrics``)."""
        snapshot = self.snapshot()
        if not snapshot["counters"] and not snapshot["histograms"]:
            return "(no metrics recorded)"
        width = max(
            (len(key)
             for section in ("counters", "histograms")
             for key in snapshot[section]),
            default=0,
        )
        lines = []
        for key, value in snapshot["counters"].items():
            lines.append(f"{key:<{width}}  {value}")
        for key, summary in snapshot["histograms"].items():
            mean = summary["mean"]
            rendered_mean = f"{mean:.6g}" if mean is not None else "-"
            line = (
                f"{key:<{width}}  count={summary['count']} "
                f"mean={rendered_mean} min={summary['min']} "
                f"max={summary['max']}"
            )
            if summary.get("p99") is not None:
                line += (f" p50={summary['p50']:.6g}"
                         f" p99={summary['p99']:.6g}")
            lines.append(line)
        return "\n".join(lines)

    def reset(self):
        self._counters.clear()
        self._histograms.clear()

    def __repr__(self):
        return (f"MetricsRegistry(counters={len(self._counters)}, "
                f"histograms={len(self._histograms)})")
