"""Hierarchical span tracing for the federation pipeline.

A :class:`Span` is one timed step of answering a query or applying an
update — ``federation.query``, ``fixpoint.stratum``, ``connector.apply``
— with structured attributes (fact counts, strategy, member name),
point-in-time events (retries, circuit transitions) and child spans.
A :class:`Tracer` maintains the active-span stack so the layers of the
pipeline (federation facade, engine, fixpoint, connectors) nest their
spans without threading a context object through every call.

Spans are also the only place the engine and fixpoint count their
work: :data:`~repro.obs.metrics.SPAN_METRICS` derives metrics from
them. Tracing off, a :class:`NoopTracer` hands out the stateless,
no-op :data:`NOOP_SPAN`, except for the names in that table, which get
a minimal counting span so metrics stay on (benchmark B3 asserts the
disabled path costs under 5%).

Production traffic cannot afford a full tree per request either, so an
enabled tracer *samples*: a head-based coin flip per root span
(``sample_rate``) decides whether the finished trace is exported, with
two tail escapes that always keep a trace regardless of the flip —
roots that saw an error, and roots slower than ``slow_threshold_ms``.
Spans are still *built* for sampled-out traces (the escapes need the
finished tree to decide, and the slow-query log wants the worst roots
either way); only the export is skipped, and ``obs.trace.dropped.*`` /
``obs.trace.kept.*`` counters account for every decision. A per-trace
:class:`TraceLimits` budget hard-caps spans, events and attributes so
one pathological request cannot balloon its trace (benchmark B18
guards the whole pipeline's overhead at < 5%).

The active-span stack is *thread-local*: the engine still evaluates one
statement at a time, but the federation's scatter-gather executor (see
:mod:`repro.multidb.executor`) runs member I/O on worker threads, each
of which needs its own nesting context. A worker inherits the parent
span explicitly with :meth:`Tracer.adopt`, so connector spans opened on
a worker thread still land under the ``scatter-gather`` span that
dispatched them. The executor pre-attaches those member spans on the
dispatching thread through :meth:`Tracer.child_span`, which charges the
trace's span budget and returns None once it is exhausted. Appending a
child to a span shared across threads is safe (list appends are atomic
under the GIL); everything else about a span is only touched by the
thread that opened it.
"""

from __future__ import annotations

import heapq
import random
import threading
import time
from contextlib import contextmanager

from repro.obs.metrics import SPAN_METRICS

#: Per span name, the attributes the metrics fold reads: the attribute
#: cap never drops these.
_FOLDED = {
    name: frozenset(attribute for attribute, _ in sums)
    for name, (_, sums, _) in SPAN_METRICS.items()
}


class TraceLimits:
    """Hard caps applied per trace (per root span): how many spans the
    whole tree may hold, and how many events / distinct attributes any
    single span may carry (attributes the metrics fold reads are always
    kept). Overflow is dropped silently at the data level and loudly at
    the metrics level (``obs.trace.dropped.*``)."""

    __slots__ = ("max_spans", "max_events", "max_attributes")

    def __init__(self, max_spans=512, max_events=128, max_attributes=64):
        if max_spans < 1:
            raise ValueError(f"max_spans must be >= 1, got {max_spans!r}")
        if max_events < 0 or max_attributes < 0:
            raise ValueError("max_events / max_attributes must be >= 0")
        self.max_spans = int(max_spans)
        self.max_events = int(max_events)
        self.max_attributes = int(max_attributes)

    def __repr__(self):
        return (f"TraceLimits(max_spans={self.max_spans}, "
                f"max_events={self.max_events}, "
                f"max_attributes={self.max_attributes})")


class _TraceBudget:
    """One trace's running totals against its :class:`TraceLimits`,
    plus the head-sampling verdict and the error flag the tail escapes
    read at root close. Shared by every span of the trace, including
    spans opened on executor worker threads — hence the lock."""

    __slots__ = ("limits", "sampled", "error", "spans", "_lock")

    def __init__(self, limits, sampled=True):
        self.limits = limits
        self.sampled = sampled
        self.error = False
        self.spans = 0
        self._lock = threading.Lock()

    def take_span(self):
        """Reserve room for one more span; False when the cap is hit."""
        with self._lock:
            if self.spans >= self.limits.max_spans:
                return False
            self.spans += 1
            return True


class Span:
    """One timed, attributed step; a node of the trace tree.

    Use as a context manager::

        with tracer.span("fixpoint.stratum", index=0) as span:
            ...
            span.set("rounds", rounds)
            span.event("delta-drained", round=3)

    ``start``/``end`` come from the tracer's clock (``perf_counter``
    seconds); ``duration_ms`` is derived. Entering a span parents it
    under the tracer's current span and makes it current.
    """

    __slots__ = ("name", "attributes", "events", "children", "start",
                 "end", "_tracer", "_budget")

    def __init__(self, name, attributes, tracer):
        self.name = name
        self.attributes = dict(attributes)
        self.events = []
        self.children = []
        self.start = None
        self.end = None
        self._tracer = tracer
        self._budget = None

    # -- lifecycle ----------------------------------------------------

    def __enter__(self):
        self._tracer._enter(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc is not None:
            self.attributes.setdefault("error", type(exc).__name__)
            if self._budget is not None:
                self._budget.error = True
        self._tracer._exit(self, failed=exc is not None)
        return False

    # -- recording ----------------------------------------------------

    def set(self, key, value):
        """Attach (or overwrite) one structured attribute."""
        budget = self._budget
        if (budget is not None
                and key not in self.attributes
                and len(self.attributes) >= budget.limits.max_attributes
                and key not in _FOLDED.get(self.name, ())):
            self._tracer._drop("attributes")
            return self
        self.attributes[key] = value
        if key == "error" and budget is not None:
            budget.error = True
        return self

    def event(self, name, **attributes):
        """Record a point-in-time event inside this span."""
        budget = self._budget
        if (budget is not None
                and len(self.events) >= budget.limits.max_events):
            self._tracer._drop("events")
            return self
        self.events.append((name, attributes))
        return self

    # -- reading ------------------------------------------------------

    @property
    def duration(self):
        """Elapsed seconds, or None while the span is still open."""
        if self.start is None or self.end is None:
            return None
        return self.end - self.start

    @property
    def duration_ms(self):
        elapsed = self.duration
        return None if elapsed is None else elapsed * 1000.0

    def walk(self):
        """Yield this span and every descendant, depth first."""
        yield self
        for child in self.children:
            for span in child.walk():
                yield span

    def find(self, name):
        """First span (self included, depth first) with this name."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def find_all(self, name):
        return [span for span in self.walk() if span.name == name]

    def tree(self):
        """The span tree as nested ``(name, [children])`` pairs — the
        shape golden tests pin down (no timings, no attributes)."""
        return (self.name, [child.tree() for child in self.children])

    def as_dict(self):
        """JSON-ready representation (used by the exporters)."""
        return {
            "name": self.name,
            "start": self.start,
            "duration_ms": self.duration_ms,
            "attributes": self.attributes,
            "events": [
                {"name": name, "attributes": attributes}
                for name, attributes in self.events
            ],
            "children": [child.as_dict() for child in self.children],
        }

    def render(self, indent=""):
        """EXPLAIN-style tree rendering of this span and its subtree."""
        lines = [indent + self._line()] if not indent else [self._line()]
        self._render_children(lines, indent)
        return "\n".join(lines)

    def _line(self):
        parts = [self.name]
        if self.attributes:
            rendered = " ".join(
                f"{key}={_format_value(value)}"
                for key, value in sorted(self.attributes.items())
            )
            parts.append(f"[{rendered}]")
        if self.duration is not None:
            parts.append(f"({self.duration_ms:.2f} ms)")
        return "  ".join(parts)

    def _render_children(self, lines, indent):
        entries = [("event", event) for event in self.events]
        entries += [("span", child) for child in self.children]
        for position, (kind, entry) in enumerate(entries):
            last = position == len(entries) - 1
            branch = "└─ " if last else "├─ "
            extension = "   " if last else "│  "
            if kind == "event":
                name, attributes = entry
                rendered = " ".join(
                    f"{key}={_format_value(value)}"
                    for key, value in sorted(attributes.items())
                )
                suffix = f"  [{rendered}]" if rendered else ""
                lines.append(f"{indent}{branch}* {name}{suffix}")
            else:
                lines.append(f"{indent}{branch}{entry._line()}")
                entry._render_children(lines, indent + extension)

    def __repr__(self):
        return (f"Span({self.name!r}, children={len(self.children)}, "
                f"attributes={self.attributes!r})")


def _format_value(value):
    if isinstance(value, float):
        return f"{value:g}"
    if isinstance(value, dict):
        inner = ", ".join(
            f"{key}={_format_value(item)}" for key, item in sorted(value.items())
        )
        return "{" + inner + "}"
    if isinstance(value, (set, frozenset)):
        value = sorted(value, key=str)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_format_value(item) for item in value) + "]"
    return str(value)


class _NoopSpan:
    """The disabled-tracing span: every operation is a no-op. A single
    stateless instance is shared by every caller (re-entrant)."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False

    def set(self, key, value):
        return self

    def event(self, name, **attributes):
        return self

    @property
    def duration(self):
        return None

    duration_ms = duration

    def walk(self):
        return iter(())

    def find(self, name):
        return None

    def find_all(self, name):
        return []

    def tree(self):
        return None

    def as_dict(self):
        return {}

    def render(self, indent=""):
        return "(tracing disabled)"

    def __repr__(self):
        return "NoopSpan()"


NOOP_SPAN = _NoopSpan()


class Tracer:
    """Creates spans and maintains the active-span stack.

    ``on_finish`` is called with every finished, *kept* root span — the
    hook the exporters attach to. ``clock`` defaults to
    :func:`time.perf_counter`.

    Sampling and limits (all off by default, so a bare ``Tracer()``
    behaves exactly as before):

    * ``sample_rate`` — probability a root span is kept (head-based,
      decided when the root opens; ``rng`` injects the randomness for
      tests);
    * ``slow_threshold_ms`` — roots at least this slow are kept even
      when sampled out (tail escape), as are roots with an ``error``
      attribute anywhere in their handling;
    * ``limits`` — per-trace :class:`TraceLimits`;
    * ``on_drop`` — called with sampled-out finished roots (the
      observability layer routes them to the slow-query log and SLO
      tracker, which must see *every* request);
    * ``metrics`` — registry that folds every span closing without an
      exception, and counts ``obs.trace.dropped.*`` / ``kept.*``.
    """

    enabled = True

    def __init__(self, clock=None, on_finish=None, sample_rate=1.0,
                 slow_threshold_ms=None, limits=None, metrics=None,
                 rng=None, on_drop=None):
        self.clock = clock if clock is not None else time.perf_counter
        self.on_finish = on_finish
        self.on_drop = on_drop
        self.sample_rate = float(sample_rate)
        if not 0.0 <= self.sample_rate <= 1.0:
            raise ValueError(
                f"sample_rate must be in [0, 1], got {sample_rate!r}"
            )
        self.slow_threshold_ms = slow_threshold_ms
        self.limits = limits if limits is not None else TraceLimits()
        self.metrics = metrics
        self.rng = rng if rng is not None else random.random
        self._local = threading.local()

    @property
    def _stack(self):
        """This thread's active-span stack (created on first use)."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name, **attributes):
        """A new span, parented under the current one when entered."""
        return Span(name, attributes, self)

    def child_span(self, parent, name, **attributes):
        """A span pre-attached under ``parent`` without entering it —
        how the scatter-gather executor materializes one member span
        per task on the dispatching thread (deterministic tree order)
        before the workers time them. Charges the parent trace's span
        budget; returns None when the budget is exhausted, so callers
        must guard (the executor simply skips per-member tracing
        then)."""
        if parent is None or isinstance(parent, _NoopSpan):
            return None
        budget = parent._budget
        if budget is not None and not budget.take_span():
            self._drop("spans")
            return None
        span = Span(name, attributes, self)
        span._budget = budget
        parent.children.append(span)
        return span

    @contextmanager
    def adopt(self, span):
        """Make ``span`` (opened on another thread) this thread's
        current span for the duration of the block.

        The scatter-gather executor uses this so spans a worker thread
        opens nest under the dispatching span instead of becoming
        roots. The adopted span is not re-timed and ``on_finish`` never
        fires for it here — only the owning thread closes it.
        """
        if span is None:
            yield None
            return
        stack = self._stack
        stack.append(span)
        try:
            yield span
        finally:
            if stack and stack[-1] is span:
                stack.pop()

    @property
    def current(self):
        """The innermost open span, or None outside any span."""
        stack = self._stack
        return stack[-1] if stack else None

    # -- span lifecycle (called by Span) --------------------------------

    def _enter(self, span):
        parent = self.current
        if parent is None:
            span._budget = _TraceBudget(self.limits, sampled=self._sample())
            span._budget.take_span()
        else:
            budget = parent._budget
            span._budget = budget
            if budget is not None and not budget.take_span():
                # Over the span cap: keep the nesting context (the
                # stack) intact but leave the span out of the tree.
                self._drop("spans")
            else:
                parent.children.append(span)
        self._stack.append(span)
        span.start = self.clock()

    def _exit(self, span, failed=False):
        span.end = self.clock()
        # Tolerate mispaired exits rather than corrupting the stack.
        while self._stack and self._stack[-1] is not span:
            self._stack.pop()
        if self._stack:
            self._stack.pop()
        # Sampled-out spans and spans over the limits close here too.
        if not failed and self.metrics is not None:
            self.metrics.fold(span)
        if not self._stack:
            self._finish_root(span)

    def _finish_root(self, span):
        budget = span._budget
        kept = True
        if budget is not None and not budget.sampled:
            duration = span.duration_ms
            if budget.error:
                self._count("obs.trace.kept.error")
            elif (self.slow_threshold_ms is not None and duration is not None
                    and duration >= self.slow_threshold_ms):
                self._count("obs.trace.kept.slow")
            else:
                kept = False
                self._count("obs.trace.dropped.sampled")
        if kept:
            if self.on_finish is not None:
                self.on_finish(span)
        elif self.on_drop is not None:
            self.on_drop(span)

    def _sample(self):
        if self.sample_rate >= 1.0:
            return True
        if self.sample_rate <= 0.0:
            return False
        return self.rng() < self.sample_rate

    # -- accounting ----------------------------------------------------

    def _drop(self, kind):
        self._count(f"obs.trace.dropped.{kind}")

    def _count(self, name):
        if self.metrics is not None:
            self.metrics.counter(name).inc()


class _CountingSpan:
    """A tracing-off span: only the attributes and the duration the
    metrics fold reads — no tree, no events."""

    __slots__ = ("name", "attributes", "metrics", "start", "duration_ms")

    def __init__(self, name, attributes, metrics):
        self.name = name
        self.attributes = attributes
        self.metrics = metrics

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc is None:
            self.duration_ms = (time.perf_counter() - self.start) * 1000.0
            self.metrics.fold(self)
        return False

    def set(self, key, value):
        self.attributes[key] = value
        return self

    def event(self, name, **attributes):
        return self


class NoopTracer:
    """The disabled tracer: counting spans feeding ``metrics`` for the
    names in :data:`~repro.obs.metrics.SPAN_METRICS`, :data:`NOOP_SPAN`
    for the rest. :data:`NOOP_TRACER` has no registry and hands out
    nothing but :data:`NOOP_SPAN`."""

    enabled = False
    current = None

    def __init__(self, metrics=None):
        self.metrics = metrics

    def span(self, name, **attributes):
        if self.metrics is None or name not in SPAN_METRICS:
            return NOOP_SPAN
        return _CountingSpan(name, attributes, self.metrics)


NOOP_TRACER = NoopTracer()


class SlowQueryLog:
    """Bounded log of the worst (slowest) finished root spans.

    A min-heap of ``capacity`` entries keyed by duration: a finished
    root only displaces the current fastest entry when it is slower, so
    the expensive part (rendering the trace tree) is skipped for the
    common fast request. ``threshold_ms`` optionally ignores roots
    faster than the bar entirely. Sees *every* root — sampled-out ones
    included — because the slowest requests are exactly the ones head
    sampling is most likely to have dropped.
    """

    __slots__ = ("capacity", "threshold_ms", "_heap", "_seq", "_lock")

    def __init__(self, capacity=16, threshold_ms=None):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
        self.capacity = int(capacity)
        self.threshold_ms = threshold_ms
        self._heap = []
        self._seq = 0
        self._lock = threading.Lock()

    def record(self, span):
        duration = span.duration_ms
        if duration is None:
            return False
        if self.threshold_ms is not None and duration < self.threshold_ms:
            return False
        with self._lock:
            if (len(self._heap) >= self.capacity
                    and duration <= self._heap[0][0]):
                return False
            self._seq += 1
            entry = (duration, self._seq, {
                "name": span.name,
                "duration_ms": duration,
                "attributes": dict(span.attributes),
                "spans": sum(1 for _ in span.walk()),
                "rendered": span.render(),
                "recorded_at": time.time(),
            })
            if len(self._heap) >= self.capacity:
                heapq.heapreplace(self._heap, entry)
            else:
                heapq.heappush(self._heap, entry)
        return True

    def entries(self):
        """The retained entries, slowest first (JSON-ready dicts)."""
        with self._lock:
            ordered = sorted(self._heap, reverse=True)
        return [entry for _, _, entry in ordered]

    def render(self):
        """Plain-text listing for the REPL's ``:slow``."""
        entries = self.entries()
        if not entries:
            return "(slow-query log is empty)"
        blocks = []
        for rank, entry in enumerate(entries, start=1):
            blocks.append(
                f"#{rank}  {entry['name']}  {entry['duration_ms']:.2f} ms  "
                f"({entry['spans']} spans)\n{entry['rendered']}"
            )
        return "\n\n".join(blocks)

    def clear(self):
        with self._lock:
            self._heap.clear()

    def __len__(self):
        return len(self._heap)

    def __repr__(self):
        return (f"SlowQueryLog({len(self._heap)}/{self.capacity} entries, "
                f"threshold_ms={self.threshold_ms})")
