"""Per-query profiles: the trace rendered as an EXPLAIN-style tree.

A :class:`QueryProfile` wraps the root span of one ``Federation.query``
/ ``update`` / ``call`` and exposes the numbers a user asks for first:
the evaluator's node-visit counters (finally reachable from the result
object instead of dying inside ``EvalContext``), the fixpoint work per
stratum, and a rendering that reads like a database EXPLAIN plan::

    federation.query  [answers=12 on_unavailable=fail]  (2.31 ms)
    ├─ engine.query  [answers=12]  (2.20 ms)
    │  ├─ fixpoint.materialize  [method=seminaive strata=2]  (1.61 ms)
    │  │  ├─ fixpoint.stratum  [index=0 rounds=1 ...]  (0.90 ms)
    │  │  └─ fixpoint.stratum  [index=1 rounds=1 ...]  (0.62 ms)
    │  └─ engine.evaluate  [answers=12 visits=345 ...]  (0.48 ms)
    └─ ...
"""

from __future__ import annotations


def index_stats(*counts):
    """The ``index.<kind>`` entries of ``counts`` (span attributes or
    profile counters), summed, as ``{"builds": n, "hits": n, "misses": n,
    "fallbacks": n}``; see ``docs/performance.md`` for how to read them."""
    return {kind: sum(each.get(f"index.{kind}", 0) for each in counts)
            for kind in ("builds", "hits", "misses", "fallbacks")}


class QueryProfile:
    """The profile of one query/update, built from its root span."""

    __slots__ = ("trace",)

    def __init__(self, trace):
        self.trace = trace

    @property
    def counters(self):
        """Evaluator node-visit counters, merged across every
        ``engine.evaluate`` span of the trace (``{}`` when profiling
        was off)."""
        merged = {}
        if self.trace is None:
            return merged
        for span in self.trace.find_all("engine.evaluate"):
            for kind, count in span.attributes.get("counters", {}).items():
                merged[kind] = merged.get(kind, 0) + count
        return merged

    @property
    def index_stats(self):
        """:func:`index_stats` summed over every ``engine.query`` span
        (zeros without a trace)."""
        spans = self.trace.find_all("engine.query") if self.trace else ()
        return index_stats(*(span.attributes for span in spans))

    @property
    def strata(self):
        """Attribute dicts of every ``fixpoint.stratum`` span, in
        evaluation order (empty when the materialization was cached)."""
        if self.trace is None:
            return []
        return [
            dict(span.attributes)
            for span in self.trace.find_all("fixpoint.stratum")
        ]

    @property
    def maintenance(self):
        """Attribute dicts of every ``fixpoint.maintain`` span — one per
        in-place view repair in this trace (empty when no update was
        maintained). Each carries ``strata``/``repaired``/``counting``
        /``dred``/``fallbacks``/``seeded``/``overdeleted``/``rederived``."""
        if self.trace is None:
            return []
        return [
            dict(span.attributes)
            for span in self.trace.find_all("fixpoint.maintain")
        ]

    @property
    def duration_ms(self):
        return self.trace.duration_ms if self.trace is not None else None

    def render(self):
        """The EXPLAIN-style tree (see the module docstring)."""
        if self.trace is None:
            return "(no trace recorded)"
        return self.trace.render()

    def __repr__(self):
        root = self.trace.name if self.trace is not None else None
        return f"QueryProfile(root={root!r}, counters={self.counters!r})"
