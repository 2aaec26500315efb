"""Unified result types of the federation API.

Historically ``Federation.query`` returned several shapes — a bare
list, a separate partial-answer type, booleans from ``ask`` — and
``update``/``call`` returned the engine-level
:class:`~repro.core.updates.UpdateResult`, so nothing carried the
pipeline's availability, trace, profile or metrics to the caller. Now:

* every ``query`` returns a :class:`QueryResult` — still a ``list`` of
  answers for full compatibility, additionally carrying
  ``availability``, ``stats`` (the last fixpoint run), ``profile``
  (EXPLAIN-style tree), ``trace`` (the root span) and ``metrics`` (the
  *per-request delta* metrics snapshot — only what this request
  recorded, so two concurrent queries never report each other's
  counters; the cumulative registry stays behind
  ``Observability.metrics``);
* every ``update``/``call`` returns this module's :class:`UpdateResult`
  — a subclass of the engine's (so existing ``isinstance`` checks and
  attribute reads keep working) extended with per-member apply
  outcomes, flush status, and the same observability fields.
"""

from __future__ import annotations

from repro.core.updates import UpdateResult as EngineUpdateResult


class QueryResult(list):
    """Query answers plus everything that qualifies them.

    Behaves as the plain list of answers. ``availability`` names the
    members that contributed and the ones that were skipped (and why);
    ``stats`` is the :class:`~repro.core.fixpoint.FixpointStats` of the
    materialization the answer was computed from (None when no views
    are defined); ``profile``/``trace`` expose the span tree when
    tracing is enabled (None otherwise); ``metrics`` is the
    per-request *delta* metrics snapshot: the counters and histogram
    observations this request recorded (worker-thread increments of
    the scatter-gather fan-out included), not the process-wide
    cumulative registry — read that via ``Observability.metrics``.
    """

    __slots__ = ("availability", "stats", "profile", "trace", "metrics")

    def __init__(self, answers, availability=None, stats=None, profile=None,
                 trace=None, metrics=None):
        super().__init__(answers)
        self.availability = availability
        self.stats = stats
        self.profile = profile
        self.trace = trace
        self.metrics = metrics

    @property
    def answers(self):
        """The answers as a plain list (self, copied)."""
        return list(self)

    @property
    def complete(self):
        """True when every member answered fresh (vacuously true for a
        result without an availability report)."""
        return self.availability.complete if self.availability is not None else True

    def __repr__(self):
        qualifier = ""
        if self.availability is not None and not self.complete:
            qualifier = ", partial"
        return f"QueryResult({len(self)} answers{qualifier})"


# Per-member flush outcomes an UpdateResult reports.
APPLIED = "applied"          # translated update flushed to the member
SNAPSHOT_ONLY = "snapshot-only"  # member has no backend to flush to
FAILED = "failed"            # flush raised; the member was marked stale
UNCHANGED = "unchanged"      # the request mutated nothing


class UpdateResult(EngineUpdateResult):
    """Outcome of a federation update: the engine result (inherited —
    ``inserted``/``deleted``/``modified``/``succeeded``/``changed``)
    plus what happened to each member.

    ``member_outcomes`` maps every attached member to ``"applied"``,
    ``"snapshot-only"``, ``"failed"`` or ``"unchanged"``; ``flushed``
    is True when every member with a real backend took the new state.
    ``update_id`` is the monotonic id the write-ahead journal assigned
    to the flush (``None`` when nothing needed flushing).
    ``availability``/``profile``/``trace``/``metrics`` mirror
    :class:`QueryResult`.
    """

    __slots__ = ("member_outcomes", "flushed", "availability", "profile",
                 "trace", "metrics", "update_id")

    def __init__(self, engine_result, member_outcomes=None, flushed=False,
                 availability=None, profile=None, trace=None, metrics=None,
                 update_id=None):
        super().__init__(
            engine_result.substitutions,
            engine_result.inserted,
            engine_result.deleted,
            engine_result.modified,
            delta=engine_result.delta,
        )
        self.member_outcomes = dict(member_outcomes or {})
        self.flushed = flushed
        self.availability = availability
        self.profile = profile
        self.trace = trace
        self.metrics = metrics
        self.update_id = update_id

    def __repr__(self):
        return (
            f"UpdateResult(answers={len(self.substitutions)}, "
            f"inserted={self.inserted}, deleted={self.deleted}, "
            f"modified={self.modified}, flushed={self.flushed}, "
            f"members={self.member_outcomes})"
        )
