"""Member connectors: the transport between federation and member.

A :class:`MemberConnector` is how the federation reaches one autonomous
member database — three operations only:

* ``scan()`` — snapshot the member's relations as ``{rel: rows}``;
* ``apply(change)`` — apply a
  :class:`~repro.multidb.changes.MemberChange` (or make the member hold
  a full ``{rel: rows}`` state), transactionally where the member
  supports it;
* ``ping()`` — cheap liveness check.

:class:`InMemoryConnector` serves plain row data, and
:class:`StorageConnector` fronts a
:class:`~repro.storage.database.StorageDatabase`.
:class:`FaultyConnector` decorates any of them with injectable faults —
latency, transient errors, permanent outages, torn writes — all
deterministic (seeded RNG, explicit fail counters, manual clock) so
fault-tolerance tests and benchmarks are reproducible.
"""

from __future__ import annotations

import copy
import itertools
import random
import threading

from repro.errors import MemberUnavailableError
from repro.multidb.changes import apply_change, as_change, torn_change


class MemberConnector:
    """Abstract transport to one autonomous member database."""

    def scan(self):
        """Snapshot the member: ``{relation_name: [row_dict, ...]}``."""
        raise NotImplementedError

    def apply(self, change):
        """Apply ``change`` (:mod:`repro.multidb.changes`): replace
        relations, then delete each row if present, then insert each row
        if absent, so applying a change twice is applying it once. A
        plain ``{rel: rows}`` state is the full change: the member ends
        holding exactly that state."""
        raise NotImplementedError

    def ping(self):
        """Cheap liveness check; raises when the member is unreachable."""
        return True


class InMemoryConnector(MemberConnector):
    """A member that is just rows in this process's memory.

    Thread-safe: hedged scans may read while an apply changes the
    state, so reads and applies run under a lock (the copy of the
    incoming change is made outside it).
    """

    def __init__(self, relations=None):
        self._relations = copy.deepcopy(dict(relations or {}))
        self._lock = threading.Lock()

    def scan(self):
        with self._lock:
            return copy.deepcopy(self._relations)

    def apply(self, change):
        # Copied as plain data: deep-copying the MemberChange subclass
        # itself goes through copy's slower generic reconstruction.
        change = copy.deepcopy(dict(as_change(change)))
        with self._lock:
            apply_change(self._relations, change)

    def rows(self, relation):
        with self._lock:
            return list(self._relations.get(relation, []))


class StorageConnector(MemberConnector):
    """A member running on the relational storage substrate.

    ``apply`` is atomic: the whole change runs inside one storage
    :class:`~repro.storage.transaction.Transaction`, so a failure
    injected (or occurring) mid-apply aborts and leaves the member
    exactly as it was — never half-changed.
    """

    def __init__(self, storage):
        self.storage = storage

    def scan(self):
        from repro.multidb.adapters import storage_to_relations

        return storage_to_relations(self.storage)

    def apply(self, change):
        from repro.multidb.adapters import apply_change_to_storage

        with self.storage.begin():
            apply_change_to_storage(self.storage, as_change(change))

    def ping(self):
        self.storage.relation_names()
        return True


#: Auto-assigned fault-stream ids: every FaultyConnector constructed
#: without an explicit ``stream`` takes the next one, so two connectors
#: sharing a ``seed`` still draw from *independent* RNG streams.
_fault_streams = itertools.count()


class FaultyConnector(MemberConnector):
    """Decorator that injects faults into any inner connector.

    Fault sources, all deterministic:

    * ``failure_rate`` — each operation fails with this probability,
      drawn from a per-instance RNG keyed by ``(seed, stream)``
      (transient errors). ``stream`` defaults to the next value of a
      process-wide counter so sibling connectors built with the same
      ``seed`` never share a fault schedule; pass an explicit
      ``stream`` for schedules that must be reproducible across
      processes (CI chaos runs);
    * ``fail_next(n)`` — the next ``n`` operations fail (scripted
      schedules);
    * ``set_outage(True)`` — every operation fails until
      ``restore()`` (permanent outage);
    * ``latency`` — each operation first sleeps on the injected
      ``clock`` (pairs with policy deadlines; use a
      :class:`~repro.multidb.resilience.FakeClock` to keep tests
      instant);
    * ``torn_writes=True`` — a failing ``apply`` first writes half of
      the change's row operations to the inner connector
      (:func:`~repro.multidb.changes.torn_change`), simulating a member
      without transactional flush.

    Counters (``calls``, ``injected``) expose what actually happened.
    When ``obs`` is set (directly, or shared down by the enclosing
    :class:`~repro.multidb.resilience.ResilientConnector`), every
    injected latency and fault is also recorded as an event on the
    currently-open span, so traces show *why* an attempt failed.
    """

    def __init__(self, inner, failure_rate=0.0, latency=0.0, seed=0,
                 clock=None, outage=False, torn_writes=False, stream=None,
                 obs=None):
        self.inner = inner
        self.failure_rate = failure_rate
        self.latency = latency
        self.clock = clock
        self.outage = outage
        self.torn_writes = torn_writes
        self.obs = obs
        self.calls = 0
        self.injected = 0
        self._fail_next = 0
        self.stream = next(_fault_streams) if stream is None else stream
        self._rng = random.Random(f"{seed}/{self.stream}")
        # Counters, the scripted-failure budget, and the RNG are shared
        # by whichever worker threads hit this connector; the injected
        # sleep itself happens outside the lock.
        self._lock = threading.Lock()

    # -- fault scripting ------------------------------------------------

    def fail_next(self, n=1):
        """Script the next ``n`` operations to fail."""
        with self._lock:
            self._fail_next += n
        return self

    def set_outage(self, down=True):
        self.outage = down
        return self

    def restore(self):
        """Clear the outage and any scripted failures (the member is
        healthy again; ``failure_rate`` stays as configured)."""
        with self._lock:
            self.outage = False
            self._fail_next = 0
        return self

    # -- fault injection ------------------------------------------------

    def _enter(self, op):
        with self._lock:
            self.calls += 1
        if self.latency and self.clock is not None:
            self.clock.sleep(self.latency)
            self._span_event("fault.latency", op=op, seconds=self.latency)
        if self.outage:
            self._injected(op, "member is down")
        with self._lock:
            if self._fail_next > 0:
                self._fail_next -= 1
                why = "scripted failure"
            elif self.failure_rate and self._rng.random() < self.failure_rate:
                why = "transient failure"
            else:
                why = None
        if why is not None:
            self._injected(op, why)

    def _injected(self, op, why):
        with self._lock:
            self.injected += 1
        self._span_event("fault.injected", op=op, why=why)
        raise MemberUnavailableError(f"injected fault during {op}: {why}")

    def _span_event(self, name, **attributes):
        if self.obs is None:
            return
        span = self.obs.tracer.current
        if span is not None:
            span.event(name, **attributes)

    # -- the connector surface ------------------------------------------

    def scan(self):
        self._enter("scan")
        return self.inner.scan()

    def apply(self, change):
        change = as_change(change)
        try:
            self._enter("apply")
        except MemberUnavailableError:
            if self.torn_writes:
                self.inner.apply(torn_change(change))
            raise
        self.inner.apply(change)

    def ping(self):
        self._enter("ping")
        return self.inner.ping()


def _as_connector(relations=None, storage=None, connector=None):
    """Normalize the three ways a member can be specified into one
    connector (explicit connector wins; then storage; then rows)."""
    if connector is not None:
        return connector
    if storage is not None:
        return StorageConnector(storage)
    return InMemoryConnector(relations or {})
