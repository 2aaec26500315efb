"""Crash-schedule explorer for the journaled update protocol.

Where ``test_chaos.py`` crashes one flush and recovers cleanly, this
module enumerates small schedules exhaustively, recovery included. The
scope is three members, one per schema style, and two updates: an
``insStk`` of one key, then a ``delStk`` of the same key. A schedule
picks:

* where the first process dies: any crash index in either flush, torn
  (the journal line being appended is half-written) or clean, or not
  at all;
* at restart, a subset of members unreachable during ``recover()`` and
  how: their apply fails cleanly, their apply fails after a torn write
  (``FaultyConnector(torn_writes=True)``), or they are down from
  ``install()`` on (quarantined);
* any crash index inside that ``recover()``, torn or clean.

Invariants, checked in every reached state:

* each member holds a state of the update sequence, never a mix; the
  one exception is a member that took a torn write, and the journal
  must still owe that member its update;
* a member the journal owes nothing holds the state of the last
  update whose intent is durable;
* after the unreachable members come back and are probed, and again
  after a final clean restart and ``recover()``, every member holds
  that state, the federation's snapshot of it agrees, and nothing is
  pending;
* a second ``recover()`` is a no-op.

A failing check names its schedule, which replays it. The tier-1 scope
covers each dimension in full against the others at their defaults,
serial and parallel; the ``slow`` scope runs the whole product (it is
selected with ``-m slow`` or ``-m chaos``; see ``conftest.py``).
"""

from __future__ import annotations

import itertools
import json
import os
import time
from typing import NamedTuple, Optional, Tuple

import pytest

from repro.multidb import (
    CrashInjector,
    CrashPoint,
    FaultyConnector,
    Federation,
    FederationConfig,
    InMemoryConnector,
    InMemoryJournal,
    ResiliencePolicy,
)
from repro.multidb.adapters import universe_rows
from repro.multidb.resilience import FakeClock
from repro.workloads.stocks import StockWorkload

pytestmark = pytest.mark.chaos

STYLES = ("euter", "chwab", "ource")

#: The update sequence: the second update deletes what the first added.
UPDATES = (
    ("insStk", {"stk": "nova", "date": "9/9/99", "price": 7.0}),
    ("delStk", {"stk": "nova", "date": "9/9/99"}),
)

#: How an unreachable member fails during ``recover()``.
FAILS_CLEANLY, TORN_WRITE, QUARANTINED = "apply-fails", "torn-write", \
    "quarantined"
UNREACHABLE_MODES = (FAILS_CLEANLY, TORN_WRITE, QUARANTINED)

WORKLOAD = StockWorkload(n_stocks=2, n_days=2, seed=13)
POLICY = ResiliencePolicy(max_attempts=1, failure_threshold=100, jitter=0.0)


class Schedule(NamedTuple):
    parallel: str
    flush_crash: Optional[int] = None
    flush_torn: bool = False
    unreachable: Tuple[str, ...] = ()
    mode: str = FAILS_CLEANLY
    recover_crash: Optional[int] = None
    recover_torn: bool = False

    def __str__(self):
        return (
            f"Schedule(parallel={self.parallel!r}, "
            f"flush_crash={self.flush_crash}, flush_torn={self.flush_torn}, "
            f"unreachable={self.unreachable}, mode={self.mode!r}, "
            f"recover_crash={self.recover_crash}, "
            f"recover_torn={self.recover_torn})"
        )


def canon(relations):
    return {
        rel: sorted(json.dumps(row, sort_keys=True) for row in rows)
        for rel, rows in relations.items()
    }


def build(connectors, buffer, parallel, crash=None, quarantined=()):
    """A federation over the member connectors and a journal reopened
    over ``buffer``; members in ``quarantined`` are down through
    ``install()``. Returns ``(federation, faulty connectors)``."""
    clock = FakeClock()
    faulty = {
        style: FaultyConnector(connectors[style], clock=clock,
                               outage=style in quarantined)
        for style in STYLES
    }
    federation = Federation.from_config(FederationConfig(
        journal=InMemoryJournal(buffer=buffer), crash=crash,
        parallel=parallel,
    ))
    for style in STYLES:
        federation.add_member(style, style, connector=faulty[style],
                              policy=POLICY, clock=clock)
    federation.install()
    return federation, faulty


def states_of(connectors):
    return {style: canon(connectors[style].scan()) for style in STYLES}


class Explorer:
    """Runs schedules and checks the invariants in every state they
    reach; ``reached`` collects the distinct states seen."""

    def __init__(self, parallel):
        self.parallel = parallel
        self.reached = set()
        self.runs = 0
        # Schedules in which a failed apply still changed a member: a
        # torn write landed. (Here each torn state equals another state
        # of the sequence, so only this count shows they happen.)
        self.torn_writes = 0
        self._first_process = {}
        connectors = self.fresh_connectors()
        self.sequence = [states_of(connectors)]
        crash = CrashInjector()
        federation, _ = build(connectors, [], parallel, crash=crash)
        crash.sites.clear()
        self.intent_sites = []
        for program, args in UPDATES:
            self.intent_sites.append(len(crash.sites))
            federation.call(program, **args)
            self.sequence.append(states_of(connectors))
        self.flush_sites = list(crash.sites)
        assert len(self.sequence) == len(UPDATES) + 1

    @staticmethod
    def fresh_connectors():
        return {style: InMemoryConnector(WORKLOAD.relations_for(style))
                for style in STYLES}

    # -- the schedule space ----------------------------------------------

    def flush_crashes(self):
        """Every first-process death: each crash index in either flush,
        torn only where a journal line is being appended (a torn visit
        of an apply site is a clean crash), plus no crash at all."""
        yield None, False
        for index, site in enumerate(self.flush_sites):
            yield index, False
            if site == "journal.append":
                yield index, True

    @staticmethod
    def unreachable_choices():
        """Every subset of members and how they fail; install needs one
        member to attach, so not all three are quarantined."""
        yield (), FAILS_CLEANLY
        for size in range(1, len(STYLES) + 1):
            for subset in itertools.combinations(STYLES, size):
                for mode in UNREACHABLE_MODES:
                    if mode != QUARANTINED or size < len(STYLES):
                        yield subset, mode

    def durable(self, flush_crash):
        """How many updates have a durable intent after the crash."""
        if flush_crash is None:
            return len(UPDATES)
        return sum(1 for site in self.intent_sites if site < flush_crash)

    # -- one schedule ----------------------------------------------------

    def first_process(self, flush_crash, flush_torn):
        """Member states and journal lines after the first process runs
        the updates and dies (memoized: every restart branches from a
        copy)."""
        key = (flush_crash, flush_torn)
        if key not in self._first_process:
            connectors = self.fresh_connectors()
            buffer = []
            crash = CrashInjector()
            if flush_crash is not None:
                crash.arm(flush_crash, torn=flush_torn)
            federation, _ = build(connectors, buffer, self.parallel,
                                  crash=crash)
            for program, args in UPDATES:
                try:
                    federation.call(program, **args)
                except CrashPoint:
                    break
            self._first_process[key] = (
                {style: connectors[style].scan() for style in STYLES},
                list(buffer),
            )
        states, buffer = self._first_process[key]
        connectors = {style: InMemoryConnector(states[style])
                      for style in STYLES}
        return connectors, list(buffer)

    def run(self, schedule):
        """Run one schedule and check every state it reaches; returns
        whether the crash armed inside ``recover()`` fired."""
        self.runs += 1
        target = self.sequence[self.durable(schedule.flush_crash)]
        connectors, buffer = self.first_process(schedule.flush_crash,
                                                schedule.flush_torn)
        self.check_sequence(schedule, "after the first process died",
                            connectors, buffer, target)

        # Restart with the schedule's members unreachable in recover().
        quarantined = (schedule.unreachable
                       if schedule.mode == QUARANTINED else ())
        crash = CrashInjector()
        federation, faulty = build(connectors, buffer, self.parallel,
                                   crash=crash, quarantined=quarantined)
        for style in schedule.unreachable:
            faulty[style].torn_writes = schedule.mode == TORN_WRITE
            faulty[style].set_outage(True)
        if schedule.recover_crash is not None:
            crash.arm(schedule.recover_crash, torn=schedule.recover_torn)
        before = states_of(connectors)
        fired = False
        try:
            federation.recover()
        except CrashPoint:
            fired = True
        after = states_of(connectors)
        if schedule.mode == TORN_WRITE and any(
                before[style] != after[style]
                for style in schedule.unreachable):
            self.torn_writes += 1
        crash.disarm()  # the crash index counts recover()'s operations only
        self.check_sequence(schedule, "after recover()", connectors, buffer,
                            target)

        if not fired:
            # The unreachable members come back; probing them resyncs
            # (push) or re-attaches (with the journal's replay) them.
            for style in schedule.unreachable:
                faulty[style].restore()
                assert federation.probe(style), \
                    f"{schedule}: probe({style!r}) failed after restore"
            self.check_converged(schedule, "after the probes", federation,
                                 connectors, target)

        # A final clean restart and recovery.
        final, _ = build(connectors, buffer, self.parallel)
        final.recover()
        self.check_converged(schedule, "after the final recovery", final,
                             connectors, target)
        return fired

    # -- invariants ------------------------------------------------------

    def record(self, connectors, buffer):
        owed = sorted(
            (update.update_id, tuple(update.remaining))
            for update in InMemoryJournal(buffer=list(buffer)).pending()
        )
        self.reached.add((
            json.dumps(states_of(connectors), sort_keys=True),
            tuple(owed),
        ))
        return {member for _, members in owed for member in members}

    def check_sequence(self, schedule, when, connectors, buffer, target):
        owed = self.record(connectors, buffer)
        states = states_of(connectors)
        for style in STYLES:
            held = states[style]
            if held not in [state[style] for state in self.sequence]:
                assert (schedule.mode == TORN_WRITE
                        and style in schedule.unreachable
                        and style in owed), (
                    f"{schedule}: member {style!r} holds a mixed state "
                    f"{when}: {held}"
                )
            elif style not in owed:
                assert held == target[style], (
                    f"{schedule}: member {style!r} is owed nothing {when} "
                    f"but does not hold the last durable update's state"
                )

    def check_converged(self, schedule, when, federation, connectors,
                        target):
        self.record(connectors, federation.journal.buffer)
        assert states_of(connectors) == target, (
            f"{schedule}: members do not hold the post-state {when}"
        )
        snapshots = {
            style: canon(universe_rows(federation.engine.universe, style))
            for style in STYLES
        }
        assert snapshots == target, (
            f"{schedule}: the federation's member snapshots differ from "
            f"the members {when}"
        )
        assert federation.journal.pending() == [], (
            f"{schedule}: updates still pending {when}"
        )
        assert federation.recover() == {}, (
            f"{schedule}: a second recover() replayed something {when}"
        )
        assert states_of(connectors) == target, (
            f"{schedule}: a second recover() changed a member {when}"
        )

    # -- scopes ----------------------------------------------------------

    def recover_crashes(self, **fixed):
        """Every crash index inside ``recover()`` for the schedule
        ``fixed``, torn and clean, until one runs past the last
        operation."""
        for index in itertools.count():
            fired = False
            for torn in (False, True):
                fired |= self.run(Schedule(self.parallel, recover_crash=index,
                                           recover_torn=torn, **fixed))
            if not fired:
                return

    def explore_tier1(self):
        """Each dimension in full, the others at their defaults."""
        for flush_crash, flush_torn in self.flush_crashes():
            self.run(Schedule(self.parallel, flush_crash, flush_torn))
        # Pending states: each update's intent is durable and no member
        # has applied it yet.
        for intent in self.intent_sites:
            for unreachable, mode in self.unreachable_choices():
                self.run(Schedule(self.parallel, intent + 1, False,
                                  unreachable, mode))
            self.recover_crashes(flush_crash=intent + 1)

    def explore_all(self):
        """The whole product."""
        for flush_crash, flush_torn in self.flush_crashes():
            for unreachable, mode in self.unreachable_choices():
                self.recover_crashes(flush_crash=flush_crash,
                                     flush_torn=flush_torn,
                                     unreachable=unreachable, mode=mode)


def report(explorer, started):
    print(f"\ncrash explorer parallel={explorer.parallel!r}: "
          f"{explorer.runs} schedules, {len(explorer.reached)} distinct "
          f"states, {explorer.torn_writes} torn writes, "
          f"{time.perf_counter() - started:.2f} s")


@pytest.mark.parametrize("parallel", ["off", "on"])
def test_every_small_crash_schedule_recovers(parallel):
    started = time.perf_counter()
    explorer = Explorer(parallel)
    # insStk and delStk each reach all three members: an intent, an
    # apply and an outcome record per member, and a commit.
    assert len(explorer.flush_sites) == 2 * (2 + 2 * len(STYLES))
    explorer.explore_tier1()
    report(explorer, started)
    assert explorer.runs > 100
    assert explorer.torn_writes > 0


@pytest.mark.slow
def test_every_crash_schedule_in_the_full_product_recovers():
    started = time.perf_counter()
    explorer = Explorer(os.environ.get("CHAOS_PARALLEL", "on"))
    explorer.explore_all()
    report(explorer, started)
