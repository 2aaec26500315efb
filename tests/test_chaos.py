"""Chaos harness: crash a federation mid-flush at every possible point
and prove recovery restores atomicity.

The invariant, from the paper's all-or-nothing update semantics: after
a crash anywhere in the journaled flush and a restart + ``recover()``,
every member holds *exactly* the pre-update state or *exactly* the
post-update state — never a mix — and running ``recover()`` twice is a
no-op.

Everything is deterministic: crash points are scheduled by operation
index (:class:`CrashInjector`), the Hypothesis property is
``derandomize``-d, and member state lives in
:class:`InMemoryConnector`s that survive the simulated process death
the way a real member database survives a federation crash.
"""

from __future__ import annotations

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MemberUnavailableError, StaleMemberError
from repro.multidb import (
    CrashInjector,
    CrashPoint,
    FaultyConnector,
    Federation,
    FederationConfig,
    InMemoryConnector,
    InMemoryJournal,
    MemberConnector,
    ResiliencePolicy,
)
from repro.multidb.resilience import FakeClock
from repro.workloads.stocks import StockWorkload

pytestmark = pytest.mark.chaos

STYLES = ("euter", "chwab", "ource")

#: CI runs the chaos job with scatter-gather on (the default) so every
#: crash schedule also exercises concurrent member applies; set
#: ``CHAOS_PARALLEL=off`` to sweep the deterministic serial path.
CHAOS_PARALLEL = os.environ.get("CHAOS_PARALLEL", "on")


def build(connectors, journal, crash=None, policy=None, clock=None,
          parallel=None):
    """A three-member federation over pre-built connectors."""
    config = FederationConfig(
        journal=journal, crash=crash,
        parallel=CHAOS_PARALLEL if parallel is None else parallel,
    )
    federation = Federation.from_config(config)
    for style in STYLES:
        federation.add_member(style, style, connector=connectors[style],
                              policy=policy, clock=clock)
    federation.install()
    return federation


def fresh_connectors(workload):
    return {
        style: InMemoryConnector(workload.relations_for(style))
        for style in STYLES
    }


def canon(relations):
    """Order-insensitive canonical form of a ``{rel: rows}`` snapshot."""
    return {
        rel: sorted(json.dumps(row, sort_keys=True) for row in rows)
        for rel, rows in relations.items()
    }


def member_states(connectors):
    return {style: canon(connectors[style].scan()) for style in STYLES}


def restart(connectors, buffer):
    """What a process restart sees: the surviving members and a journal
    reopened over the surviving buffer (torn-tail detection runs)."""
    federation = build(connectors, InMemoryJournal(buffer=buffer))
    return federation, federation.recover()


INSERT_QUOTE = "?.dbU.insStk(.stk=nova, .date=x, .price=1)"


def declared_write_set(federation, source=INSERT_QUOTE):
    """The members the update's statically inferred write set reaches.

    A flush stages the members the update's change log names, and the
    probe update changes every member its static write set names, so
    this — not "all members" — is what the journal intent must cover;
    the assertions below validate against it so they stay honest if a
    member style ever drops out of a control program's footprint.
    """
    return sorted(federation.write_footprint(source).writes.dbs)


def intent_members(journal, update_id=None):
    """The member set of one journaled intent (the only one when
    ``update_id`` is None)."""
    intents = [record for record in journal.records()
               if record["type"] == "intent"
               and (update_id is None or record["update"] == update_id)]
    (intent,) = intents
    return sorted(intent["members"])


class TestCrashSchedules:
    """Exhaustive: one update, a crash at every crash-point index."""

    def setup_method(self):
        self.workload = StockWorkload(n_stocks=2, n_days=2, seed=13)

    def expected_states(self):
        """(pre, post) member states of the probe update, crash-free."""
        connectors = fresh_connectors(self.workload)
        pre = member_states(connectors)
        federation = build(connectors, InMemoryJournal())
        federation.insert_quote("nova", "9/9/99", 7.0)
        return pre, member_states(connectors)

    def count_crash_points(self):
        """How many crash-point operations one flush performs (an
        unarmed injector records the op sequence)."""
        crash = CrashInjector()
        federation = build(fresh_connectors(self.workload),
                           InMemoryJournal(), crash=crash)
        crash.sites.clear()
        federation.insert_quote("nova", "9/9/99", 7.0)
        return list(crash.sites)

    def test_flush_visits_both_site_kinds(self):
        sites = self.count_crash_points()
        written = declared_write_set(
            build(fresh_connectors(self.workload), InMemoryJournal())
        )
        # intent + (apply + member record) per written member + commit
        assert sites[0] == "journal.append"
        assert sites[-1] == "journal.append"
        assert sites.count("connector.apply") == len(written)
        assert len(sites) == 2 + 2 * len(written)

    @pytest.mark.parametrize("torn", [False, True])
    def test_every_crash_point_recovers_atomically(self, torn):
        pre, post = self.expected_states()
        n_ops = len(self.count_crash_points())
        for after in range(n_ops):
            connectors = fresh_connectors(self.workload)
            buffer = []
            crash = CrashInjector().arm(after, torn=torn)
            federation = build(connectors, InMemoryJournal(buffer=buffer),
                               crash=crash)
            with pytest.raises(CrashPoint):
                federation.insert_quote("nova", "9/9/99", 7.0)
            restarted, _ = restart(connectors, buffer)
            states = member_states(connectors)
            assert states in (pre, post), (
                f"mixed member state after crash at op {after} "
                f"(torn={torn})"
            )
            # Recovery is idempotent: a second pass changes nothing.
            assert restarted.recover() == {}
            assert member_states(connectors) == states
            assert restarted.journal.pending() == []

    def test_crash_after_intent_rolls_forward(self):
        """Once the intent is journaled, recovery must finish the
        update (roll forward), not abandon it."""
        pre, post = self.expected_states()
        connectors = fresh_connectors(self.workload)
        buffer = []
        crash = CrashInjector().arm(1)  # intent written, first apply dies
        federation = build(connectors, InMemoryJournal(buffer=buffer),
                           crash=crash)
        with pytest.raises(CrashPoint):
            federation.insert_quote("nova", "9/9/99", 7.0)
        restarted, replayed = restart(connectors, buffer)
        assert member_states(connectors) == post
        (members,) = replayed.values()
        assert sorted(members) == declared_write_set(restarted)
        assert intent_members(restarted.journal) == \
            declared_write_set(restarted)
        assert restarted.journal.status()["committed"] == 1

    def test_crash_before_intent_stays_at_pre_state(self):
        pre, _ = self.expected_states()
        connectors = fresh_connectors(self.workload)
        buffer = []
        crash = CrashInjector().arm(0, torn=True)
        federation = build(connectors, InMemoryJournal(buffer=buffer),
                           crash=crash)
        with pytest.raises(CrashPoint):
            federation.insert_quote("nova", "9/9/99", 7.0)
        restarted, replayed = restart(connectors, buffer)
        assert replayed == {}
        assert member_states(connectors) == pre
        # The torn intent line was truncated, and counted.
        assert restarted.journal.truncated_tails == 1

    def test_recovery_observability(self):
        connectors = fresh_connectors(self.workload)
        buffer = []
        crash = CrashInjector().arm(2)  # first member applied, then death
        federation = build(connectors, InMemoryJournal(buffer=buffer),
                           crash=crash)
        with pytest.raises(CrashPoint):
            federation.insert_quote("nova", "9/9/99", 7.0)
        restarted = build(connectors, InMemoryJournal(buffer=buffer))
        restarted.recover()
        metrics = restarted.obs.metrics
        assert metrics.counter_value("journal.replays", via="recover") >= 1
        journal = restarted.health_report()["journal"]
        assert journal["pending"] == []
        assert journal["committed"] == 1


class TestNarrowedUpdateCrashSchedules:
    """Crash sweep for a *narrowed* flush: a direct single-member update
    journals (and applies to) only that member's write set, and crash
    recovery never drags the members outside it into the update."""

    REQUEST = "?.euter.r+(.stkCode=nova, .date=9/9/99, .clsPrice=7.0)"

    def setup_method(self):
        self.workload = StockWorkload(n_stocks=2, n_days=2, seed=13)

    def expected_states(self):
        connectors = fresh_connectors(self.workload)
        pre = member_states(connectors)
        federation = build(connectors, InMemoryJournal())
        federation.update(self.REQUEST)
        return pre, member_states(connectors)

    def test_intent_covers_exactly_the_write_set(self):
        connectors = fresh_connectors(self.workload)
        federation = build(connectors, InMemoryJournal())
        assert declared_write_set(federation, self.REQUEST) == ["euter"]
        result = federation.update(self.REQUEST)
        assert intent_members(federation.journal, result.update_id) == \
            ["euter"]

    def test_narrowed_flush_has_fewer_crash_points(self):
        crash = CrashInjector()
        federation = build(fresh_connectors(self.workload),
                           InMemoryJournal(), crash=crash)
        crash.sites.clear()
        federation.update(self.REQUEST)
        sites = list(crash.sites)
        # intent + (apply + member record) for one member + commit
        assert sites.count("connector.apply") == 1
        assert len(sites) == 4

    @pytest.mark.parametrize("torn", [False, True])
    def test_every_crash_point_recovers_atomically(self, torn):
        pre, post = self.expected_states()
        assert pre != post
        for after in range(4):
            connectors = fresh_connectors(self.workload)
            buffer = []
            crash = CrashInjector().arm(after, torn=torn)
            federation = build(connectors, InMemoryJournal(buffer=buffer),
                               crash=crash)
            with pytest.raises(CrashPoint):
                federation.update(self.REQUEST)
            # Members outside the write set were never touched, crash
            # or no crash.
            states = member_states(connectors)
            for style in ("chwab", "ource"):
                assert states[style] == pre[style]
            restarted, _ = restart(connectors, buffer)
            states = member_states(connectors)
            assert states in (pre, post), (
                f"mixed state after narrowed crash at op {after} "
                f"(torn={torn})"
            )
            assert restarted.recover() == {}
            assert restarted.journal.pending() == []


@pytest.mark.concurrency
class TestConcurrentFlushChaos:
    """Crash schedules against the scatter-gather flush, explicitly
    ``parallel="on"``: the applies are in flight on worker threads when
    the crash fires, yet every member must still land at exactly the
    pre-update or exactly the post-update state after recovery.

    The injector's fired-keeps-firing rule is what a real process death
    looks like to the stragglers: once one worker hits the armed crash
    point, every later crash-point visit — another member's apply, a
    journal record — dies too, so nothing is journaled after the crash.
    """

    def setup_method(self):
        self.workload = StockWorkload(n_stocks=2, n_days=2, seed=13)

    def build_parallel(self, connectors, buffer, crash=None):
        return build(connectors, InMemoryJournal(buffer=buffer),
                     crash=crash, parallel="on")

    def expected_states(self):
        connectors = fresh_connectors(self.workload)
        pre = member_states(connectors)
        federation = self.build_parallel(connectors, [])
        federation.insert_quote("nova", "9/9/99", 7.0)
        return pre, member_states(connectors)

    def test_parallel_and_serial_flush_agree(self):
        """Crash-free: scatter-gather and the serial fallback leave the
        members in identical states."""
        serial = fresh_connectors(self.workload)
        build(serial, InMemoryJournal(), parallel="off").insert_quote(
            "nova", "9/9/99", 7.0)
        _, parallel_post = self.expected_states()
        assert member_states(serial) == parallel_post

    def test_every_crash_point_recovers_atomically_in_flight(self):
        """The full crash sweep with concurrent applies: all-pre or
        all-post after recovery, and a double ``recover()`` is a no-op."""
        pre, post = self.expected_states()
        crash = CrashInjector()
        probe = self.build_parallel(fresh_connectors(self.workload), [],
                                    crash=crash)
        crash.sites.clear()
        probe.insert_quote("nova", "9/9/99", 7.0)
        n_ops = len(crash.sites)
        for after in range(n_ops):
            connectors = fresh_connectors(self.workload)
            buffer = []
            injector = CrashInjector().arm(after)
            federation = self.build_parallel(connectors, buffer,
                                             crash=injector)
            with pytest.raises(CrashPoint):
                federation.insert_quote("nova", "9/9/99", 7.0)
            restarted, _ = restart(connectors, buffer)
            states = member_states(connectors)
            assert states in (pre, post), (
                f"mixed member state after concurrent crash at op {after}"
            )
            assert restarted.recover() == {}
            assert member_states(connectors) == states
            assert restarted.journal.pending() == []

    def test_crash_mid_scatter_journals_nothing_after_the_fire(self):
        """Once the injector fires, no straggling worker gets a member
        record into the journal — the surviving log ends at the intent."""
        connectors = fresh_connectors(self.workload)
        buffer = []
        injector = CrashInjector().arm(1)  # intent durable, applies die
        federation = self.build_parallel(connectors, buffer, crash=injector)
        with pytest.raises(CrashPoint):
            federation.insert_quote("nova", "9/9/99", 7.0)
        reopened = InMemoryJournal(buffer=buffer)
        kinds = [record["type"] for record in reopened.records()]
        assert kinds == ["intent"]


class TestRecoveryWithUnreachableMembers:
    def setup_method(self):
        self.workload = StockWorkload(n_stocks=2, n_days=2, seed=13)

    def build_flaky(self, buffer, crash=None):
        clock = FakeClock()
        flaky = FaultyConnector(
            InMemoryConnector(self.workload.relations_for("chwab")),
            clock=clock,
        )
        connectors = {
            "euter": InMemoryConnector(self.workload.relations_for("euter")),
            "chwab": flaky,
            "ource": InMemoryConnector(self.workload.relations_for("ource")),
        }
        policy = ResiliencePolicy(max_attempts=1, failure_threshold=100,
                                  jitter=0.0)
        federation = build(connectors, InMemoryJournal(buffer=buffer),
                           crash=crash, policy=policy, clock=clock)
        return federation, connectors, flaky

    def crash_mid_flush(self, buffer, crash_after=2):
        crash = CrashInjector()
        federation, connectors, flaky = self.build_flaky(buffer, crash)
        crash.arm(crash_after)
        with pytest.raises(CrashPoint):
            federation.insert_quote("nova", "9/9/99", 7.0)
        return connectors, flaky

    def test_unreachable_member_stays_owed_until_resync(self):
        buffer = []
        connectors, flaky = self.crash_mid_flush(buffer)
        # Restart with the member down: recovery rolls the others
        # forward and leaves the down member stale (push) and owed.
        flaky.set_outage(True)
        clock = FakeClock()
        policy = ResiliencePolicy(max_attempts=1, failure_threshold=100,
                                  jitter=0.0)
        restarted = build(connectors, InMemoryJournal(buffer=buffer),
                          policy=policy, clock=clock)
        restarted.recover()
        assert restarted.availability().status_of("chwab") in (
            "stale", "quarantined"
        )
        (update,) = restarted.journal.pending()
        assert update.remaining == ["chwab"]
        # The member comes back; probe resyncs it, which settles its
        # share of the journaled update and commits it.
        flaky.restore()
        assert restarted.probe("chwab") is True
        assert restarted.journal.pending() == []
        assert restarted.journal.status()["committed"] == 1
        rows = flaky.inner.scan()["r"]
        assert any(row.get("nova") == 7.0 for row in rows)

    def test_member_down_through_install_replays_on_attach(self):
        """A member quarantined at restart (down during install and
        recover) is rolled forward by the journal when it re-attaches —
        the journal outranks the state the attach scan pulls."""
        buffer = []
        connectors, flaky = self.crash_mid_flush(buffer)
        flaky.set_outage(True)
        clock = FakeClock()
        policy = ResiliencePolicy(max_attempts=1, failure_threshold=100,
                                  jitter=0.0)
        restarted = Federation.from_config(
            FederationConfig(journal=InMemoryJournal(buffer=buffer))
        )
        for style in STYLES:
            restarted.add_member(style, style, connector=connectors[style],
                                 policy=policy, clock=clock)
        restarted.install()
        assert "chwab" in restarted.quarantined
        restarted.recover()
        (update,) = restarted.journal.pending()
        assert update.remaining == ["chwab"]
        flaky.restore()
        assert restarted.probe("chwab") is True
        # Attach pulled the member's pre-update state, then the pending
        # journal entry rolled it forward.
        rows = flaky.inner.scan()["r"]
        assert any(row.get("nova") == 7.0 for row in rows)
        assert restarted.journal.pending() == []
        # The whole federation answers with the update everywhere.
        assert ("9/9/99", "nova", 7.0) in set(restarted.unified_quotes())

    def restart_flaky(self, connectors, buffer):
        """Restart over the surviving members and journal, with the
        class's single-attempt policy on a fake clock."""
        policy = ResiliencePolicy(max_attempts=1, failure_threshold=100,
                                  jitter=0.0)
        return build(connectors, InMemoryJournal(buffer=buffer),
                     policy=policy, clock=FakeClock())

    def post_states(self):
        """Every member's state after a crash-free run of the update."""
        shadow = fresh_connectors(self.workload)
        build(shadow, InMemoryJournal()).insert_quote("nova", "9/9/99", 7.0)
        return member_states(shadow)

    def test_failed_apply_during_recover_keeps_the_member_owed(self):
        """A member whose replay apply fails during recover() is stale
        and still owed; the probe that repairs it delivers the journaled
        state, not the pre-update scan install pulled."""
        buffer = []
        connectors, flaky = self.crash_mid_flush(buffer, crash_after=1)
        restarted = self.restart_flaky(connectors, buffer)
        flaky.fail_next(1)
        restarted.recover()
        assert restarted.availability().status_of("chwab") == "stale"
        (update,) = restarted.journal.pending()
        assert update.remaining == ["chwab"]
        assert restarted.probe("chwab") is True
        assert restarted.journal.pending() == []
        assert member_states(connectors) == self.post_states()

    def test_failed_replay_on_reattach_leaves_the_member_stale(self):
        """A quarantined member whose roll-forward fails when it
        re-attaches is stale — strict queries refuse its pre-update
        rows — and the next probe delivers the journaled state."""
        buffer = []
        connectors, flaky = self.crash_mid_flush(buffer, crash_after=1)
        chwab = _ApplyFailsOnce(flaky.inner)
        connectors["chwab"] = chwab
        restarted = self.restart_flaky(connectors, buffer)
        assert "chwab" in restarted.quarantined
        restarted.recover()
        chwab.bring_back()
        assert restarted.probe("chwab") is False
        assert restarted.availability().status_of("chwab") == "stale"
        with pytest.raises(StaleMemberError):
            restarted.unified_quotes()
        (update,) = restarted.journal.pending()
        assert update.remaining == ["chwab"]
        assert restarted.probe("chwab") is True
        assert restarted.journal.pending() == []
        assert restarted.availability().status_of("chwab") == "ok"
        assert member_states(connectors) == self.post_states()


class _ApplyFailsOnce(MemberConnector):
    """A member that is down until :meth:`bring_back`; after that, ping
    and scan succeed and the first apply fails."""

    def __init__(self, inner):
        self.inner = inner
        self.down = True
        self.apply_failures = 0

    def bring_back(self):
        self.down = False
        self.apply_failures = 1

    def _reach(self, op):
        if self.down:
            raise MemberUnavailableError(f"member is down during {op}")

    def ping(self):
        self._reach("ping")
        return True

    def scan(self):
        self._reach("scan")
        return self.inner.scan()

    def apply(self, desired):
        self._reach("apply")
        if self.apply_failures:
            self.apply_failures -= 1
            raise MemberUnavailableError("apply refused")
        self.inner.apply(desired)


@given(
    seed=st.integers(min_value=0, max_value=3),
    prior=st.integers(min_value=0, max_value=2),
    crash_after=st.integers(min_value=0, max_value=40),
    torn=st.booleans(),
)
@settings(max_examples=30, deadline=None, derandomize=True)
def test_chaos_property_members_never_hold_a_mixed_state(
    seed, prior, crash_after, torn
):
    """Random workload x crash schedule x recovery: every member ends
    at exactly the pre-update or exactly the post-update state."""
    workload = StockWorkload(n_stocks=2, n_days=2, seed=seed)
    connectors = fresh_connectors(workload)
    buffer = []
    crash = CrashInjector()
    federation = build(connectors, InMemoryJournal(buffer=buffer),
                       crash=crash)
    for index in range(prior):
        federation.insert_quote(f"pre{index}", "8/8/88", float(index + 1))
    pre = member_states(connectors)
    # The expected post-state, from a crash-free shadow federation over
    # copies of the current member states.
    shadow = {
        style: InMemoryConnector(connectors[style].scan())
        for style in STYLES
    }
    build(shadow, InMemoryJournal()).insert_quote("nova", "9/9/99", 7.0)
    post = member_states(shadow)

    crash.arm(crash_after, torn=torn)
    crashed = False
    try:
        federation.insert_quote("nova", "9/9/99", 7.0)
    except CrashPoint:
        crashed = True

    restarted, _ = restart(connectors, buffer)
    states = member_states(connectors)
    assert states in (pre, post)
    if not crashed:
        assert states == post
    # Double recovery is a no-op.
    assert restarted.recover() == {}
    assert member_states(connectors) == states
    assert restarted.journal.pending() == []
