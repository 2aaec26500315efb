"""Fault-tolerant federation: connectors, retry/backoff, breakers,
quarantine, partial-result queries, recovery and resync.

Everything runs on a :class:`FakeClock` — no real sleeps — so the
retry/backoff arithmetic and the breaker's timed transitions are
asserted exactly.
"""

from __future__ import annotations

import pytest

from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    FederationError,
    MemberUnavailableError,
    StaleMemberError,
    UpdateError,
)
from repro.multidb import (
    Federation,
    FaultyConnector,
    InMemoryConnector,
    ResiliencePolicy,
    ResilientConnector,
    StorageConnector,
)
from repro.multidb.resilience import CLOSED, HALF_OPEN, OPEN, CircuitBreaker, FakeClock
from repro.multidb.schema_styles import to_long
from repro.storage import StorageDatabase
from repro.workloads.stocks import StockWorkload


def quotes(answers):
    return {(a["D"], a["S"], a["P"]) for a in answers}


def style_quotes(workload, *styles):
    return {
        quote
        for style in styles
        for quote in to_long(workload.relations_for(style), style)
    }


# ---------------------------------------------------------------------------
# Retry / backoff
# ---------------------------------------------------------------------------


class TestRetryBackoff:
    def make(self, connector, **policy_kwargs):
        clock = FakeClock()
        policy_kwargs.setdefault("jitter", 0.0)
        policy = ResiliencePolicy(**policy_kwargs)
        return ResilientConnector("m", connector, policy, clock), clock

    def test_transient_failures_are_retried(self):
        faulty = FaultyConnector(InMemoryConnector({"r": [{"x": 1}]}))
        faulty.fail_next(2)
        resilient, clock = self.make(faulty, max_attempts=3, base_delay=0.1)
        assert resilient.scan() == {"r": [{"x": 1}]}
        assert resilient.health.retries == 2
        assert resilient.health.failures == 2
        assert resilient.health.successes == 1

    def test_backoff_is_exponential_and_capped(self):
        faulty = FaultyConnector(InMemoryConnector())
        faulty.fail_next(4)
        resilient, clock = self.make(
            faulty, max_attempts=5, base_delay=0.1, multiplier=2.0,
            max_delay=0.3,
        )
        resilient.ping()
        # Waits after failures 1..4: 0.1, 0.2, then capped at 0.3.
        assert clock.sleeps == [0.1, 0.2, 0.3, 0.3]

    def test_jitter_stays_within_bounds_and_is_deterministic(self):
        def sleeps_for(seed):
            faulty = FaultyConnector(InMemoryConnector())
            faulty.fail_next(3)
            clock = FakeClock()
            policy = ResiliencePolicy(
                max_attempts=4, base_delay=0.1, multiplier=1.0, jitter=0.5,
                seed=seed,
            )
            ResilientConnector("m", faulty, policy, clock).ping()
            return clock.sleeps

        first = sleeps_for(7)
        assert first == sleeps_for(7)  # same seed, same schedule
        assert all(0.05 <= wait <= 0.15 for wait in first)

    def test_attempts_exhausted_raises_original_error(self):
        faulty = FaultyConnector(InMemoryConnector(), outage=True)
        resilient, _ = self.make(faulty, max_attempts=3)
        with pytest.raises(MemberUnavailableError):
            resilient.scan()
        assert resilient.health.attempts == 3

    def test_retries_feed_the_metrics_registry(self):
        from repro.obs import Observability

        obs = Observability()
        faulty = FaultyConnector(InMemoryConnector({"r": [{"x": 1}]}))
        faulty.fail_next(2)
        policy = ResiliencePolicy(max_attempts=3, jitter=0.0)
        resilient = ResilientConnector("m", faulty, policy, FakeClock(),
                                       obs=obs)
        resilient.scan()
        metrics = obs.metrics
        assert metrics.counter_value("connector.scan.retries", member="m") == 2
        assert metrics.counter_value("connector.scan.attempts", member="m") == 3
        assert metrics.counter_value("connector.scan.failures", member="m") == 2

    def test_non_retryable_error_propagates_immediately(self):
        class Broken(InMemoryConnector):
            def scan(self):
                raise UpdateError("logic bug, not an outage")

        resilient, _ = self.make(Broken(), max_attempts=5)
        with pytest.raises(UpdateError):
            resilient.scan()
        assert resilient.health.attempts == 1
        assert resilient.breaker.state == CLOSED


class TestDeadlines:
    def test_slow_member_exceeds_deadline(self):
        clock = FakeClock()
        slow = FaultyConnector(InMemoryConnector(), latency=2.0, clock=clock)
        policy = ResiliencePolicy(max_attempts=1, deadline=0.5, jitter=0.0)
        resilient = ResilientConnector("m", slow, policy, clock)
        with pytest.raises(DeadlineExceededError):
            resilient.ping()

    def test_backoff_refuses_to_sleep_past_deadline(self):
        clock = FakeClock()
        faulty = FaultyConnector(InMemoryConnector(), outage=True)
        policy = ResiliencePolicy(
            max_attempts=10, base_delay=0.4, jitter=0.0, deadline=1.0,
        )
        resilient = ResilientConnector("m", faulty, policy, clock)
        with pytest.raises(DeadlineExceededError):
            resilient.ping()
        # 0.4 + 0.8 would pass 1.0s: only the first wait was taken.
        assert clock.sleeps == [0.4]


# ---------------------------------------------------------------------------
# Circuit breaker
# ---------------------------------------------------------------------------


class TestCircuitBreaker:
    def test_opens_after_consecutive_failures(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=3, recovery_timeout=10,
                                 clock=clock)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == CLOSED
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()

    def test_half_opens_after_recovery_timeout(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, recovery_timeout=10,
                                 clock=clock)
        breaker.record_failure()
        assert not breaker.allow()
        clock.advance(9.9)
        assert not breaker.allow()
        clock.advance(0.2)
        assert breaker.allow()  # the trial call
        assert breaker.state == HALF_OPEN

    def test_half_open_success_closes(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, recovery_timeout=1,
                                 clock=clock)
        breaker.record_failure()
        clock.advance(2)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CLOSED

    def test_half_open_failure_reopens_and_restarts_timeout(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, recovery_timeout=10,
                                 clock=clock)
        breaker.record_failure()
        clock.advance(11)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()  # the timeout restarted
        clock.advance(11)
        assert breaker.allow()

    def test_success_resets_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=3, clock=FakeClock())
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED

    def test_transitions_are_recorded(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, recovery_timeout=1,
                                 clock=clock)
        breaker.record_failure()
        clock.advance(2)
        breaker.allow()
        breaker.record_success()
        assert [(a, b) for _, a, b in breaker.transitions] == [
            (CLOSED, OPEN), (OPEN, HALF_OPEN), (HALF_OPEN, CLOSED)
        ]

    def test_open_circuit_short_circuits_calls(self):
        clock = FakeClock()
        faulty = FaultyConnector(InMemoryConnector(), outage=True)
        policy = ResiliencePolicy(max_attempts=1, failure_threshold=1,
                                  recovery_timeout=100, jitter=0.0)
        resilient = ResilientConnector("m", faulty, policy, clock)
        with pytest.raises(MemberUnavailableError):
            resilient.ping()
        calls_before = faulty.calls
        with pytest.raises(CircuitOpenError):
            resilient.ping()
        assert faulty.calls == calls_before  # the member was not touched


# ---------------------------------------------------------------------------
# Federation: quarantine, partial queries, recovery, resync
# ---------------------------------------------------------------------------


def build_federation(workload, chwab_connector, policy, clock):
    federation = Federation()
    federation.add_member("euter", "euter", workload.euter_relations())
    federation.add_member("chwab", "chwab", connector=chwab_connector,
                          policy=policy, clock=clock)
    federation.add_member("ource", "ource", workload.ource_relations())
    return federation


class TestDegradedFederation:
    @pytest.fixture
    def workload(self):
        return StockWorkload(n_stocks=3, n_days=2, seed=11)

    def setup_down_member(self, workload, **policy_kwargs):
        clock = FakeClock()
        flaky = FaultyConnector(
            InMemoryConnector(workload.chwab_relations()), outage=True
        )
        policy_kwargs.setdefault("max_attempts", 2)
        policy_kwargs.setdefault("failure_threshold", 2)
        policy_kwargs.setdefault("jitter", 0.0)
        policy = ResiliencePolicy(**policy_kwargs)
        federation = build_federation(workload, flaky, policy, clock)
        return federation, flaky, clock

    def test_install_quarantines_unreachable_member(self, workload):
        federation, _, _ = self.setup_down_member(workload)
        federation.install()
        assert "chwab" in federation.quarantined
        assert federation.availability().status_of("chwab") == "quarantined"
        # The failed attach left its trail in the metrics registry.
        metrics = federation.obs.metrics
        assert metrics.counter_value(
            "connector.scan.retries", member="chwab") >= 1
        assert metrics.counter_value(
            "connector.scan.failures", member="chwab") >= 2
        assert metrics.counter_value(
            "circuit.state_changes", member="chwab") >= 1

    def test_strict_query_refuses_degraded_answer(self, workload):
        federation, _, _ = self.setup_down_member(workload)
        federation.install()
        with pytest.raises(MemberUnavailableError):
            federation.unified_quotes()

    def test_partial_query_serves_remaining_members(self, workload):
        federation, _, _ = self.setup_down_member(workload)
        federation.install()
        result = federation.query(
            "?.dbI.p(.date=D, .stk=S, .price=P)", on_unavailable="partial"
        )
        assert quotes(result) == style_quotes(workload, "euter", "ource")
        assert result.availability.unavailable == {"chwab"}
        assert result.availability.contributed == {"euter", "ource"}
        assert not result.complete

    def test_updates_refused_while_member_down(self, workload):
        federation, _, _ = self.setup_down_member(workload)
        federation.install()
        before = federation.query(
            "?.dbI.p(.date=D, .stk=S, .price=P)", on_unavailable="partial"
        )
        with pytest.raises(MemberUnavailableError):
            federation.insert_quote("nova", "9/9/99", 1.0)
        after = federation.query(
            "?.dbI.p(.date=D, .stk=S, .price=P)", on_unavailable="partial"
        )
        assert quotes(after) == quotes(before)  # nothing half-applied

    def test_probe_recovers_attaches_and_closes_breaker(self, workload):
        federation, flaky, _ = self.setup_down_member(workload)
        federation.install()
        assert federation.connectors["chwab"].breaker.state == OPEN
        assert federation.probe("chwab") is False or "chwab" in federation.quarantined
        flaky.restore()
        assert federation.probe("chwab") is True
        assert federation.connectors["chwab"].breaker.state == CLOSED
        assert federation.quarantined == {}
        # Fault-free answer, via the strict path.
        expected = sorted(style_quotes(workload, "euter", "chwab", "ource"))
        assert federation.unified_quotes() == expected

    def test_probe_all_reports_every_member(self, workload):
        federation, flaky, clock = self.setup_down_member(workload)
        federation.install()
        assert federation.probe_all() == {
            "euter": True, "chwab": False, "ource": True
        }
        flaky.restore()
        # The sweep honors the breaker cooldown: until recovery_timeout
        # elapses the open breaker refuses the probe without a network
        # call, so the member still reads as down.
        assert federation.probe_all()["chwab"] is False
        clock.advance(31.0)
        assert federation.probe_all() == {
            "euter": True, "chwab": True, "ource": True
        }

    def test_probe_all_respects_breaker_cooldown(self, workload):
        """The sweep must not hammer a quarantined member whose breaker
        is still open — that used to force a half-open probe (and a
        network call) on every ``probe_all``."""
        federation, flaky, clock = self.setup_down_member(workload)
        federation.install()
        flaky.restore()
        calls_before = flaky.calls
        assert federation.probe_all()["chwab"] is False
        assert flaky.calls == calls_before  # cooldown: member untouched
        clock.advance(31.0)
        assert federation.probe_all()["chwab"] is True
        assert flaky.calls > calls_before

    def test_single_member_probe_still_forces_half_open(self, workload):
        """The operator-driven ``probe(name)`` keeps its force-half-open
        contract: it bypasses the cooldown the sweep honors."""
        federation, flaky, clock = self.setup_down_member(workload)
        federation.install()
        flaky.restore()
        assert federation.probe_all()["chwab"] is False  # cooldown holds
        assert federation.probe("chwab") is True  # explicit probe forces

    def test_member_order_is_computed_once(self, workload):
        federation, _, _ = self.setup_down_member(workload)
        federation.install()
        first = federation.member_order
        assert first == tuple(sorted(federation.members))
        assert federation.member_order is first  # cached, not re-sorted
        federation.add_member("tock", "euter", workload.euter_relations())
        assert "tock" in federation.member_order  # invalidated on growth

    def test_reinstall_reattaches_recovered_member(self, workload):
        federation, flaky, _ = self.setup_down_member(workload)
        federation.install()
        flaky.restore()
        federation.reinstall()
        assert federation.quarantined == {}
        expected = sorted(style_quotes(workload, "euter", "chwab", "ource"))
        assert federation.unified_quotes() == expected

    def test_recovered_member_participates_in_updates(self, workload):
        federation, flaky, _ = self.setup_down_member(workload)
        federation.install()
        flaky.restore()
        federation.probe("chwab")
        federation.insert_quote("nova", "9/9/99", 7.0)
        # The translated insert reached the recovered member's connector.
        rows = federation.connectors["chwab"].connector.inner.scan()["r"]
        assert any(row.get("nova") == 7.0 for row in rows)

    def test_every_member_down_fails_install(self, workload):
        clock = FakeClock()
        federation = Federation()
        for style in ("euter", "chwab", "ource"):
            federation.add_member(
                style, style,
                connector=FaultyConnector(
                    InMemoryConnector(workload.relations_for(style)),
                    outage=True,
                ),
                policy=ResiliencePolicy(max_attempts=1, jitter=0.0),
                clock=clock,
            )
        with pytest.raises(MemberUnavailableError):
            federation.install()


class TestFlushFailureAndResync:
    @pytest.fixture
    def workload(self):
        return StockWorkload(n_stocks=2, n_days=2, seed=5)

    def setup_attached_flaky(self, workload, **faulty_kwargs):
        clock = FakeClock()
        flaky = FaultyConnector(
            InMemoryConnector(workload.chwab_relations()), **faulty_kwargs
        )
        policy = ResiliencePolicy(max_attempts=2, failure_threshold=2,
                                  recovery_timeout=50, jitter=0.0)
        federation = build_federation(workload, flaky, policy, clock)
        federation.install()
        return federation, flaky, clock

    def test_failed_flush_marks_member_stale_then_resync_pushes(self, workload):
        federation, flaky, _ = self.setup_attached_flaky(workload)
        flaky.set_outage(True)
        with pytest.raises(MemberUnavailableError):
            federation.insert_quote("nova", "9/9/99", 3.0)
        assert federation.availability().status_of("chwab") in (
            "stale", "circuit-open"
        )
        flaky.restore()
        assert federation.probe("chwab") is True
        assert federation.availability().status_of("chwab") == "ok"
        rows = flaky.inner.scan()["r"]
        assert any(row.get("nova") == 3.0 for row in rows)
        # Strict queries serve again, and include the repaired update.
        assert ("9/9/99", "nova", 3.0) in set(federation.unified_quotes())

    def test_open_circuit_refuses_updates_before_mutation(self, workload):
        federation, flaky, _ = self.setup_attached_flaky(workload)
        flaky.set_outage(True)
        with pytest.raises(MemberUnavailableError):
            federation.insert_quote("nova", "9/9/99", 3.0)
        assert federation.connectors["chwab"].breaker.state == OPEN
        with pytest.raises(CircuitOpenError):
            federation.insert_quote("other", "9/9/99", 4.0)
        # The second update never reached the engine.
        assert not federation.ask("?.euter.r(.stkCode=other)")
        # The failed flush and the breaker trip were counted.
        metrics = federation.obs.metrics
        assert metrics.counter_value(
            "connector.apply.failures", member="chwab") >= 1
        assert metrics.counter_value(
            "circuit.state_changes", member="chwab") >= 1

    def test_stale_member_blocks_strict_queries_until_resync(self, workload):
        federation, flaky, _ = self.setup_attached_flaky(workload)
        flaky.set_outage(True)
        with pytest.raises(MemberUnavailableError):
            federation.insert_quote("nova", "9/9/99", 3.0)
        flaky.restore()
        federation.connectors["chwab"].breaker.record_success()  # close it
        with pytest.raises(StaleMemberError):
            federation.unified_quotes()
        federation.resync("chwab")
        assert ("9/9/99", "nova", 3.0) in set(federation.unified_quotes())

    def test_torn_change_repaired_by_push_resync(self, workload):
        federation, flaky, _ = self.setup_attached_flaky(
            workload, torn_writes=True
        )
        day = flaky.inner.scan()["r"][0]["date"]
        flaky.set_outage(True)
        # A new stock on an existing day edits that day's chwab row in
        # place: the change deletes the old row and inserts the new one.
        with pytest.raises(MemberUnavailableError):
            federation.insert_quote("nova", day, 3.0)
        # The member took a torn write: the delete landed, the insert
        # did not.
        torn_rows = flaky.inner.scan()["r"]
        assert len(torn_rows) == workload.n_days - 1
        assert all(row["date"] != day for row in torn_rows)
        flaky.restore()
        assert federation.probe("chwab") is True
        repaired = flaky.inner.scan()["r"]
        assert len(repaired) == workload.n_days
        assert {"nova": 3.0}.items() <= next(
            row for row in repaired if row["date"] == day).items()


class TestStorageConnectorAtomicApply:
    """StorageConnector.apply runs the whole replacement in one storage
    transaction: a failure mid-apply leaves the member exactly as it
    was — never half-replaced."""

    def make_storage(self):
        storage = StorageDatabase("m")
        storage.create_relation(
            "r", [("stkCode", "str"), ("clsPrice", "float")],
            key=("stkCode",),
        )
        storage.insert("r", {"stkCode": "hp", "clsPrice": 50.0})
        return storage

    def test_mid_apply_failure_rolls_everything_back(self):
        from repro.errors import StorageError

        storage = self.make_storage()
        connector = StorageConnector(storage)
        # "s" is created first, then "r"'s duplicate key blows up the
        # apply — the new relation must not survive the abort.
        bad = {
            "s": [{"x": 1}],
            "r": [
                {"stkCode": "a", "clsPrice": 1.0},
                {"stkCode": "a", "clsPrice": 2.0},  # duplicate key
            ],
        }
        with pytest.raises(StorageError):
            connector.apply(bad)
        assert storage.relation_names() == ["r"]
        assert storage.scan("r") == [{"stkCode": "hp", "clsPrice": 50.0}]
        assert not storage.in_transaction

    def test_replace_contents_composes_with_enclosing_transaction(self):
        from repro.errors import StorageError
        from repro.multidb.adapters import infer_schema

        storage = self.make_storage()
        bad = {
            "r": [
                {"stkCode": "a", "clsPrice": 1.0},
                {"stkCode": "a", "clsPrice": 2.0},
            ],
        }
        with storage.begin():
            storage.insert("r", {"stkCode": "ibm", "clsPrice": 10.0})
            with pytest.raises(StorageError):
                storage.replace_contents(bad, infer_schema)
            # The failed replacement rolled back to its savepoint; the
            # enclosing transaction (and its insert) survives.
            assert storage.in_transaction
        assert {row["stkCode"] for row in storage.scan("r")} == {"hp", "ibm"}

    def test_scripted_failure_then_flush_repairs_through_journal(self):
        workload = StockWorkload(n_stocks=2, n_days=2, seed=5)
        storage = StorageDatabase("chwab")
        storage.create_relation(
            "r", [("date", "str")] + [
                (symbol, "float") for symbol in workload.symbols
            ],
        )
        for row in workload.chwab_relations()["r"]:
            storage.insert("r", row)
        clock = FakeClock()
        flaky = FaultyConnector(StorageConnector(storage))
        policy = ResiliencePolicy(max_attempts=1, failure_threshold=100,
                                  jitter=0.0)
        federation = build_federation(workload, flaky, policy, clock)
        federation.install()
        before = storage.scan("r")
        flaky.fail_next(1)
        with pytest.raises(MemberUnavailableError):
            federation.insert_quote("nova", "9/9/99", 3.0)
        # The scripted failure fired before the storage was touched, and
        # the journaled intent stayed pending for the member.
        assert storage.scan("r") == before
        (update,) = federation.journal.pending()
        assert "chwab" in update.remaining
        federation.resync("chwab")
        assert federation.journal.pending() == []
        assert storage.lookup("r", date="9/9/99")


class TestResyncDirections:
    @pytest.fixture
    def workload(self):
        return StockWorkload(n_stocks=2, n_days=2, seed=5)

    def setup_attached_flaky(self, workload):
        clock = FakeClock()
        flaky = FaultyConnector(
            InMemoryConnector(workload.chwab_relations()), clock=clock
        )
        policy = ResiliencePolicy(max_attempts=1, failure_threshold=100,
                                  jitter=0.0)
        federation = build_federation(workload, flaky, policy, clock)
        federation.install()
        return federation, flaky

    def test_push_resync_after_failed_flush_settles_the_journal(
        self, workload
    ):
        federation, flaky = self.setup_attached_flaky(workload)
        flaky.fail_next(1)
        with pytest.raises(MemberUnavailableError):
            federation.insert_quote("nova", "9/9/99", 3.0)
        assert federation.availability().status_of("chwab") == "stale"
        (update,) = federation.journal.pending()
        assert update.remaining == ["chwab"]
        federation.resync("chwab")
        # The push delivered the universe's state, which subsumes the
        # journaled desired state: the update commits.
        assert federation.journal.pending() == []
        assert federation.journal.is_committed(update.update_id)
        rows = flaky.inner.scan()["r"]
        assert any(row.get("nova") == 3.0 for row in rows)

    def test_pull_resync_adopts_the_members_own_state(self, workload):
        federation, flaky = self.setup_attached_flaky(workload)
        # The member changed behind the federation's back (autonomy:
        # members accept local writes the federation never saw).
        flaky.inner._relations["r"].append(
            {"date": "7/7/77", "local": 9.0}
        )
        federation.resync("chwab")  # not stale -> pull direction
        assert ("7/7/77", "local", 9.0) in set(federation.unified_quotes())

    def test_double_resync_is_idempotent(self, workload):
        federation, flaky = self.setup_attached_flaky(workload)
        flaky.fail_next(1)
        with pytest.raises(MemberUnavailableError):
            federation.insert_quote("nova", "9/9/99", 3.0)
        federation.resync("chwab")
        after_first = flaky.inner.scan()
        # Second resync: no longer stale, so it pulls — and changes
        # nothing, because member and universe now agree.
        federation.resync("chwab")
        assert flaky.inner.scan() == after_first
        assert federation.journal.pending() == []
        assert federation.availability().status_of("chwab") == "ok"
        assert ("9/9/99", "nova", 3.0) in set(federation.unified_quotes())

    def test_resync_then_subsequent_update_keeps_journal_consistent(
        self, workload
    ):
        federation, flaky = self.setup_attached_flaky(workload)
        flaky.fail_next(1)
        with pytest.raises(MemberUnavailableError):
            federation.insert_quote("nova", "9/9/99", 3.0)
        first = federation.journal.pending()[0].update_id
        federation.resync("chwab")
        result = federation.insert_quote("zeta", "9/9/99", 4.0)
        assert result.flushed
        assert result.update_id > first
        assert federation.journal.pending() == []
        assert federation.journal.status()["committed"] == 2
        rows = flaky.inner.scan()["r"]
        (quote_row,) = [row for row in rows if row.get("date") == "9/9/99"]
        assert quote_row.get("nova") == 3.0 and quote_row.get("zeta") == 4.0


class TestFaultyConnectorDeterminism:
    def schedule(self, connector, n=24):
        """The connector's injected-failure pattern over n pings."""
        pattern = []
        for _ in range(n):
            try:
                connector.ping()
                pattern.append(False)
            except MemberUnavailableError:
                pattern.append(True)
        return pattern

    def test_siblings_with_one_seed_draw_independent_streams(self):
        a = FaultyConnector(InMemoryConnector({"r": []}),
                            failure_rate=0.5, seed=7)
        b = FaultyConnector(InMemoryConnector({"r": []}),
                            failure_rate=0.5, seed=7)
        assert a.stream != b.stream
        assert self.schedule(a) != self.schedule(b)

    def test_explicit_stream_reproduces_the_schedule(self):
        def build():
            return FaultyConnector(InMemoryConnector({"r": []}),
                                   failure_rate=0.5, seed=7, stream=3)

        assert self.schedule(build()) == self.schedule(build())

    def test_injected_fault_records_a_span_event(self):
        from repro.obs import Observability

        obs = Observability()
        faulty = FaultyConnector(InMemoryConnector({"r": []}), obs=obs)
        faulty.fail_next(1)
        with obs.tracer.span("test.op") as span:
            with pytest.raises(MemberUnavailableError):
                faulty.scan()
        (event,) = [e for e in span.events if e[0] == "fault.injected"]
        assert event[1] == {"op": "scan", "why": "scripted failure"}

    def test_injected_latency_records_a_span_event(self):
        from repro.obs import Observability

        obs = Observability()
        clock = FakeClock()
        faulty = FaultyConnector(InMemoryConnector({"r": []}),
                                 latency=0.25, clock=clock, obs=obs)
        with obs.tracer.span("test.op") as span:
            faulty.scan()
        assert ("fault.latency", {"op": "scan", "seconds": 0.25}) \
            in span.events
        assert clock.sleeps == [0.25]

    def test_without_obs_no_span_is_required(self):
        faulty = FaultyConnector(InMemoryConnector({"r": []}))
        faulty.fail_next(1)
        with pytest.raises(MemberUnavailableError):
            faulty.scan()  # no tracer, no open span: still fine

    def test_resilient_connector_shares_obs_with_the_faulty_inner(self):
        from repro.obs import Observability

        obs = Observability()
        clock = FakeClock()
        faulty = FaultyConnector(InMemoryConnector({"r": []}))
        assert faulty.obs is None
        resilient = ResilientConnector(
            "m", faulty,
            ResiliencePolicy(max_attempts=1, jitter=0.0),
            clock, obs=obs,
        )
        assert faulty.obs is obs
        faulty.fail_next(1)
        with obs.tracer.span("federation.flush") as root:
            with pytest.raises(MemberUnavailableError):
                resilient.scan()
        events = [event for span in root.walk() for event in span.events]
        assert any(name == "fault.injected" for name, _ in events)


class TestReplHealth:
    def make_console(self, federation=None):
        import io

        from repro.tools.repl import IdlRepl

        out = io.StringIO()
        return IdlRepl(out=out, federation=federation), out

    def test_health_without_a_federation(self):
        console, out = self.make_console()
        console.handle(":health")
        assert "no federation attached" in out.getvalue()

    def test_health_lists_members_and_journal(self):
        workload = StockWorkload(n_stocks=2, n_days=2, seed=5)
        clock = FakeClock()
        flaky = FaultyConnector(
            InMemoryConnector(workload.chwab_relations()), clock=clock
        )
        policy = ResiliencePolicy(max_attempts=1, failure_threshold=100,
                                  jitter=0.0)
        federation = build_federation(workload, flaky, policy, clock)
        federation.install()
        console, out = self.make_console(federation)
        console.handle(":health")
        text = out.getvalue()
        for member in ("euter", "chwab", "ource"):
            assert member in text
        assert "ok" in text and "breaker=closed" in text
        assert "journal" in text and "pending: none" in text

    def test_health_shows_stale_member_and_pending_update(self):
        workload = StockWorkload(n_stocks=2, n_days=2, seed=5)
        clock = FakeClock()
        flaky = FaultyConnector(
            InMemoryConnector(workload.chwab_relations()), clock=clock
        )
        policy = ResiliencePolicy(max_attempts=1, failure_threshold=100,
                                  jitter=0.0)
        federation = build_federation(workload, flaky, policy, clock)
        federation.install()
        flaky.fail_next(1)
        with pytest.raises(MemberUnavailableError):
            federation.insert_quote("nova", "9/9/99", 3.0)
        (update,) = federation.journal.pending()
        console, out = self.make_console(federation)
        console.handle(":health")
        text = out.getvalue()
        assert "stale" in text
        assert f"pending: {update.update_id}" in text
        assert "injected fault" in text  # last_error surfaces


class TestLegacyMembersUnaffected:
    def test_storage_member_keeps_fail_fast_semantics(self):
        workload = StockWorkload(n_stocks=2, n_days=2, seed=3)
        storage = StorageDatabase("euter")
        storage.create_relation(
            "r", [("date", "str"), ("stkCode", "str"), ("clsPrice", "float")]
        )
        for day, symbol, price in workload.quotes():
            storage.insert("r", {"date": day, "stkCode": symbol,
                                 "clsPrice": price})
        federation = Federation()
        federation.add_member("euter", "euter", storage=storage)
        federation.install()
        resilient = federation.connectors["euter"]
        assert resilient.policy.max_attempts == 1
        federation.insert_quote("nova", "9/9/99", 1.0)
        assert storage.lookup("r", stkCode="nova")
        assert resilient.breaker.state == CLOSED
