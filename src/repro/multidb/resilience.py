"""Resilience policies for autonomous member databases.

Members of a federation are independent systems the multidatabase layer
cannot assume are up, fast, or consistent (paper Section 3). This
module provides the policy machinery that keeps one flaky member from
taking the whole federation down:

* :class:`RetryPolicy` / :class:`ResiliencePolicy` — bounded retries
  with exponential backoff + deterministic jitter, and a per-operation
  deadline covering the attempts *and* the waits between them;
* :class:`CircuitBreaker` — the classic closed → open → half-open state
  machine, per member, so a persistently failing member is cut off
  instead of re-timed-out on every request;
* :class:`ResilientConnector` — wraps a
  :class:`~repro.multidb.connectors.MemberConnector` with a policy, a
  breaker, and per-member health counters;
* :class:`FakeClock` — a manual clock so retry/backoff and breaker
  timeouts are unit-testable without real sleeps.

Everything time-related goes through a clock object (``now()`` /
``sleep()``), never through :mod:`time` directly, and all jitter comes
from a seeded generator — tests and benchmarks are fully deterministic.

All of the stateful pieces here — breakers, health counters, the fake
clock, the connector's jitter RNG — are thread-safe: the scatter-gather
executor (:mod:`repro.multidb.executor`) drives one
:class:`ResilientConnector` per worker thread, and hedged scans can hit
the *same* connector from two workers at once.
"""

from __future__ import annotations

import random
import threading
import time

from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    MemberUnavailableError,
)

# -- clocks -----------------------------------------------------------------


class MonotonicClock:
    """Wall time: ``time.monotonic`` to read, ``time.sleep`` to wait."""

    def now(self):
        return time.monotonic()

    def sleep(self, seconds):
        if seconds > 0:
            time.sleep(seconds)


class FakeClock:
    """A manual clock: ``sleep`` advances it instantly, ``advance``
    moves it by hand. Records every sleep for assertions. Thread-safe —
    concurrent member operations may share one fake clock."""

    def __init__(self, start=0.0):
        self._now = float(start)
        self.sleeps = []
        self._lock = threading.Lock()

    def now(self):
        with self._lock:
            return self._now

    def sleep(self, seconds):
        with self._lock:
            self.sleeps.append(seconds)
            self._now += max(0.0, seconds)

    def advance(self, seconds):
        with self._lock:
            self._now += seconds


# -- retry / backoff ---------------------------------------------------------


class RetryPolicy:
    """Bounded retries with capped exponential backoff and jitter.

    ``delay(n)`` for the wait after the *n*-th failed attempt (1-based)
    is ``min(max_delay, base_delay * multiplier**(n-1))`` scaled by a
    jitter factor drawn uniformly from ``[1-jitter, 1+jitter]``.
    """

    def __init__(self, max_attempts=3, base_delay=0.05, multiplier=2.0,
                 max_delay=2.0, jitter=0.1,
                 retry_on=(MemberUnavailableError,)):
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        self.max_attempts = max_attempts
        self.base_delay = base_delay
        self.multiplier = multiplier
        self.max_delay = max_delay
        self.jitter = jitter
        self.retry_on = tuple(retry_on)

    def delay(self, attempt, rng=None):
        raw = min(self.max_delay,
                  self.base_delay * self.multiplier ** (attempt - 1))
        if self.jitter and rng is not None:
            raw *= 1.0 + rng.uniform(-self.jitter, self.jitter)
        return max(0.0, raw)


class ResiliencePolicy(RetryPolicy):
    """Everything the federation applies around one member connector:
    retry/backoff (inherited), a per-operation ``deadline`` (seconds,
    ``None`` = unbounded), and the circuit-breaker configuration."""

    def __init__(self, max_attempts=3, base_delay=0.05, multiplier=2.0,
                 max_delay=2.0, jitter=0.1, deadline=None,
                 failure_threshold=5, recovery_timeout=30.0, seed=0,
                 retry_on=(MemberUnavailableError,)):
        super().__init__(max_attempts, base_delay, multiplier, max_delay,
                         jitter, retry_on)
        self.deadline = deadline
        self.failure_threshold = failure_threshold
        self.recovery_timeout = recovery_timeout
        self.seed = seed

    @classmethod
    def passthrough(cls):
        """No retries, no deadline, a breaker that never opens — the
        exact behavior members had before connectors existed."""
        return cls(max_attempts=1, deadline=None,
                   failure_threshold=float("inf"))


# -- circuit breaker ---------------------------------------------------------

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    """Per-member breaker: closed → open → half-open → closed/open.

    ``failure_threshold`` consecutive failures open the circuit; while
    open, ``allow()`` refuses calls until ``recovery_timeout`` elapses,
    after which the next call runs as a half-open trial. A successful
    trial closes the circuit, a failed one re-opens it (and restarts
    the timeout). ``force_half_open()`` lets an operator-initiated
    health probe skip the remaining wait.
    """

    def __init__(self, failure_threshold=5, recovery_timeout=30.0,
                 clock=None, on_transition=None):
        self.failure_threshold = failure_threshold
        self.recovery_timeout = recovery_timeout
        self.clock = clock if clock is not None else MonotonicClock()
        self.state = CLOSED
        self.consecutive_failures = 0
        self.opened_at = None
        self.transitions = []  # (time, from_state, to_state)
        self.on_transition = on_transition  # callback(from_state, to_state)
        self._lock = threading.RLock()

    def _transition(self, to_state):
        from_state = self.state
        self.transitions.append((self.clock.now(), from_state, to_state))
        self.state = to_state
        if self.on_transition is not None:
            self.on_transition(from_state, to_state)

    def allow(self):
        """May a call be issued right now? (May move open → half-open.)"""
        with self._lock:
            if self.state == OPEN:
                elapsed = self.clock.now() - self.opened_at
                if elapsed < self.recovery_timeout:
                    return False
                self._transition(HALF_OPEN)
            return True

    def in_cooldown(self):
        """Is the circuit open with the recovery timeout still running?
        (A pure read: unlike :meth:`allow`, never moves to half-open.)"""
        with self._lock:
            return (self.state == OPEN
                    and self.clock.now() - self.opened_at
                    < self.recovery_timeout)

    def force_half_open(self):
        """An explicit health probe may trial the member immediately."""
        with self._lock:
            if self.state == OPEN:
                self._transition(HALF_OPEN)

    def record_success(self):
        with self._lock:
            self.consecutive_failures = 0
            if self.state != CLOSED:
                self._transition(CLOSED)

    def record_failure(self):
        with self._lock:
            self.consecutive_failures += 1
            if self.state == HALF_OPEN:
                self._open()
            elif (self.state == CLOSED
                  and self.consecutive_failures >= self.failure_threshold):
                self._open()

    def _open(self):
        self.opened_at = self.clock.now()
        self._transition(OPEN)

    def __repr__(self):
        return (f"CircuitBreaker(state={self.state!r}, "
                f"failures={self.consecutive_failures})")


# -- health accounting -------------------------------------------------------


class MemberHealth:
    """Structured per-member counters the federation exposes.

    Mutations go through :meth:`count` so concurrent member operations
    (hedged scans, parallel applies) never lose an increment.
    """

    __slots__ = ("member", "attempts", "successes", "failures", "retries",
                 "probes", "last_error", "_lock")

    def __init__(self, member):
        self.member = member
        self.attempts = 0
        self.successes = 0
        self.failures = 0
        self.retries = 0
        self.probes = 0
        self.last_error = None
        self._lock = threading.Lock()

    def count(self, field, amount=1, error=None):
        """Atomically bump one counter (optionally noting an error)."""
        with self._lock:
            setattr(self, field, getattr(self, field) + amount)
            if error is not None:
                self.last_error = error

    def as_dict(self):
        return {
            "member": self.member,
            "attempts": self.attempts,
            "successes": self.successes,
            "failures": self.failures,
            "retries": self.retries,
            "probes": self.probes,
            "last_error": (str(self.last_error)
                           if self.last_error is not None else None),
        }

    def __repr__(self):
        return (f"MemberHealth({self.member!r}, attempts={self.attempts}, "
                f"failures={self.failures}, retries={self.retries})")


# -- the resilient wrapper ---------------------------------------------------


class ResilientConnector:
    """A member connector behind a policy, a breaker, and counters.

    Every ``scan``/``apply``/``ping`` runs under the policy: the breaker
    is consulted first (:class:`~repro.errors.CircuitOpenError` when
    open), retryable failures back off and retry up to ``max_attempts``,
    and the whole operation — waits included — must finish inside the
    policy deadline or :class:`~repro.errors.DeadlineExceededError` is
    raised. Outcomes feed the breaker and the health counters.
    """

    def __init__(self, name, connector, policy=None, clock=None, obs=None):
        self.name = name
        self.connector = connector
        self.policy = policy if policy is not None else ResiliencePolicy()
        self.clock = clock if clock is not None else MonotonicClock()
        self.obs = obs  # repro.obs.Observability, or None
        # Share observability with the wrapped connector when it wants
        # one and has none (e.g. a FaultyConnector recording injected
        # faults as span events on the federation's trace).
        if obs is not None and getattr(connector, "obs", False) is None:
            connector.obs = obs
        self.breaker = CircuitBreaker(
            self.policy.failure_threshold,
            self.policy.recovery_timeout,
            self.clock,
            on_transition=self._record_transition,
        )
        self.health = MemberHealth(name)
        self._rng = random.Random(self.policy.seed)
        self._rng_lock = threading.Lock()

    def _record_transition(self, from_state, to_state):
        if self.obs is not None:
            self.obs.metrics.counter(
                "circuit.state_changes", member=self.name
            ).inc()
            self.obs.metrics.counter(
                "circuit.transitions", member=self.name, to=to_state
            ).inc()

    # -- the connector surface ----------------------------------------

    def scan(self):
        return self._run("scan", self.connector.scan)

    def apply(self, change):
        return self._run("apply", lambda: self.connector.apply(change))

    def ping(self):
        return self._run("ping", self.connector.ping)

    def probe(self, force=True):
        """Health probe: one ping, no retries. Returns True on success.

        ``force=True`` (the operator-initiated default) half-opens an
        open circuit immediately; ``force=False`` honors the breaker's
        recovery timeout — a member still in cooldown is reported
        unhealthy without touching it (the sweep path ``probe_all``
        uses this so background probing cannot defeat the breaker).
        """
        self.health.count("probes")
        if force:
            self.breaker.force_half_open()
        try:
            self._run("ping", self.connector.ping, max_attempts=1)
        except MemberUnavailableError:
            return False
        return True

    # -- policy enforcement --------------------------------------------

    def _run(self, op, fn, max_attempts=None):
        from repro.obs.trace import NOOP_SPAN

        obs = self.obs
        metrics = obs.metrics if obs is not None else None
        span = (obs.span(f"connector.{op}", member=self.name)
                if obs is not None and obs.enabled else NOOP_SPAN)
        with span:
            result = self._attempt_loop(op, fn, max_attempts, span, metrics)
        return result

    def _attempt_loop(self, op, fn, max_attempts, span, metrics):
        policy = self.policy
        attempts_allowed = (policy.max_attempts if max_attempts is None
                            else max_attempts)
        start = self.clock.now()
        deadline = (start + policy.deadline
                    if policy.deadline is not None else None)
        attempt = 0
        while True:
            if not self.breaker.allow():
                span.event("circuit-open")
                if metrics is not None:
                    metrics.counter(f"connector.{op}.rejected",
                                    member=self.name).inc()
                raise CircuitOpenError(
                    f"member {self.name!r}: circuit open, {op} refused",
                    member=self.name,
                )
            attempt += 1
            self.health.count("attempts")
            if metrics is not None:
                metrics.counter(f"connector.{op}.attempts",
                                member=self.name).inc()
            try:
                result = fn()
            except policy.retry_on as exc:
                self.health.count("failures", error=exc)
                self.breaker.record_failure()
                if metrics is not None:
                    metrics.counter(f"connector.{op}.failures",
                                    member=self.name).inc()
                if attempt >= attempts_allowed:
                    span.set("attempts", attempt)
                    span.event("exhausted", attempts=attempt)
                    raise
                with self._rng_lock:
                    wait = policy.delay(attempt, self._rng)
                if deadline is not None and self.clock.now() + wait > deadline:
                    span.set("attempts", attempt)
                    span.event("deadline-exceeded", deadline=policy.deadline)
                    raise DeadlineExceededError(
                        f"member {self.name!r}: {op} deadline of "
                        f"{policy.deadline}s exceeded after {attempt} "
                        f"attempt(s)",
                        member=self.name, cause=exc,
                    ) from exc
                self.health.count("retries")
                if metrics is not None:
                    metrics.counter(f"connector.{op}.retries",
                                    member=self.name).inc()
                span.event("retry", attempt=attempt, wait=wait)
                self.clock.sleep(wait)
                continue
            if deadline is not None and self.clock.now() > deadline:
                self.health.count("failures")
                self.breaker.record_failure()
                span.set("attempts", attempt)
                span.event("deadline-exceeded", deadline=policy.deadline)
                raise DeadlineExceededError(
                    f"member {self.name!r}: {op} took longer than the "
                    f"{policy.deadline}s deadline",
                    member=self.name,
                )
            self.health.count("successes")
            self.breaker.record_success()
            span.set("attempts", attempt)
            return result

    def __repr__(self):
        return (f"ResilientConnector({self.name!r}, "
                f"breaker={self.breaker.state!r})")
