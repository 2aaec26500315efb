"""Write-ahead update journal: atomic multi-member federation updates.

The paper's update semantics (Sections 6/7) are all-or-nothing: a
logical update against a higher-order view is translated and must reach
*every* affected member or none. The flush that delivers it, however,
is member-by-member over unreliable connectors — a crash mid-flush
would historically leave the federation in a mixed state that only an
operator-driven ``resync`` could repair, with no durable record of what
was in flight.

This module is the durable record. An :class:`UpdateJournal` is a
checksummed JSON-lines log of *update-commit protocol* records:

``intent``
    written before any member is touched; carries a monotonic
    ``update`` id, the record ``version`` and, for every member the
    flush will reach, that member's change
    (:class:`~repro.multidb.changes.MemberChange`): its net ``+rows``
    and ``-rows`` per relation, plus the whole contents of any relation
    the update changed symbolically. Changes insert if absent and
    delete if present, so replaying one is idempotent. The members are
    exactly the databases the update's change log
    (:class:`~repro.core.updates.UpdateDelta`) names, so a
    single-member update journals one member's rows, not the whole
    federation's. Members it left alone appear in neither the intent
    nor the ``member`` records; recovery replays exactly that set. An
    intent without a ``version`` (written before changes were) holds
    full member states and recovers as the full changes of those
    states; any other version is refused with
    :class:`~repro.errors.JournalError`, and nothing is replayed;
``member``
    one per member outcome (``applied``/``failed``), written right
    after the member's connector ``apply`` returns or raises, with the
    path that produced it (``via`` = ``flush``/``recover``/``resync``).
    Every delivery path journals ``failed`` as well as ``applied``: the
    flush, ``recover()`` and the replay when a member re-attaches share
    one routine (``Federation._roll_forward``);
``commit``
    every member took the new state; the update is done;
``abort``
    the update was abandoned (e.g. superseded by a later committed
    update found during recovery).

Each line is ``{"crc": zlib.crc32(canonical-json-of-rec), "rec": ...}``.
On open, the tail of the log is verified: a torn final write (a crash
mid-append) fails the parse or the checksum and is *truncated*, never
replayed; valid records after an invalid line mean real corruption and
raise :class:`~repro.errors.JournalError`.

Two storage backends share all of the above: :class:`InMemoryJournal`
(a shared line buffer — tests "reopen" it after a simulated crash) and
:class:`FileJournal` (JSON lines on disk, for ``examples/`` and real
deployments). :class:`NullJournal` disables journaling.

Deterministic crash simulation lives here too: a :class:`CrashInjector`
is armed with "crash after N protocol operations"; the journal's
``append`` and the federation's connector ``apply`` loop visit it, and
the scheduled visit raises :class:`CrashPoint` (a ``BaseException``, so
no retry/cleanup layer accidentally swallows the "process death").
``torn=True`` additionally half-writes the journal line being appended,
exercising the torn-tail truncation path end to end.
"""

from __future__ import annotations

import json
import os
import threading
import zlib

from repro.errors import JournalError
from repro.multidb.changes import VERSION, MemberChange, full_change

#: Record types, in protocol order.
INTENT = "intent"
MEMBER = "member"
COMMIT = "commit"
ABORT = "abort"

#: Update lifecycle states.
PENDING = "pending"
COMMITTED = "committed"
ABORTED = "aborted"


class CrashPoint(BaseException):
    """A simulated process crash at a protocol operation.

    Deliberately a ``BaseException``: resilience layers retry and
    breakers record ``Exception`` subclasses, but a crash is the death
    of the process — nothing may handle it except the test harness that
    scheduled it.
    """

    def __init__(self, site, op_index):
        self.site = site
        self.op_index = op_index
        super().__init__(f"injected crash at {site} (operation {op_index})")


class CrashInjector:
    """Deterministic "crash after N ops" scheduling.

    Crash-point *sites* — journal appends and per-member connector
    applies — call :meth:`visit` before doing their work. ``arm(n)``
    lets the first ``n`` visits proceed and raises :class:`CrashPoint`
    at visit ``n+1`` (so ``arm(0)`` crashes at the very first
    operation). An unarmed injector only records the op sequence, which
    is how a chaos harness discovers how many crash points a workload
    has. ``torn=True`` asks the journal to half-write the line being
    appended before dying, producing a torn tail.
    """

    def __init__(self, after=None, torn=False):
        self.after = after
        self.torn = torn
        self.visited = 0
        self.fired = False
        self.sites = []  # every site visited, in order
        # Concurrent member applies visit the injector from worker
        # threads; the budget must be spent exactly once per visit.
        self._lock = threading.Lock()

    def arm(self, after, torn=None):
        """Crash at the ``after + 1``-th crash-point visit from now on."""
        with self._lock:
            self.after = after
            self.visited = 0
            self.fired = False
            if torn is not None:
                self.torn = torn
        return self

    def disarm(self):
        with self._lock:
            self.after = None
        return self

    def will_fire(self):
        """Would the next :meth:`visit` raise? (Non-consuming peek.)"""
        with self._lock:
            if self.after is None:
                return False
            return self.fired or self.visited >= self.after

    def visit(self, site):
        """One crash-point passed; raises :class:`CrashPoint` when the
        armed budget is spent. A fired injector keeps firing — a dead
        process does not come back."""
        with self._lock:
            self.sites.append(site)
            if self.after is None:
                self.visited += 1
                return
            if self.fired or self.visited >= self.after:
                self.fired = True
                raise CrashPoint(site, self.visited)
            self.visited += 1

    def __repr__(self):
        return (f"CrashInjector(after={self.after}, torn={self.torn}, "
                f"visited={self.visited}, fired={self.fired})")


def _canonical(record):
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def encode_record(record):
    """One checksummed journal line (without the newline).

    The envelope is assembled from the already-serialized body — the
    record (often a full multi-member intent) is serialized exactly
    once, and ``"crc" < "rec"`` keeps the envelope canonical.
    """
    body = _canonical(record)
    crc = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
    return '{"crc":%d,"rec":%s}' % (crc, body)


def decode_record(line):
    """The record of one journal line, or ``None`` when the line is
    torn or checksum-corrupt (the caller decides whether that is a
    truncatable tail or fatal corruption)."""
    try:
        envelope = json.loads(line)
    except ValueError:
        return None
    if not isinstance(envelope, dict) or "rec" not in envelope:
        return None
    record = envelope.get("rec")
    body = _canonical(record)
    if envelope.get("crc") != zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF:
        return None
    return record


def _changes(intent):
    """An intent record's ``{member: MemberChange}``, by its version."""
    members = intent.get("members", {})
    version = intent.get("version")
    if version is None:
        return {member: full_change(state)
                for member, state in members.items()}
    if version != VERSION:
        raise JournalError(
            f"journal intent for update {intent.get('update')} has "
            f"unknown record version {version!r}; this build reads "
            f"version {VERSION} and versionless intents"
        )
    return {member: (change if isinstance(change, MemberChange)
                     else MemberChange(change))
            for member, change in members.items()}


def _owed(desired, applied):
    """The completion rule: desired members with no ``applied``
    record, in deterministic order. An update completes when none is
    left."""
    return [member for member in sorted(desired) if member not in applied]


class PendingUpdate:
    """One incomplete journaled update, as :meth:`UpdateJournal.pending`
    reports it: what was intended, which members already took it."""

    __slots__ = ("update_id", "seq", "desired", "applied", "failed",
                 "origin")

    def __init__(self, update_id, seq, desired, applied, failed, origin):
        self.update_id = update_id
        self.seq = seq
        self.desired = desired  # {member: MemberChange}
        self.applied = dict(applied)  # {member: via}
        self.failed = set(failed)
        self.origin = origin

    @property
    def remaining(self):
        """Members whose apply is still owed, in deterministic order."""
        return _owed(self.desired, self.applied)

    @property
    def complete(self):
        return not self.remaining

    def __repr__(self):
        return (f"PendingUpdate(id={self.update_id}, "
                f"applied={sorted(self.applied)}, "
                f"remaining={self.remaining})")


class _UpdateState:
    __slots__ = ("update_id", "seq", "desired", "applied", "failed",
                 "origin", "status", "resolved_seq")

    def __init__(self, update_id, seq, desired, origin):
        self.update_id = update_id
        self.seq = seq
        self.desired = desired
        self.applied = {}  # member -> via of the successful apply
        self.failed = set()
        self.origin = origin
        self.status = PENDING
        self.resolved_seq = None


class UpdateJournal:
    """The update-commit protocol log (storage-agnostic core).

    Subclasses provide the line storage (:meth:`_read_lines`,
    :meth:`_write_line`, :meth:`_truncate_tail`); everything else —
    encoding, checksums, torn-tail handling, protocol state, crash
    hooks, metrics — is shared. ``obs`` (an
    :class:`~repro.obs.Observability`) may be bound late; the
    federation binds its own when it adopts the journal.
    """

    def __init__(self, obs=None):
        self.obs = obs
        self.crash = None  # a CrashInjector, shared with the federation
        self.truncated_tails = 0  # truncation events across opens
        self.dropped_records = 0  # lines lost to truncation
        self._states = {}  # update_id -> _UpdateState
        self._order = []  # update ids in intent order
        self._next_seq = 1
        self._next_update = 1
        self._last_committed_seq = 0
        # The journal lock: concurrent member applies record their
        # outcomes from worker threads, and each append must be one
        # atomic check + encode + write + ingest. Re-entrant because
        # resolve_member drives record_member/commit internally.
        self._lock = threading.RLock()

    # -- storage interface (subclass responsibility) --------------------

    def _read_lines(self):  # pragma: no cover - abstract
        raise NotImplementedError

    def _write_line(self, text):  # pragma: no cover - abstract
        raise NotImplementedError

    def _truncate_tail(self, keep_lines):  # pragma: no cover - abstract
        raise NotImplementedError

    # -- open / replay ---------------------------------------------------

    def _open(self):
        """Decode the log, truncating a torn tail; raises
        :class:`JournalError` on mid-log corruption."""
        lines = self._read_lines()
        records, bad_at = [], None
        for index, line in enumerate(lines):
            record = decode_record(line)
            if record is None:
                if bad_at is None:
                    bad_at = index
                continue
            if bad_at is not None:
                raise JournalError(
                    f"journal corrupt: valid record at line {index + 1} "
                    f"after invalid line {bad_at + 1}"
                )
            records.append(record)
        if bad_at is not None:
            dropped = len(lines) - bad_at
            self._truncate_tail(bad_at)
            self.truncated_tails += 1
            self.dropped_records += dropped
            self._count("journal.truncated_tails")
        for record in records:
            self._ingest(record)

    def _ingest(self, record):
        kind = record.get("type")
        seq = record.get("seq", 0)
        update_id = record.get("update")
        self._next_seq = max(self._next_seq, seq + 1)
        if update_id is not None:
            self._next_update = max(self._next_update, update_id + 1)
        if kind == INTENT:
            state = _UpdateState(update_id, seq, _changes(record),
                                 record.get("origin", "update"))
            self._states[update_id] = state
            self._order.append(update_id)
        elif kind == MEMBER:
            state = self._states.get(update_id)
            if state is None:
                raise JournalError(
                    f"journal corrupt: member record for unknown update "
                    f"{update_id}"
                )
            if record.get("outcome") == "applied":
                state.applied[record["member"]] = record.get("via", "flush")
                state.failed.discard(record["member"])
            else:
                state.failed.add(record["member"])
        elif kind in (COMMIT, ABORT):
            state = self._states.get(update_id)
            if state is None:
                raise JournalError(
                    f"journal corrupt: {kind} record for unknown update "
                    f"{update_id}"
                )
            state.status = COMMITTED if kind == COMMIT else ABORTED
            state.resolved_seq = seq
            if kind == COMMIT:
                self._last_committed_seq = max(self._last_committed_seq, seq)
        else:
            raise JournalError(f"journal corrupt: unknown record type {kind!r}")

    # -- appending -------------------------------------------------------

    def _append(self, record):
        with self._lock:
            record = dict(record)
            record["seq"] = self._next_seq
            line = encode_record(record)
            crash = self.crash
            if crash is not None and crash.will_fire():
                if crash.torn:
                    # A crash mid-write: half the line reaches storage.
                    self._write_line(line[: max(1, len(line) // 2)])
                crash.visit("journal.append")  # raises CrashPoint
            elif crash is not None:
                crash.visit("journal.append")
            self._write_line(line)
            self._next_seq += 1
            self._ingest(record)
        self._count("journal.appends")
        return record["seq"]

    def _count(self, name, **tags):
        if self.obs is not None:
            self.obs.metrics.counter(name, **tags).inc()

    # -- the protocol ----------------------------------------------------

    def begin(self, desired, origin="update"):
        """Journal the intent to apply each member's change in
        ``desired`` (``{member: MemberChange}``); returns the new
        monotonic update id."""
        with self._lock:
            update_id = self._next_update
            self._append({
                "type": INTENT,
                "update": update_id,
                "origin": origin,
                "version": VERSION,
                "members": desired,
            })
        return update_id

    def record_member(self, update_id, member, outcome, via="flush"):
        """Journal one member's apply outcome (``"applied"``/``"failed"``)."""
        with self._lock:
            self._require_pending(update_id)
            self._append({
                "type": MEMBER,
                "update": update_id,
                "member": member,
                "outcome": outcome,
                "via": via,
            })
        if via in ("recover", "resync") and outcome == "applied":
            self._count("journal.replays", via=via)

    def commit(self, update_id):
        with self._lock:
            self._require_pending(update_id)
            self._append({"type": COMMIT, "update": update_id})
        self._count("journal.commits")

    def abort(self, update_id, reason=""):
        with self._lock:
            self._require_pending(update_id)
            self._append({"type": ABORT, "update": update_id,
                          "reason": reason})
        self._count("journal.aborts")

    def _require_pending(self, update_id):
        state = self._states.get(update_id)
        if state is None:
            raise JournalError(f"unknown update id {update_id}")
        if state.status != PENDING:
            raise JournalError(
                f"update {update_id} is already {state.status}"
            )
        return state

    # -- reading ---------------------------------------------------------

    def pending(self):
        """Incomplete updates (intent without commit/abort), oldest
        first — exactly what ``Federation.recover`` must replay."""
        with self._lock:
            return [
                PendingUpdate(s.update_id, s.seq, s.desired, s.applied,
                              s.failed, s.origin)
                for update_id in self._order
                for s in (self._states[update_id],)
                if s.status == PENDING
            ]

    @property
    def last_committed_seq(self):
        return self._last_committed_seq

    def owed(self, update_id):
        """The desired members of pending update ``update_id`` that no
        ``applied`` record covers yet; it may commit once this is
        empty."""
        with self._lock:
            state = self._require_pending(update_id)
            return _owed(state.desired, state.applied)

    def is_committed(self, update_id):
        state = self._states.get(update_id)
        return state is not None and state.status == COMMITTED

    def resolve_member(self, member, via="resync"):
        """Mark ``member`` applied in every pending update that still
        owes it (a successful push-resync delivered the member's full
        current state, which has every journaled change applied),
        committing updates this completes. Returns the touched ids."""
        touched = []
        with self._lock:
            for update_id in list(self._order):
                state = self._states[update_id]
                if state.status != PENDING or member not in state.desired:
                    continue
                if member not in state.applied:
                    self.record_member(update_id, member, "applied", via=via)
                    touched.append(update_id)
                if not self.owed(update_id):
                    self.commit(update_id)
        return touched

    def status(self):
        """Journal health at a glance (for ``health_report`` / ``:health``)."""
        counts = {PENDING: 0, COMMITTED: 0, ABORTED: 0}
        for state in self._states.values():
            counts[state.status] += 1
        return {
            "backend": type(self).__name__,
            "updates": len(self._states),
            "pending": [
                u for u in self._order
                if self._states[u].status == PENDING
            ],
            "committed": counts[COMMITTED],
            "aborted": counts[ABORTED],
            "truncated_tails": self.truncated_tails,
            "dropped_records": self.dropped_records,
            "next_update_id": self._next_update,
        }

    def records(self):
        """Every decoded record currently in the log (for inspection)."""
        return [
            record for record in
            (decode_record(line) for line in self._read_lines())
            if record is not None
        ]

    def reopen(self):  # pragma: no cover - abstract
        """A fresh journal over the same storage — what a restarted
        process would see (runs torn-tail detection again)."""
        raise NotImplementedError

    def __repr__(self):
        pending = sum(
            1 for s in self._states.values() if s.status == PENDING
        )
        return (f"{type(self).__name__}(updates={len(self._states)}, "
                f"pending={pending})")


class InMemoryJournal(UpdateJournal):
    """Journal over a shared in-process line buffer.

    The buffer (a plain list of line strings) survives the simulated
    "process" — pass the same list (or call :meth:`reopen`) to model a
    restart. The default federation journal is one of these.
    """

    def __init__(self, buffer=None, obs=None):
        super().__init__(obs=obs)
        self.buffer = buffer if buffer is not None else []
        self._open()

    def _read_lines(self):
        return list(self.buffer)

    def _write_line(self, text):
        self.buffer.append(text)

    def _truncate_tail(self, keep_lines):
        del self.buffer[keep_lines:]

    def compact(self):
        """Drop records of resolved (committed/aborted) updates, keeping
        the pending tail and the id/seq counters. Bounds the buffer in
        long-running processes."""
        keep_ids = {
            update_id for update_id, state in self._states.items()
            if state.status == PENDING
        }
        kept = []
        for line in self.buffer:
            record = decode_record(line)
            if record is not None and record.get("update") in keep_ids:
                kept.append(line)
        self.buffer[:] = kept
        self._order = [u for u in self._order if u in keep_ids]
        self._states = {
            u: s for u, s in self._states.items() if u in keep_ids
        }
        return self

    def reopen(self):
        return InMemoryJournal(buffer=self.buffer, obs=self.obs)


class FileJournal(UpdateJournal):
    """Journal as JSON lines on disk.

    Opening verifies the whole log and physically truncates a torn
    tail; every append is flushed (+ ``os.fsync`` when the platform
    provides it) before the protocol proceeds — the write-ahead
    guarantee.
    """

    def __init__(self, path, obs=None, fsync=True):
        super().__init__(obs=obs)
        self.path = os.fspath(path)
        self.fsync = fsync
        self._offsets = []  # byte offset of each line start
        self._handle = None
        self._open()
        self._handle = open(self.path, "a", encoding="utf-8")

    def _read_lines(self):
        if not os.path.exists(self.path):
            return []
        lines, offset = [], 0
        self._offsets = []
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                self._offsets.append(offset)
                offset += len(line.encode("utf-8"))
                lines.append(line.rstrip("\n"))
        return lines

    def _write_line(self, text):
        self._handle.write(text + "\n")
        self._handle.flush()
        if self.fsync:
            try:
                os.fsync(self._handle.fileno())
            except OSError:  # pragma: no cover - platform-dependent
                pass

    def _truncate_tail(self, keep_lines):
        size = (self._offsets[keep_lines]
                if keep_lines < len(self._offsets) else None)
        if size is None:
            return
        with open(self.path, "r+", encoding="utf-8") as handle:
            handle.truncate(size)

    def close(self):
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def reopen(self):
        self.close()
        return FileJournal(self.path, obs=self.obs, fsync=self.fsync)

    def __del__(self):  # pragma: no cover - interpreter shutdown order
        try:
            self.close()
        except Exception:
            pass


class NullJournal(UpdateJournal):
    """Journaling disabled: every protocol call is a cheap no-op.

    ``FederationConfig(journal=NullJournal())`` restores the
    pre-journal flush exactly (benchmark B14 measures the
    difference)."""

    def __init__(self, obs=None):
        super().__init__(obs=obs)

    def begin(self, desired, origin="update"):
        with self._lock:
            update_id = self._next_update
            self._next_update += 1
        return update_id

    def record_member(self, update_id, member, outcome, via="flush"):
        pass

    def commit(self, update_id):
        pass

    def abort(self, update_id, reason=""):
        pass

    def resolve_member(self, member, via="resync"):
        return []

    def owed(self, update_id):
        return []

    def pending(self):
        return []

    def records(self):
        return []

    def status(self):
        return {"backend": "NullJournal", "updates": 0, "pending": [],
                "committed": 0, "aborted": 0, "truncated_tails": 0,
                "dropped_records": 0, "next_update_id": self._next_update}

    def reopen(self):
        return self
