"""The federation facade: members in, Figure 1 out.

:class:`Federation` manages a set of autonomous member databases (plain
row data, :class:`~repro.storage.database.StorageDatabase` instances, or
arbitrary :class:`~repro.multidb.connectors.MemberConnector` objects),
their schema styles, optional name mappings, and the user groups who
want customized views. ``install()`` generates and loads the whole
two-level mapping — unified view, customized views, maintenance and
view-update programs — onto an :class:`~repro.core.engine.IdlEngine`.

Members are autonomous systems the federation cannot assume are up
(paper Section 3), so every member sits behind a
:class:`~repro.multidb.resilience.ResilientConnector`: retries with
backoff, per-member circuit breakers, health counters. ``install()``
quarantines unreachable members instead of failing, ``query(...,
on_unavailable="partial")`` degrades gracefully with an availability
report, and ``probe()`` re-attaches and resyncs members when they
recover. See ``docs/fault_tolerance.md``.

Updates are *atomic across members*: every flush runs a write-ahead
update-commit protocol against an
:class:`~repro.multidb.journal.UpdateJournal` (intent with each
member's row changes, per-member apply outcomes, commit), and
``recover()`` replays incomplete updates idempotently after a crash —
so every member ends at exactly the pre-update or post-update state,
never a mix. The chaos property suite (``pytest -m chaos``) drives
random update workloads against deterministic crash schedules to hold
the federation to that invariant.

The whole pipeline is observable: the federation owns a
:class:`~repro.obs.Observability` (tracing on by default) shared with
its engine and every member connector, ``query``/``update``/``call``
open a root span, and the returned
:class:`~repro.multidb.results.QueryResult` /
:class:`~repro.multidb.results.UpdateResult` carry the span tree, the
EXPLAIN-style profile, the fixpoint statistics and a metrics snapshot.
See ``docs/observability.md``.
"""

from __future__ import annotations

from repro.core.engine import IdlEngine
from repro.core.parser import QUERY_MEMO_LIMIT
from repro.errors import (
    CircuitOpenError,
    FederationError,
    MemberUnavailableError,
    StaleMemberError,
    ValidationError,
)
from repro.multidb.adapters import storage_to_relations, universe_rows
from repro.multidb.changes import apply_change, full_change, member_changes
from repro.multidb.config import FederationConfig
from repro.multidb.connectors import _as_connector
from repro.multidb.executor import MemberExecutor, MemberTask
from repro.multidb.journal import InMemoryJournal
from repro.multidb.resilience import (
    CLOSED,
    MonotonicClock,
    ResiliencePolicy,
    ResilientConnector,
)
from repro.multidb.results import (
    APPLIED,
    SNAPSHOT_ONLY,
    UNCHANGED,
    QueryResult,
    UpdateResult,
)
from repro.obs import Observability, QueryProfile, TelemetryServer
from repro.multidb.transparency import (
    STYLES,
    customized_view_rule,
    maintenance_programs,
    member_view_rule,
    reconciliation_rule,
    unified_view_rules,
    view_update_programs,
)

# Availability statuses, worst first.
QUARANTINED = "quarantined"
CIRCUIT_OPEN = "circuit-open"
STALE = "stale"
OK = "ok"

# Call shapes the federation's own API issues against the control
# database, and per style against a user's customized view — the
# "declared call shapes" static validation must prove covered.
_CONTROL_SHAPES = (
    ("insStk", ("stk", "date", "price")),
    ("delStk", ("stk", "date")),
    ("rmStk", ("stk",)),
)
_STYLE_SHAPES = {
    "euter": (
        ("r", "+", ("date", "stkCode", "clsPrice")),
        ("r", "-", ("date", "stkCode")),
    ),
    "ource": (
        (None, "+", ("date", "clsPrice")),
        (None, "-", ("date",)),
    ),
    "chwab": (
        ("setPrice", None, ("stk", "date", "price")),
        ("delPrice", None, ("stk", "date")),
    ),
}


class MemberAvailability:
    """One member's availability at query time."""

    __slots__ = ("member", "status", "detail")

    def __init__(self, member, status, detail=""):
        self.member = member
        self.status = status
        self.detail = detail

    @property
    def available(self):
        return self.status in (OK, STALE)

    def __repr__(self):
        return (f"MemberAvailability({self.member!r}, {self.status!r}, "
                f"{self.detail!r})")


class AvailabilityReport:
    """Which members contributed to an answer, which were skipped, why."""

    def __init__(self, entries):
        self.entries = list(entries)

    def __iter__(self):
        return iter(self.entries)

    def status_of(self, member):
        for entry in self.entries:
            if entry.member == member:
                return entry.status
        raise FederationError(f"no member named {member!r}")

    @property
    def contributed(self):
        """Members whose data is in the answers (possibly stale)."""
        return {e.member for e in self.entries if e.available}

    @property
    def unavailable(self):
        """Members skipped entirely (quarantined or circuit-open)."""
        return {e.member for e in self.entries
                if e.status in (QUARANTINED, CIRCUIT_OPEN)}

    @property
    def stale(self):
        return {e.member for e in self.entries if e.status == STALE}

    @property
    def complete(self):
        return all(e.status == OK for e in self.entries)

    def __repr__(self):
        summary = ", ".join(f"{e.member}={e.status}" for e in self.entries)
        return f"AvailabilityReport({summary})"


class Federation:
    """A multidatabase federation with schematic discrepancies.

    Construction is configured by a
    :class:`~repro.multidb.config.FederationConfig` — pass one via
    ``config=`` or :meth:`from_config` (``None`` means the defaults).
    Its ``obs`` injects a configured :class:`~repro.obs.Observability`
    (e.g. with exporters, or ``enabled=False`` to turn tracing off); by
    default the federation builds its own with tracing enabled and
    shares it with the engine and every member connector.
    """

    def __init__(self, engine=None, config=None):
        if config is None:
            config = FederationConfig()
        self.config = config
        obs = config.obs
        journal = config.journal
        crash = config.crash
        if obs is None:
            obs = (engine.obs if engine is not None and engine.obs is not None
                   else Observability())
        self.obs = obs
        # The write-ahead update journal (see repro.multidb.journal):
        # every flush is journaled intent -> per-member apply -> commit,
        # so recover() can finish what a crash interrupted. Pass a
        # FileJournal for durability across processes, a NullJournal to
        # disable, or nothing for the in-memory default.
        self.journal = journal if journal is not None else InMemoryJournal()
        if self.journal.obs is None:
            self.journal.obs = obs
        # Deterministic crash-point injection (tests/chaos harness): a
        # CrashInjector visited before every journal append and every
        # member apply; None in production.
        self.crash = crash
        if crash is not None and self.journal.crash is None:
            self.journal.crash = crash
        self._recovered = False  # recover() ran at least once
        self.engine = engine if engine is not None else IdlEngine(obs=obs)
        if self.engine.obs is not obs:
            self.engine.use_observability(obs)
        # Static effect analysis drives member pruning (see
        # repro.analysis.effects): queries materialize only the view
        # rules their read set reaches; prune="off" restores the
        # scan-everything behavior. Flushes stage only the members an
        # update's change log names, whatever ``prune`` says.
        self.prune = config.prune
        self.engine.prune = config.prune == "on"
        self.unified_db = config.unified_db
        self.unified_relation = config.unified_relation
        self.control_db = config.control_db
        # Scatter-gather member I/O (see repro.multidb.executor and
        # docs/concurrency.md): every multi-member path — install
        # prefetch, probe sweeps, recovery replay, the two-phase flush
        # fan-out — runs through this executor; parallel="off" (or a
        # single member) degrades to the deterministic serial loops.
        self.executor = MemberExecutor(
            parallel=config.parallel,
            max_workers=config.max_workers,
            hedge_after=config.hedge_after,
            obs=obs,
        )
        self.members = {}  # name -> style (None until a deferred attach)
        self.users = {}  # user db name -> style
        self.mappings = {}  # member name -> (db, rel, from_attr, to_attr)
        self.storage_members = {}  # name -> StorageDatabase
        self.connectors = {}  # name -> ResilientConnector
        self.quarantined = {}  # name -> reason the member is detached
        self._attached = set()  # members snapshotted into the universe
        self._wired = set()  # members whose rules/programs are installed
        self._flushed = set()  # members with a real backend to flush to
        self._stale = {}  # name -> "push" | "pull" resync direction
        self._prefetched = {}  # name -> scanned relations (or None), from validation
        self._prefetch_errors = {}  # name -> install-prefetch failure
        self._member_order = None  # cached sorted member names
        # (reads, attached) -> (skipped, scanned): the member split of
        # one pruning footprint, see _record_prune
        self._prune_splits = {}
        self._installed = False
        self.last_validation = None  # DiagnosticReport of the last validate run
        # Live telemetry exposition (see repro.obs.server and
        # docs/observability.md): /metrics, /health, /slo, /traces/*.
        self.telemetry = None
        if config.telemetry_port is not None:
            self.start_telemetry(port=config.telemetry_port)

    @classmethod
    def from_config(cls, config, engine=None):
        """Build a federation from a
        :class:`~repro.multidb.config.FederationConfig` — the canonical
        construction path (see ``docs/architecture.md`` for the
        migration note)."""
        return cls(engine=engine, config=config)

    @property
    def member_order(self):
        """Member names in sorted order, computed once per membership
        change (probe sweeps and health reports used to re-sort on
        every call)."""
        if self._member_order is None:
            self._member_order = tuple(sorted(self.members))
        return self._member_order

    # -- membership -----------------------------------------------------------

    def add_member(self, name, style=None, relations=None, storage=None,
                   mapping=None, connector=None, policy=None, clock=None):
        """Register a member database.

        ``relations`` is ``{rel: rows}``; alternatively pass ``storage``
        (a StorageDatabase) or ``connector`` (any
        :class:`~repro.multidb.connectors.MemberConnector`) to reach the
        member through a transport that can fail. ``style=None``
        auto-detects the schema style from the data. ``mapping``
        optionally names the member's name-mapping relation as ``(db,
        rel, from_attr, to_attr)``. ``policy`` is a
        :class:`~repro.multidb.resilience.ResiliencePolicy` (explicit
        connectors default to the standard policy; plain data and
        storage members default to a passthrough policy preserving their
        historical fail-fast behavior); ``clock`` injects a fake clock
        for deterministic tests.

        Connector-backed members attach lazily: the first ``scan`` runs
        at :meth:`install`, which quarantines them if it fails.
        """
        if name in self.members:
            raise FederationError(f"member {name!r} already registered")
        if policy is None:
            if connector is not None:
                policy = (self.config.policy
                          if self.config.policy is not None
                          else ResiliencePolicy())
            else:
                policy = ResiliencePolicy.passthrough()
        deferred = connector is not None
        if not deferred:
            # Eager attach, exactly as before connectors existed: snapshot
            # now, fail the registration (not quarantine) on bad input.
            if storage is not None:
                relations = storage_to_relations(storage)
            style = self._resolve_style(name, style, relations)
            self.engine.add_database(name, relations or {})
            self._attached.add(name)
        resilient = ResilientConnector(
            name, _as_connector(relations, storage, connector), policy, clock,
            obs=self.obs,
        )
        self.connectors[name] = resilient
        if storage is not None:
            self.storage_members[name] = storage
        if storage is not None or connector is not None:
            self._flushed.add(name)
        self.members[name] = style
        self._member_order = None
        if mapping is not None:
            self.mappings[name] = mapping
        return self

    def _resolve_style(self, name, style, relations):
        if style is None:
            from repro.multidb.schema_styles import detect_style

            style = detect_style(relations or {})
            if style is None:
                raise FederationError(
                    f"cannot auto-detect the schema style of member "
                    f"{name!r}; pass style= explicitly"
                )
        if style not in STYLES:
            raise FederationError(f"unknown schema style {style!r}")
        return style

    def add_mapping_relation(self, member, rel, pairs, from_attr, to_attr):
        """Create a name-mapping relation in the control database and
        register it for ``member``: ``pairs`` maps member-local names to
        unified names."""
        self._ensure_control_db()
        rows = [{from_attr: local, to_attr: unified} for local, unified in pairs.items()]
        self.engine.universe.add_relation(self.control_db, rel, rows)
        self.mappings[member] = (self.control_db, rel, from_attr, to_attr)
        self.engine.invalidate()
        return self

    def add_user_view(self, name, style):
        """Declare a user group wanting a ``style``-shaped customized view."""
        if style not in STYLES:
            raise FederationError(f"unknown schema style {style!r}")
        if name in self.users or name in self.members:
            raise FederationError(f"database name {name!r} already in use")
        self.users[name] = style
        return self

    # -- installation -----------------------------------------------------------

    def install(self, reconcile=False, validate=None):
        """Generate and load the full two-level mapping.

        Idempotent: calling it again is a no-op (see :meth:`reinstall`
        to re-attach recovered members without rebuilding). Members
        whose connector cannot be reached are *quarantined* — install
        succeeds without them, their attach is deferred until a
        successful :meth:`probe` or :meth:`reinstall` — as long as at
        least one member attaches.

        ``validate`` runs ``idlcheck`` (see :mod:`repro.analysis`) over
        the program about to be installed, *before* any member is
        attached:

        * ``"off"`` (default) — no analysis, historical behavior;
        * ``"warn"`` — install regardless, but return the
          :class:`~repro.analysis.DiagnosticReport` instead of ``self``;
        * ``"strict"`` — raise :class:`~repro.errors.ValidationError`
          (carrying the report) when any error-severity diagnostic
          fires, leaving the federation un-installed and members
          un-attached.

        ``validate=None`` uses the federation config's default mode.
        """
        if validate is None:
            validate = self.config.validate
        if validate not in ("off", "warn", "strict"):
            raise FederationError(
                f"validate must be 'off', 'warn' or 'strict', not {validate!r}"
            )
        if self._installed:
            return self
        if not self.members:
            raise FederationError("no member databases registered")
        self._ensure_control_db()

        report = None
        if validate != "off":
            report = self.validation_report()
            if validate == "strict" and report.has_errors:
                raise ValidationError(report)

        # Scatter the initial scans of every deferred member before the
        # serial attach loop: each attach then reuses a warm snapshot,
        # so install's wall clock is bounded by the slowest member, not
        # the sum of all of them.
        self._prefetch_scans(
            [name for name in self.member_order
             if name not in self._attached
             and name not in self._prefetched
             and name not in self._prefetch_errors],
            record_errors=True,
        )
        with self.obs.span("federation.install", validate=validate) as span:
            for name in list(self.members):
                if name not in self._attached:
                    error = self._prefetch_errors.pop(name, None)
                    if error is not None:
                        self._quarantine(name, error)
                        continue
                    try:
                        self._attach(name)
                    except MemberUnavailableError as exc:
                        self._quarantine(name, exc)
            if not self._attached:
                raise MemberUnavailableError(
                    "every member is unavailable: "
                    + ", ".join(sorted(self.quarantined))
                )

            attached = {
                name: style for name, style in self.members.items()
                if name in self._attached
            }
            self.engine.define(
                unified_view_rules(
                    attached, self.unified_db, self.unified_relation,
                    self.mappings,
                )
            )
            if reconcile:
                self.engine.define(
                    reconciliation_rule(self.unified_db, self.unified_relation)
                )
            for user_db, style in self.users.items():
                rule, merge_on = customized_view_rule(
                    user_db, style, self.unified_db, self.unified_relation
                )
                self.engine.define(rule, merge_on=merge_on)

            self.engine.define_update(
                maintenance_programs(attached, self.control_db)
            )
            if self.users:
                self.engine.define_update(
                    view_update_programs(self.users, self.control_db)
                )
            self._wired |= set(attached)
            self._installed = True
            span.set("attached", sorted(self._attached))
            span.set("quarantined", sorted(self.quarantined))
        if validate == "warn":
            return report
        return self

    def reinstall(self):
        """Try to re-attach every quarantined member (after faults were
        repaired out of band). Members that still fail stay quarantined.
        """
        if not self._installed:
            return self.install()
        for name in sorted(self.quarantined):
            # Operator-initiated, so an open circuit gets its half-open
            # trial immediately instead of waiting out the timeout.
            self.connectors[name].breaker.force_half_open()
            try:
                self._attach(name)
            except MemberUnavailableError as exc:
                self._quarantine(name, exc)
        return self

    def _ensure_control_db(self):
        if not self.engine.universe.has(self.control_db):
            self.engine.universe.add_database(self.control_db)
            self.engine.invalidate()

    # -- static validation -------------------------------------------------------

    def required_shapes(self):
        """The :class:`~repro.analysis.CallShape` entry points this
        federation's API and users rely on: the control-database
        maintenance programs, plus each user view's update programs.

        Every shape declares the member set as its write footprint, so
        validation raises IDL060 when a translator clause's inferred
        write effects escape the federation (see
        :mod:`repro.analysis.effects`)."""
        from repro.analysis import CallShape

        footprint = frozenset(self.members)
        shapes = [
            CallShape(self.control_db, name, None, params,
                      origin="the federation maintenance API",
                      writes=footprint)
            for name, params in _CONTROL_SHAPES
        ]
        for user_db, style in sorted(self.users.items()):
            for name, sign, params in _STYLE_SHAPES[style]:
                shapes.append(CallShape(
                    user_db, name, sign, params,
                    origin=f"customized view {user_db!r} ({style}-style)",
                    writes=footprint,
                ))
        return shapes

    def validation_report(self, required=None):
        """Run ``idlcheck`` over the program :meth:`install` would load.

        Builds the member catalogs without attaching anyone: already
        attached members come from the engine universe; deferred
        (connector-backed) members are scanned once and the snapshot is
        cached for :meth:`_attach` to reuse, so validation never doubles
        a connector's observed traffic. Unreachable members become
        *opaque* catalog entries — references into them are not judged.
        """
        from repro.analysis import Catalog, check_statements
        from repro.core.parser import parse_program

        self._ensure_control_db()
        catalog = Catalog.from_universe(self.engine.universe)
        # Scatter the deferred members' scans up front (hedged, like
        # install's prefetch); unreachable members keep the historical
        # None marker so install's attach still rescans them once.
        self._prefetch_scans(
            [name for name in self.member_order
             if name not in self._attached and name not in self._prefetched],
            record_errors=False,
        )
        styles = {}
        for name in self.member_order:
            style = self.members[name]
            relations = None
            if name not in self._attached:
                relations = self._prefetched[name]
                if relations is None:
                    catalog.mark_opaque(name)
                    continue  # unreachable: no rules will be generated yet
                catalog.update(Catalog.from_relations({name: relations}))
            if style is None:
                try:
                    style = self._resolve_style(name, None, relations)
                except FederationError:
                    continue
            styles[name] = style

        # Everything the administrator already defined on the engine,
        # plus what install() is about to generate (unless it already
        # did — install is idempotent, so don't double the program).
        statements = [analyzed.rule for analyzed in self.engine.program.rules]
        for clause_list in self.engine.program.clauses.values():
            for clause in clause_list:
                if clause.clause_source is not None:
                    statements.append(clause.clause_source)
        if not self._installed:
            for source in self._prospective_sources(styles):
                statements.extend(parse_program(source))
        if required is None:
            required = self.required_shapes() if styles else ()
        report = check_statements(statements, catalog=catalog, required=required)
        self.last_validation = report
        return report

    def _prospective_sources(self, styles):
        """IDL source texts install() would define, for members whose
        style is already resolvable."""
        sources = []
        if styles:
            sources.append(unified_view_rules(
                styles, self.unified_db, self.unified_relation, self.mappings
            ))
        for user_db, style in self.users.items():
            rule, _merge_on = customized_view_rule(
                user_db, style, self.unified_db, self.unified_relation
            )
            sources.append(rule)
        if styles:
            sources.append(maintenance_programs(styles, self.control_db))
        if self.users:
            sources.append(view_update_programs(self.users, self.control_db))
        return [source for source in sources if source]

    # -- member lifecycle -------------------------------------------------------

    def _wall_deadline(self, name):
        """The member's policy deadline as a wall-clock bound for the
        scatter-gather executor — only when the member runs on a real
        clock (a fake clock makes logical deadlines meaningless against
        wall time, and enforcing them would make parallel and serial
        runs diverge)."""
        resilient = self.connectors[name]
        deadline = resilient.policy.deadline
        if deadline is None or not isinstance(resilient.clock,
                                              MonotonicClock):
            return None
        return deadline

    def _prefetch_scans(self, names, record_errors):
        """Scatter the initial scans of deferred members (hedged —
        scans are idempotent reads). Successes land in
        ``_prefetched`` for :meth:`_attach` to reuse; failures either
        quarantine at install (``record_errors=True``) or keep the
        validation-time ``None`` marker (``record_errors=False``)."""
        names = list(names)
        if not names:
            return
        tasks = [
            MemberTask(name, self.connectors[name].scan,
                       deadline=self._wall_deadline(name), hedge=True)
            for name in names
        ]
        for outcome in self.executor.map(tasks, label="prefetch"):
            if outcome.error is None:
                self._prefetched[outcome.name] = outcome.value
            elif isinstance(outcome.error, MemberUnavailableError):
                if record_errors:
                    self._prefetch_errors[outcome.name] = outcome.error
                else:
                    self._prefetched[outcome.name] = None
            else:
                raise outcome.error

    def _attach(self, name):
        """Snapshot ``name`` through its connector into the universe and
        (post-install) wire its rules and update programs."""
        if name in self._prefetched:
            # validation_report already scanned this member; reuse the
            # snapshot instead of consuming another connector call.
            relations = self._prefetched.pop(name)
            if relations is None:
                relations = self.connectors[name].scan()
        else:
            relations = self.connectors[name].scan()
        style = self._resolve_style(name, self.members[name], relations)
        self.members[name] = style
        self._load_member(name, relations)
        self._attached.add(name)
        self.quarantined.pop(name, None)
        self._stale.pop(name, None)
        if self._installed and name not in self._wired:
            self.engine.define(
                member_view_rule(
                    name, style, self.unified_db, self.unified_relation,
                    self.mappings.get(name),
                )
            )
            self.engine.define_update(
                maintenance_programs({name: style}, self.control_db)
            )
            self._wired.add(name)
        if self._recovered:
            # Post-recovery, the journal outranks the member's own state:
            # a member that was unreachable during recover() is rolled
            # forward through every pending update it still owes, not
            # left at the (pre-update) state the attach scan just
            # pulled. A failed delivery leaves it stale (push) and owed.
            owing = [update for update in self.journal.pending()
                     if name in update.remaining]
            if owing:
                with self.obs.span("federation.replay", member=name) as span:
                    for update in owing:
                        owed = {name: update.desired[name]}
                        self._patch_member(name, owed[name])
                        self._roll_forward(update.update_id, owed, span,
                                           via="recover")
        return self

    def _load_member(self, name, relations):
        """Make ``relations`` the universe's snapshot of ``name`` (the
        one place a registered member's snapshot is replaced)."""
        if self.engine.universe.has(name):
            self.engine.drop_database(name)
        self.engine.add_database(name, relations)

    def _patch_member(self, name, change):
        """Apply a journaled change to the universe's snapshot of
        ``name``, which then holds the state the member owes."""
        rows = universe_rows(self.engine.universe, name)
        self._load_member(name, apply_change(rows, change))

    def _quarantine(self, name, reason):
        """Detach ``name``: drop its snapshot, remember why. Its rules
        (if wired) stay installed and simply derive nothing."""
        if name in self._attached:
            self._attached.discard(name)
            if self.engine.universe.has(name):
                self.engine.drop_database(name)
        self.quarantined[name] = str(reason)
        self._stale.pop(name, None)

    def probe(self, name):
        """Health-probe one member; on success, recover it.

        A successful probe closes the member's breaker, re-attaches it
        if it was quarantined, and resyncs it if it was stale. Returns
        True when the member is healthy afterwards.
        """
        if name not in self.members:
            raise FederationError(f"no member named {name!r}")
        if not self.connectors[name].probe():
            return False
        return self._heal(name)

    def probe_all(self):
        """Probe every member concurrently; returns ``{name: healthy}``.

        The sweep differs from per-member :meth:`probe` in one
        deliberate way: it honors each member's circuit-breaker
        cooldown. A member whose circuit is open and still inside its
        recovery timeout is reported unhealthy *without being pinged*,
        so background sweeps cannot defeat the breaker (an
        operator-initiated :meth:`probe` still half-opens the circuit
        immediately). Members that probe healthy are then recovered —
        re-attached if quarantined, resynced if stale — serially on the
        gathering thread, exactly as :meth:`probe` would.
        """
        order = self.member_order
        tasks = [
            MemberTask(
                name,
                (lambda resilient=self.connectors[name]:
                 resilient.probe(force=False)),
                deadline=self._wall_deadline(name),
            )
            for name in order
        ]
        with self.obs.span("federation.probe_all", members=len(order)):
            outcomes = self.executor.map(tasks, label="probe_all")
            healthy = {
                outcome.name: (bool(outcome.value)
                               if outcome.error is None else False)
                for outcome in outcomes
            }
            for name in order:
                if healthy[name]:
                    healthy[name] = self._heal(name)
        return healthy

    def _heal(self, name):
        """The recovery step for a member that answered its probe:
        re-attach it if quarantined, resync it if stale. True when it
        ends attached and fresh — a member whose roll-forward failed as
        it re-attached is still stale, so it is not."""
        try:
            if name in self.quarantined:
                self._attach(name)
            elif name in self._stale:
                self.resync(name)
        except MemberUnavailableError:
            return False
        return name not in self._stale

    def resync(self, name):
        """Repair a stale member.

        Direction depends on how it went stale: a member that did not
        take a journaled state (a failed flush, recover or re-attach
        replay) is re-*pushed*; a member that recovered from an outage
        is re-*pulled* (the member is the authority on its own data).
        A push delivers the universe's snapshot of the member as a full
        change; the snapshot is the newest state the member owes (a
        flush stages its change after the engine applied it; recover
        and the re-attach replay apply the journaled change to it before
        delivering), so a successful push settles the member's share of
        every pending journaled update, committing updates it completes.
        """
        direction = self._stale.get(name, "pull")
        if direction == "push":
            self.connectors[name].apply(
                full_change(universe_rows(self.engine.universe, name))
            )
            self.journal.resolve_member(name, via="resync")
        else:
            self._load_member(name, self.connectors[name].scan())
        self._stale.pop(name, None)
        return self

    # -- crash recovery ---------------------------------------------------------

    def recover(self, journal=None):
        """Replay incomplete journaled updates at startup, idempotently.

        For every pending intent (oldest first), each member that never
        journaled an ``applied`` outcome is rolled *forward* through
        :meth:`_roll_forward` by its journaled change — which inserts if
        absent and deletes if present, so re-applying is idempotent and
        a second :meth:`recover` is a no-op. Members journaled applied
        are not touched. An attached member's universe snapshot (the
        state install scanned) has the change applied before delivery,
        so a member that fails its apply is stale (push), exactly as a
        failed flush leaves it, and the push resync that repairs it
        delivers the state it owes. A quarantined member stays
        quarantined; its share replays when it re-attaches. A
        pending update older than a later *committed* one is anomalous
        — replaying it would roll members backwards — and is aborted as
        superseded. Errors other than
        :class:`~repro.errors.MemberUnavailableError` propagate once
        the update's outcomes are recorded.

        ``journal`` (optional) adopts a different journal first —
        typically a :class:`~repro.multidb.journal.FileJournal` reopened
        after a crash. Requires an installed federation (the replay
        needs connectors and snapshots). Returns ``{update_id:
        [replayed members]}``.
        """
        if journal is not None:
            self.journal = journal
            if journal.obs is None:
                journal.obs = self.obs
            if self.crash is not None and journal.crash is None:
                journal.crash = self.crash
        if not self._installed:
            raise FederationError(
                "install() the federation before recover(): replay needs "
                "attached members and their connectors"
            )
        journal = self.journal
        replayed = {}
        with self.obs.span("federation.recover") as root:
            root.set("truncated_tails", journal.truncated_tails)
            pending = journal.pending()
            root.set("pending", [update.update_id for update in pending])
            for update in pending:
                if update.seq < journal.last_committed_seq:
                    journal.abort(update.update_id, "superseded by a later "
                                                    "committed update")
                    root.event("abort-superseded",
                               update_id=update.update_id)
                    continue
                owed = {}
                for member in update.remaining:
                    if member not in self.members:
                        root.event("skip-unknown-member",
                                   update_id=update.update_id, member=member)
                        continue
                    owed[member] = update.desired[member]
                    if member in self._attached:
                        self._patch_member(member, owed[member])
                failures = self._roll_forward(update.update_id, owed, root,
                                              via="recover")
                for error in failures.values():
                    if not isinstance(error, MemberUnavailableError):
                        raise error
                done = [member for member in owed if member not in failures]
                if done:
                    replayed[update.update_id] = done
            self._recovered = True
            root.set("replayed", sum(len(v) for v in replayed.values()))
        return replayed

    def _roll_forward(self, update_id, owed, span, via, fail_fast=False):
        """Deliver journaled member changes: the one routine behind the
        flush, :meth:`recover` and the replay at re-attach.

        ``owed`` maps each member to its journaled change under
        ``update_id``; its universe snapshot already has the change
        applied. Each member's worker visits the ``connector.apply``
        crash point, applies the change and journals ``applied`` — or
        ``failed``, re-raising — with ``via``. Back on the gathering
        thread (the engine is not thread-safe), a member that applied
        leaves ``_stale``; every other one (failed, timed out, or
        skipped by a serial ``fail_fast`` run) is stale (push) unless
        quarantined.
        The update commits once the journal owes none of its desired
        members. Returns ``{member: error}`` for the failures, in
        member order.
        """

        def deliver(name, change):
            self._crash_point("connector.apply")
            try:
                self.connectors[name].apply(change)
            except Exception:
                self.journal.record_member(update_id, name, "failed", via=via)
                raise
            self.journal.record_member(update_id, name, "applied", via=via)

        tasks = [
            MemberTask(name,
                       (lambda name=name, change=change:
                        deliver(name, change)),
                       deadline=self._wall_deadline(name))
            for name, change in owed.items()
        ]
        failures = {}
        for outcome in self.executor.map(tasks, label=via,
                                         fail_fast=fail_fast):
            name = outcome.name
            if outcome.ok:
                self._stale.pop(name, None)
                continue
            if name not in self.quarantined:
                self._stale[name] = "push"
            if outcome.error is not None:
                failures[name] = outcome.error
                span.event("member-failed", update_id=update_id,
                           member=name, via=via, error=str(outcome.error))
        if not self.journal.owed(update_id):
            self.journal.commit(update_id)
            span.event("journal-commit", update_id=update_id)
        return failures

    # -- availability -----------------------------------------------------------

    def availability(self):
        """Per-member availability right now (an AvailabilityReport)."""
        entries = []
        for name in self.member_order:
            if name in self.quarantined:
                entries.append(MemberAvailability(
                    name, QUARANTINED, self.quarantined[name]))
            elif self.connectors[name].breaker.state != CLOSED:
                entries.append(MemberAvailability(
                    name, CIRCUIT_OPEN,
                    f"breaker {self.connectors[name].breaker.state}"))
            elif name in self._stale:
                entries.append(MemberAvailability(
                    name, STALE, f"pending {self._stale[name]} resync"))
            else:
                entries.append(MemberAvailability(name, OK))
        return AvailabilityReport(entries)

    def health_report(self):
        """Structured per-member health counters and breaker states,
        plus the update journal's status under the ``"journal"`` key
        (backend, pending update ids, committed/aborted counts,
        truncated tails — see :mod:`repro.multidb.journal`)."""
        report = {}
        # One availability pass for the whole report (this used to call
        # availability() — itself a full sweep — once per member).
        statuses = {
            entry.member: entry.status for entry in self.availability()
        }
        for name in self.member_order:
            resilient = self.connectors[name]
            entry = resilient.health.as_dict()
            entry["breaker"] = resilient.breaker.state
            entry["status"] = statuses[name]
            report[name] = entry
        report["journal"] = self.journal.status()
        return report

    # -- telemetry exposition --------------------------------------------------

    def start_telemetry(self, port=0, host="127.0.0.1"):
        """Start (or return the already-running)
        :class:`~repro.obs.server.TelemetryServer` for this federation:
        ``/metrics`` (Prometheus text), ``/health``, ``/slo`` and
        ``/traces/*`` on ``host:port`` (``port=0`` binds an ephemeral
        port — read it back from ``federation.telemetry.port``)."""
        if self.telemetry is None:
            self.telemetry = TelemetryServer(
                self.obs, federation=self, host=host, port=port
            )
        return self.telemetry.start()

    def stop_telemetry(self):
        """Stop the telemetry server, if one is running."""
        if self.telemetry is not None:
            self.telemetry.stop()
            self.telemetry = None

    def _check_available(self):
        """Raise the most specific degradation error, if any; else
        return the (all-available) AvailabilityReport."""
        report = self.availability()
        quarantined = sorted(
            e.member for e in report if e.status == QUARANTINED
        )
        if quarantined:
            raise MemberUnavailableError(
                f"member(s) unavailable: {', '.join(quarantined)} "
                f'(query with on_unavailable="partial" for a degraded '
                f"answer)",
                member=quarantined[0],
            )
        opened = sorted(e.member for e in report if e.status == CIRCUIT_OPEN)
        if opened:
            raise CircuitOpenError(
                f"circuit open for member(s): {', '.join(opened)} "
                f'(query with on_unavailable="partial" for a degraded '
                f"answer)",
                member=opened[0],
            )
        stale = sorted(report.stale)
        if stale:
            raise StaleMemberError(
                f"member(s) stale: {', '.join(stale)} (resync them or "
                f'query with on_unavailable="partial")',
                member=stale[0],
            )
        return report

    # -- convenience -----------------------------------------------------------

    def query(self, source, *, on_unavailable="fail", **params):
        """Answer a query; returns a :class:`QueryResult`.

        With ``on_unavailable="fail"`` (the default) the federation
        insists on full availability: a quarantined member, an open
        circuit, or a stale snapshot raises instead of silently
        answering from a subset. With ``on_unavailable="partial"`` the
        answer is computed from whatever is available; the result's
        ``availability`` report names the members that contributed, the
        ones that were skipped, and why.

        The result is still the plain list of answers, and additionally
        carries ``stats``, ``profile``, ``trace`` and ``metrics`` (see
        :mod:`repro.multidb.results`).
        """
        if on_unavailable not in ("fail", "partial"):
            raise FederationError(
                f'on_unavailable must be "fail" or "partial", '
                f"got {on_unavailable!r}"
            )
        with self.obs.metrics.request() as request_metrics, self.obs.span(
            "federation.query", on_unavailable=on_unavailable
        ) as root:
            # A query changes no member's availability: the strict
            # mode's report stands for the answer too.
            availability = (self._check_available()
                            if on_unavailable == "fail" else None)
            answers = self.engine.query(source, **params)
            self._record_prune(self.engine.last_prune, root)
            if availability is None:
                availability = self.availability()
            root.set("answers", len(answers))
            skipped = sorted(availability.unavailable | availability.stale)
            if skipped:
                root.set("unavailable", skipped)
        return self._query_result(answers, availability, root,
                                  request_metrics)

    def _record_prune(self, decision, root):
        """Count members the query provably skipped vs scanned, and
        leave a span event explaining the pruning decision."""
        if decision is None:
            return
        reads = decision.reads if decision.applied else None
        skipped, scanned = self._member_split(reads)
        metrics = self.obs.metrics
        if skipped:
            metrics.counter("analysis.prune.skipped").inc(len(skipped))
        if scanned:
            metrics.counter("analysis.prune.scanned").inc(len(scanned))
        root.event(
            "member-pruning",
            reason=decision.reason,
            rules=f"{decision.rules_used}/{decision.rules_total}",
            skipped=list(skipped),
            scanned=list(scanned),
        )

    def _member_split(self, reads):
        """``(skipped, scanned)``: the attached members, sorted, that a
        query reading ``reads`` (None: not pruned) provably skips and
        the rest. Computed once per footprint and attached set."""
        key = (reads, frozenset(self._attached))
        split = self._prune_splits.get(key)
        if split is None:
            attached = sorted(self._attached)
            skipped = () if reads is None else tuple(
                name for name in attached if not reads.touches_db(name))
            scanned = tuple(name for name in attached if name not in skipped)
            split = (skipped, scanned)
            if len(self._prune_splits) >= QUERY_MEMO_LIMIT:
                self._prune_splits.clear()
            self._prune_splits[key] = split
        return split

    def _query_result(self, answers, availability, root, request_metrics):
        enabled = self.obs.enabled
        return QueryResult(
            answers,
            availability=availability,
            stats=self.engine.last_fixpoint_stats,
            profile=QueryProfile(root) if enabled else None,
            trace=root if enabled else None,
            metrics=request_metrics.snapshot(),
        )

    def ask(self, source, **params):
        return self.engine.ask(source, **params)

    def update(self, source, **params):
        """Execute an update request, then flush the affected members
        under the journaled two-phase protocol.

        Refused outright (before any mutation) while any member is
        quarantined, circuit-open, or stale: translated updates must
        reach *every* member or none (the paper's all-or-nothing update
        semantics), and a member we cannot reach — or whose snapshot we
        know diverges — would silently miss its share. The flush itself
        is write-ahead journaled (intent → per-member outcome →
        commit), so a crash mid-flush leaves a durable record that
        :meth:`recover` replays. Returns a federation
        :class:`~repro.multidb.results.UpdateResult` with per-member
        apply outcomes and the journal ``update_id``.
        """
        with self.obs.metrics.request() as request_metrics, \
                self.obs.span("federation.update") as root:
            self._check_available()
            engine_result = self.engine.update(source, **params)
            outcomes, flushed, update_id = self._flush_if_changed(
                engine_result, root, origin="update"
            )
        return self._update_result(engine_result, outcomes, flushed, root,
                                   update_id, request_metrics)

    def call(self, program, **args):
        """Call a control-database update program (same availability and
        flush rules as :meth:`update`)."""
        with self.obs.metrics.request() as request_metrics, \
                self.obs.span("federation.call", program=program) as root:
            self._check_available()
            engine_result = self.engine.call(self.control_db, program, **args)
            outcomes, flushed, update_id = self._flush_if_changed(
                engine_result, root, origin=f"call:{program}"
            )
        return self._update_result(engine_result, outcomes, flushed, root,
                                   update_id, request_metrics)

    def write_footprint(self, source):
        """The :class:`~repro.analysis.effects.Effects` of an update
        request — what :meth:`update` would read and write, without
        executing anything (REPL ``:footprint`` uses this)."""
        statement = self.engine._one_query(source)
        return self.engine.effect_analysis().request_footprint(statement)

    def _flush_if_changed(self, engine_result, root, origin="update"):
        """Two-phase flush when the engine mutated anything; returns
        ``(member_outcomes, flushed, update_id)``.

        Phase one *stages*: the change log (``engine_result.delta``)
        is split by member into one change per backed member it names —
        its net ``+rows``/``-rows`` per relation, with any relation the
        update changed symbolically re-encoded whole from the universe
        — and journaled as one intent record (the write-ahead step —
        nothing has touched a member yet). Members the update left
        alone are not journaled and report ``UNCHANGED``. Phase two
        *applies*: each staged member's connector takes its change
        under the usual retry/circuit machinery, and its outcome is
        journaled as it lands; a fully-applied update is closed with a
        commit record. A crash anywhere in between leaves a pending
        intent that :meth:`recover` replays idempotently.
        """
        if not engine_result.changed:
            root.set("flushed", False)
            outcomes = {name: UNCHANGED for name in sorted(self._attached)}
            return outcomes, False, None
        with self.obs.span("federation.flush") as span:
            targets = self._flushed & self._attached
            narrowed = targets & {prefix[0]
                                  for prefix in engine_result.touched}
            universe = self.engine.universe
            staged = member_changes(
                engine_result.delta, narrowed,
                lambda name, relations: universe_rows(universe, name,
                                                      relations),
            ) if narrowed else {}
            outcomes = {
                name: SNAPSHOT_ONLY
                for name in sorted(self._attached - self._flushed)
            }
            for name in sorted(targets - narrowed):
                outcomes[name] = UNCHANGED
            if targets - narrowed:
                span.event("intent-narrowed",
                           staged=sorted(narrowed),
                           outside_write_set=sorted(targets - narrowed))
            update_id = None
            if staged:
                update_id = self.journal.begin(staged, origin=origin)
                span.set("update_id", update_id)
                span.event("journal-intent", update_id=update_id,
                           members=sorted(staged))
                # The applies fan out (each worker journals its outcome
                # under the journal lock); the intent above and the
                # commit stay serial, so the write-ahead ordering holds.
                # Serially the first failure stops the loop and later
                # members are never touched. The universe already holds
                # the staged changes, so nothing is reloaded, and every
                # member that did not apply is left stale (push).
                failures = self._roll_forward(update_id, staged, span,
                                              via="flush", fail_fast=True)
                if failures:
                    raise next(iter(failures.values()))
                outcomes.update(dict.fromkeys(staged, APPLIED))
            span.set("members", sorted(staged))
        root.set("flushed", True)
        return outcomes, True, update_id

    def _crash_point(self, site):
        if self.crash is not None:
            self.crash.visit(site)

    def _update_result(self, engine_result, outcomes, flushed, root,
                       update_id=None, request_metrics=None):
        enabled = self.obs.enabled
        return UpdateResult(
            engine_result,
            member_outcomes=outcomes,
            flushed=flushed,
            availability=self.availability(),
            profile=QueryProfile(root) if enabled else None,
            trace=root if enabled else None,
            metrics=(request_metrics.snapshot() if request_metrics is not None
                     else self.obs.metrics.snapshot()),
            update_id=update_id,
        )

    def insert_quote(self, stk, date, price):
        return self.call("insStk", stk=stk, date=date, price=price)

    def delete_quote(self, stk, date):
        return self.call("delStk", stk=stk, date=date)

    def remove_stock(self, stk):
        return self.call("rmStk", stk=stk)

    def unified_quotes(self):
        """All (date, stk, price) rows of the unified view."""
        results = self.query(
            f"?.{self.unified_db}.{self.unified_relation}"
            "(.date=D, .stk=S, .price=P)"
        )
        return sorted(
            (answer["D"], answer["S"], answer["P"]) for answer in results
        )

    def discrepancy_report(self, min_score=0.5):
        """Scan the members for schematic discrepancies; returns text."""
        from repro.multidb.discrepancy import detect_discrepancies, report

        return report(
            detect_discrepancies(self.engine.universe, min_score=min_score)
        )

    def __repr__(self):
        return (
            f"Federation(members={self.members}, users={self.users}, "
            f"installed={self._installed})"
        )
