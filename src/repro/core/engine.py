"""The IDL engine facade.

:class:`IdlEngine` is the one-stop public entry point: it owns a base
:class:`~repro.objects.universe.Universe`, an
:class:`~repro.core.program.IdlProgram` of views and update programs, a
materialization cache, and an update executor. Typical use::

    engine = IdlEngine()
    engine.add_database("euter", {"r": [...]})
    engine.define(".dbI.p(.date=D,.stk=S,.price=P) <- "
                  ".euter.r(.date=D,.stkCode=S,.clsPrice=P)")
    engine.query("?.dbI.p(.stk=S, .price>200)")
    engine.update("?.euter.r+(.date=3/5/85,.stkCode=hp,.clsPrice=70)")

Queries run against the *merged* view (base universe plus one derived
overlay per materialized stratum); updates run against the base universe
only. An update is a transaction (atomic by default) whose change log is
its undo log: a failure replays the log in reverse, so its cost follows
the rows the request changed, not the size of the universe. A successful
update then repairs or drops the cached views it affected.
"""

from __future__ import annotations

from repro.core import ast
from repro.core.evaluator import EvalContext, answers, holds
from repro.core.parser import parse_program
from repro.core.program import IdlProgram
from repro.core.update_programs import UpdateExecutor
from repro.errors import IdlError, SemanticError
from repro.objects.merged import MergedTuple
from repro.objects.universe import Universe
from repro.obs.trace import NOOP_TRACER


class QueryAnswer:
    """One answer: variable bindings rendered as plain Python values."""

    __slots__ = ("bindings",)

    def __init__(self, bindings):
        self.bindings = bindings

    def __getitem__(self, name):
        return self.bindings[name]

    def __contains__(self, name):
        return name in self.bindings

    def get(self, name, default=None):
        return self.bindings.get(name, default)

    def keys(self):
        return self.bindings.keys()

    def items(self):
        return self.bindings.items()

    def __eq__(self, other):
        if isinstance(other, QueryAnswer):
            return self.bindings == other.bindings
        if isinstance(other, dict):
            return self.bindings == other
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.bindings.items()))

    def __repr__(self):
        return f"QueryAnswer({self.bindings!r})"


class PruneDecision:
    """Why the last query did (or did not) run against a pruned view.

    ``applied`` — only a rule subset had to be live; ``reads`` — the
    query's closed read :class:`~repro.analysis.effects.EffectSet`
    (None when the analysis did not run); ``rules_used`` /
    ``rules_total`` — how many view rules were materialized out of the
    program; ``reason`` — ``"off"``, ``"no-rules"``, ``"full"`` (the
    read set needs every rule) or ``"pruned"``.
    """

    __slots__ = ("applied", "reads", "rules_used", "rules_total", "reason")

    def __init__(self, applied, reads, rules_used, rules_total, reason):
        self.applied = applied
        self.reads = reads
        self.rules_used = rules_used
        self.rules_total = rules_total
        self.reason = reason

    def __repr__(self):
        return (f"PruneDecision({self.reason}, "
                f"rules={self.rules_used}/{self.rules_total})")


class IdlEngine:
    """A multidatabase engine speaking IDL.

    ``obs`` optionally attaches a :class:`repro.obs.Observability`:
    queries, updates and view maintenance then run inside spans
    (federation → engine → fixpoint strata). The engine and evaluator
    count their work on those spans, never per probe, and their metrics
    (``fixpoint.iterations``, ``evaluator.index.hits``, ...) derive from
    them with tracing on or off (:data:`repro.obs.metrics.SPAN_METRICS`):
    benchmark B3 asserts a disabled :class:`~repro.obs.Observability`
    costs within 5% of ``obs=None`` (the default). With tracing on,
    queries also collect node-visit counters.

    With ``prune`` True (the federation turns it on by default),
    queries are first run through the static effect analysis
    (:mod:`repro.analysis.effects`): only the view rules the query's
    read set can reach must be materialized, so a query that provably
    touches one member never pays for the others. :attr:`last_prune`
    records the most recent decision.

    Materialized views live in one cache keyed by strongly-connected
    component (SCC) of the rule graph — the tuple of rule identities
    that is one stratum — and shared by pruned and full queries. Rules
    with equal heads share an SCC, so each derived path has one live
    owner (the 16 member rules of the unified view are one SCC). An SCC
    is live while it is in the cache, the live set stays closed under
    dependencies, and every query reads the base universe merged with
    the live SCC overlays themselves — there is no combined copy:
    pruning only decides which missing SCCs to materialize first.

    With ``maintain`` True (the default), an update repairs the live
    SCCs it dirtied in place from its concrete insert/delete deltas
    (incremental view maintenance): a non-recursive SCC by counting
    derivations — its counts, recorded when it is materialized, are
    kept beside its overlay — and a recursive one by DRed for
    deletions and delta-seeded semi-naive for insertions; see
    :func:`repro.core.fixpoint.maintain_stratum`. An SCC whose repair
    could be unsound — including one whose head overlaps another SCC's
    without being equal (``shared-head``) — is dropped instead,
    together with its dependents, and the next query that needs it
    re-materializes only those; set ``maintain=False`` to drop every
    dirty SCC.
    """

    def __init__(self, universe=None, program=None, fixpoint_method="seminaive",
                 reorder=True, obs=None, use_indexes=True, prune=False,
                 maintain=True):
        from repro.core.integrity import ConstraintSet

        self.universe = universe if universe is not None else Universe()
        self.program = program if program is not None else IdlProgram()
        self.fixpoint_method = fixpoint_method
        self.eval_ctx = EvalContext(reorder=reorder, use_indexes=use_indexes)
        self.constraints = ConstraintSet()
        self.obs = None
        self._tracer = NOOP_TRACER
        if obs is not None:
            self.use_observability(obs)
        self.prune = prune
        self.maintain = maintain
        self.last_prune = None
        self._last_stats = None  # stats of the last query's materialization
        self._effects = None
        self._effects_version = None
        self.invalidate()

    def use_observability(self, obs):
        """Attach an :class:`~repro.obs.Observability` (the federation
        shares its own with the engine so spans nest in one trace)."""
        self.obs = obs
        self._tracer = self.eval_ctx.tracer = obs.tracer
        return self

    # -- data management -----------------------------------------------------

    def add_database(self, name, relations=None):
        """Register a database; ``relations`` maps names to row dicts."""
        from repro.objects import encode

        db = encode.database(relations or {})
        self.universe.add_database(name, db)
        self.invalidate()
        return db

    def drop_database(self, name):
        self.universe.drop_database(name)
        self.invalidate()

    # -- program management -----------------------------------------------------

    def define(self, source_or_rule, merge_on=()):
        """Register view definition rule(s); returns the analyzed rules."""
        added = self.program.add_rule(source_or_rule, merge_on=merge_on)
        self.invalidate()
        return added

    def define_update(self, source_or_clause):
        """Register update program clause(s)."""
        return self.program.add_update_clause(source_or_clause)

    def load(self, source):
        """Load a mixed program text (rules and update clauses)."""
        added = self.program.load(source)
        self.invalidate()
        return added

    # -- materialization -----------------------------------------------------

    def invalidate(self):
        """Drop every materialized overlay (after out-of-band changes)."""
        self._sccs = {}  # SCC key -> overlay, live SCCs in evaluation order
        # SCC key -> derivation counts, for the live non-recursive SCCs
        self._counts = {}
        # Live SCCs whose head overlaps another SCC's without being
        # equal: a reader of the shared path sees the union, not their
        # own change, so they fall back instead of repairing.
        self._shared = set()
        self._overlay = MergedTuple.over(self._sccs.values())
        self._stats = None

    def _selective_invalidate(self, delta):
        """Repair — or drop — the live SCCs an update affected.

        ``delta`` is the update's
        :class:`~repro.core.updates.UpdateDelta`; its ``(db, rel)``
        prefixes are the touched paths. A rule is dirty when it reads
        (or defines) a target overlapping a touched path or a dirty
        rule's target, transitively. Clean SCCs stay live as they are.
        With ``maintain`` on, dirty SCCs are repaired in place
        (:meth:`_repair_strata`); otherwise they are dropped, and the
        next query that needs them re-materializes only those.
        """
        from repro.core.terms import Const

        if not self._sccs:
            return

        touched_patterns = [
            tuple(Const(name) for name in prefix)
            for prefix in delta.prefixes()
        ]
        dirty_ids = {id(rule) for rule in self._dirty_rules(touched_patterns)}
        dirty = [key for key in self._sccs if not dirty_ids.isdisjoint(key)]
        if not dirty:
            # The update touched nothing a live view reads: the cache
            # stays valid (queries merge the live base underneath).
            return
        if self.maintain:
            self._repair_strata(dirty_ids, touched_patterns, delta)
            return
        self._drop(dirty)

    def _dirty_rules(self, touched_patterns):
        """Rules whose output the update may have changed: those reading
        or defining a touched path, closed transitively through the
        targets of dirty rules."""
        from repro.core.rules import patterns_overlap

        dirty = []
        dirty_ids = set()
        frontier = list(touched_patterns)
        progress = True
        while progress:
            progress = False
            for rule in self.program.rules:
                if id(rule) in dirty_ids:
                    continue
                if any(
                    patterns_overlap(pattern, changed)
                    for pattern, _ in rule.references
                    for changed in frontier
                ) or any(
                    patterns_overlap(rule.target, changed)
                    for changed in frontier
                ):
                    dirty.append(rule)
                    dirty_ids.add(id(rule))
                    frontier.append(rule.target)
                    progress = True
        return dirty

    def _repair_strata(self, dirty_ids, touched_patterns, delta):
        """Incremental view maintenance over the live SCCs.

        Walks the live SCCs in evaluation order, repairing each dirty
        overlay in place from the accumulated concrete deltas (the
        update's own changes plus the changes of already repaired SCCs):
        by counting when the SCC is non-recursive, by DRed when it is
        recursive. Each derived path has one live owner, so the facts a
        repair adds and removes are exactly the changes a downstream SCC
        reads. An SCC that must fall back — see
        :func:`repro.core.fixpoint.maintenance_plan`, plus
        ``shared-head`` for an SCC whose head overlaps another's — is
        dropped; its targets join the unknown deltas, so every dirty SCC
        reading them is dropped too.
        """
        from repro.core import fixpoint
        from repro.core.rules import patterns_overlap
        from repro.core.terms import Const

        stats = fixpoint.FixpointStats(self.fixpoint_method)
        inserts, deletes, symbolic = delta.fold()
        # The accumulated deltas, built once per pass and grown as each
        # SCC is repaired.
        insert_delta = fixpoint.paths_overlay(inserts)
        delete_delta = fixpoint.paths_overlay(deletes)
        # Paths whose delta is unknown: symbolic records, plus the
        # targets of any SCC that fell back — SCCs reading them cannot
        # be repaired.
        unknown = [tuple(Const(name) for name in path)
                   for path in sorted(symbolic)]
        changed_patterns = list(touched_patterns)
        seeded = (sum(len(v) for v in inserts.values())
                  + sum(len(v) for v in deletes.values()))
        rules = {id(rule): rule for rule in self.program.rules}
        view = self._live_view()
        methods = {"counting": 0, "dred": 0}
        dropped = []
        context = self._context()
        with self._tracer.span("fixpoint.maintain") as span:
            for key, overlay in self._sccs.items():
                if dirty_ids.isdisjoint(key):
                    continue
                stratum = [rules[rule_id] for rule_id in key]
                variants = None
                if key in self._shared:
                    reason = "shared-head"
                elif any(
                    patterns_overlap(pattern, unk)
                    for rule in stratum
                    for pattern, _ in rule.references
                    for unk in unknown
                ) or any(
                    patterns_overlap(rule.target, unk)
                    for rule in stratum
                    for unk in unknown
                ):
                    reason = "unknown-delta"
                else:
                    variants, reason = fixpoint.maintenance_plan(
                        stratum, changed_patterns
                    )
                if reason is None:
                    counts = self._counts.get(key)
                    try:
                        added, removed = fixpoint.maintain_stratum(
                            stratum, variants, view, overlay, insert_delta,
                            delete_delta, counts, stats, context,
                        )
                    except fixpoint.MaintenanceAborted as aborted:
                        # The overlay is partially mutated: unusable.
                        reason = aborted.reason
                if reason is None:
                    for changes, accumulated in ((added, insert_delta),
                                                 (removed, delete_delta)):
                        for names, elements in changes.items():
                            for element in elements.values():
                                fixpoint.set_path_fact(accumulated, names,
                                                       element)
                    method = "dred" if counts is None else "counting"
                    methods[method] += 1
                    span.event(
                        "stratum-repaired",
                        method=method,
                        added=sum(len(v) for v in added.values()),
                        removed=sum(len(v) for v in removed.values()),
                    )
                else:
                    dropped.append(key)
                    unknown = unknown + [rule.target for rule in stratum]
                    span.event("stratum-fallback", reason=reason)
                changed_patterns.extend(rule.target for rule in stratum)
            span.set("strata", len(self._sccs))
            span.set("repaired", methods["counting"] + methods["dred"])
            span.set("counting", methods["counting"])
            span.set("dred", methods["dred"])
            span.set("fallbacks", len(dropped))
            span.set("seeded", seeded)
            span.set("overdeleted", stats.maintain_overdeleted)
            span.set("rederived", stats.maintain_rederived)
            context.report(span)
        self._stats.add(stats)
        self._drop(dropped)

    def _drop(self, keys):
        """Forget the live SCCs ``keys``; the next query that needs them
        re-materializes them."""
        for key in keys:
            del self._sccs[key]
            self._counts.pop(key, None)
            self._shared.discard(key)

    def _live_view(self):
        """The base universe merged with every live SCC overlay."""
        return MergedTuple(self.universe, *self._sccs.values())

    def _materialize(self, rules):
        """Make every SCC of ``rules`` — a dependency-closed subset of
        the program, in program order, so it stratifies into the same
        SCC keys as the whole program — live, reusing the live ones."""
        from repro.core import fixpoint
        from repro.core.rules import patterns_overlap

        live = set().union(*self._sccs)
        if all(id(rule) in live for rule in rules):
            return
        strata, stats = fixpoint.materialize_strata(
            rules,
            self.universe,
            method=self.fixpoint_method,
            context=self._context(),
            reuse=self._sccs,
        )
        for key, stratum, overlay in strata:
            if key not in self._sccs:
                self._sccs[key] = overlay
                if key in stats.derivation_counts:
                    self._counts[key] = stats.derivation_counts[key]
                # ``rules`` holds every rule whose head overlaps one of
                # its own (the effect analysis closes over heads).
                if any(patterns_overlap(rule.target, other.target)
                       for rule in stratum for other in rules
                       if id(other) not in key):
                    self._shared.add(key)
        stats.derivation_counts.clear()
        self._stats = stats if self._stats is None else self._stats.add(stats)

    def materialized_view(self):
        """The merged (base + derived) universe with every SCC live."""
        if not self.program.rules:
            return self.universe
        self._materialize(self.program.rules)
        return self._live_view()

    @property
    def overlay(self):
        """The derived facts, materializing every SCC if needed: a
        read-only view over the live SCC overlays that keeps its
        identity until :meth:`invalidate`."""
        self.materialized_view()
        return self._overlay

    @property
    def fixpoint_stats(self):
        """Stats of the live materialization: the runs that built its
        SCCs since the last full invalidation, plus their repairs."""
        self.materialized_view()
        return self._stats

    @property
    def last_fixpoint_stats(self):
        """Stats of the SCC cache the last query read, or None when it
        read no derived path. This is the same cumulative object as
        :attr:`fixpoint_stats` — every run since the last full
        invalidation plus every repair, SCCs the query did not need
        included — so it keeps changing as later queries and updates
        materialize or repair SCCs. Unlike :attr:`fixpoint_stats`,
        reading it never forces a full materialization (which would
        defeat pruning)."""
        return self._last_stats

    # -- effect analysis -----------------------------------------------------

    def effect_analysis(self):
        """The (cached) static effect analysis of the current program."""
        from repro.analysis.effects import EffectAnalysis

        version = (
            len(self.program.rules),
            sum(len(clauses) for clauses in self.program.clauses.values()),
        )
        if self._effects is None or self._effects_version != version:
            self._effects = EffectAnalysis(self.program)
            self._effects_version = version
        return self._effects

    def _view_for(self, statement):
        """The view a query statement evaluates against.

        Every query reads the base universe merged with the live SCC
        overlays. Without pruning, every SCC is made
        live first. With pruning, the statement's read set (closed
        through view rules) selects the dependency-closed rule subset
        the answer can depend on, and only the SCCs of that subset that
        are not live yet are materialized.
        """
        rules = self.program.rules
        total = len(rules)
        if not rules:
            self._last_stats = None
            self.last_prune = PruneDecision(False, None, 0, 0, "no-rules")
            return self.universe
        if not self.prune:
            needed = rules
            self.last_prune = PruneDecision(False, None, total, total, "off")
        else:
            reads, needed = self.effect_analysis().query_footprint(statement)
            if len(needed) == total:
                self.last_prune = PruneDecision(
                    False, reads, total, total, "full"
                )
            else:
                self.last_prune = PruneDecision(
                    True, reads, len(needed), total, "pruned"
                )
        if not needed:
            # The query provably reads no derived path.
            self._last_stats = None
            return self.universe
        self._materialize(needed)
        self._last_stats = self._stats
        return self._live_view()

    # -- queries ------------------------------------------------------------

    def query(self, source, **params):
        """Answer a query; returns a list of :class:`QueryAnswer`.

        ``params`` pre-bind variables: ``engine.query("?.db.r(.a=X,.b=Y)",
        X=3)``. With observability attached, the evaluation runs inside
        ``engine.query``/``engine.evaluate`` spans; with tracing on, the
        profiling counters land on the ``engine.evaluate`` span.
        """
        results = self._answers(source, params, self._view_for)
        return [QueryAnswer(answer_bindings(substitution))
                for substitution in results]

    def ask(self, source, **params):
        """Boolean query: is the expression satisfiable?"""
        return self._holds(source, params, self._view_for)

    def _read_request(self, source):
        statement = self._one_query(source)
        if statement.is_update_request:
            raise SemanticError("this is an update request; use update()")
        return statement

    def _answers(self, source, params, view_of):
        """Evaluate a query over ``view_of(statement)`` in an
        ``engine.query`` span (authorized sessions read through here)."""
        statement = self._read_request(source)
        context = self._context(profile=self._tracer.enabled)
        with self._tracer.span("engine.query") as span:
            view = view_of(statement)
            with self._tracer.span("engine.evaluate") as evaluate_span:
                results = answers(statement, view, params or None, context)
                evaluate_span.set("answers", len(results))
                if context.node_counts is not None:
                    evaluate_span.set("counters", context.counters)
            span.set("answers", len(results))
            context.report(span)
        return results

    def _holds(self, source, params, view_of):
        """Like :meth:`_answers`, for a boolean query (``engine.ask``)."""
        statement = self._read_request(source)
        context = self._context()
        with self._tracer.span("engine.ask") as span:
            result = holds(statement, view_of(statement), params or None,
                           context)
            span.set("satisfiable", result)
            context.report(span)
        return result

    def _context(self, profile=False):
        """A fresh evaluation context with the engine's options."""
        options = self.eval_ctx
        return EvalContext(options.reorder, profile, options.tracer,
                           options.use_indexes)

    # -- updates ------------------------------------------------------------

    def update(self, source, atomic=True, check=None, **params):
        """Execute an update request (program calls and view updates
        included); the request still *succeeds-or-not* per the paper's
        success/failure semantics — inspect the returned UpdateResult.

        Every change lands in the request's change log,
        ``result.delta`` (:class:`~repro.core.updates.UpdateDelta`),
        which is also its undo log. With ``atomic=True`` an error — in
        evaluation, from a declared constraint, or from ``check`` —
        replays the log in reverse: the base ends equal to its
        pre-state, in iteration order too, and the live view cache
        stays as it was, since views are maintained only after success.
        With ``atomic=False`` an error keeps the partial work, re-keys
        the sets under the touched paths and drops the view cache. A
        successful request re-keys each set element it mutates as it
        goes, so it needs no reindex pass; it then repairs or drops the
        views it dirtied.

        ``check``, when given, is called with the change log once the
        request and the constraints have run, before any view is
        maintained; it rejects the request by raising an
        :class:`~repro.errors.IdlError` (an authorized session checks
        its write grants this way).
        """
        from repro.core.updates import UpdateContext, reindex_touched

        statement = self._one_query(source)
        context = self._context()
        executor = UpdateExecutor(self.program, self.universe, context)
        uctx = UpdateContext(context)
        with self._tracer.span("engine.update") as span:
            try:
                result = executor.execute_request(statement, params or None,
                                                  uctx=uctx)
                if len(self.constraints):
                    self.constraints.enforce(self.universe)
                if check is not None:
                    check(uctx.delta)
            except IdlError:
                if atomic:
                    uctx.delta.undo()
                else:
                    reindex_touched(self.universe, uctx.delta.prefixes())
                    self.invalidate()
                span.set("rolled_back", atomic)
                raise
            span.set("inserted", result.inserted)
            span.set("deleted", result.deleted)
            span.set("modified", result.modified)
            span.set("touched", sorted(".".join(p) for p in result.touched))
            context.report(span)
        if result.changed:
            self._selective_invalidate(result.delta)
        return result

    def declare_key(self, db, rel, columns):
        """Declare a key constraint (``rel`` may be ``"*"``); the current
        state must already satisfy it, else the declaration is refused."""
        constraint = self.constraints.declare_key(db, rel, columns)
        try:
            self.constraints.enforce(self.universe)
        except IdlError:
            self.constraints.keys.remove(constraint)
            raise
        return constraint

    def declare_type(self, db, rel, attr, type_class, nullable=True):
        """Declare a type constraint; the current state must satisfy it."""
        constraint = self.constraints.declare_type(
            db, rel, attr, type_class, nullable
        )
        try:
            self.constraints.enforce(self.universe)
        except IdlError:
            self.constraints.types.remove(constraint)
            raise
        return constraint

    def call(self, db, program, **args):
        """Convenience: call an update program with keyword arguments.

        ``engine.call("dbU", "insStk", stk="hp", date="3/5/85", price=70)``
        is ``engine.update("?.dbU.insStk(.stk=A0, .date=A1, .price=A2)",
        A0="hp", A1="3/5/85", A2=70)``: the values are bound as
        parameters, not rendered into the text (see
        :func:`call_request`), so every call of a program with the same
        argument names shares one text and parses once. A value must be
        a string or a number; anything else raises
        :class:`~repro.errors.SemanticError`.
        """
        source, params = call_request(db, program, args)
        return self.update(source, **params)

    # -- helpers ------------------------------------------------------------

    def _one_query(self, source):
        if isinstance(source, ast.Query):
            return source
        statements = parse_program(source)
        if len(statements) != 1 or not isinstance(statements[0], ast.Query):
            raise SemanticError("expected a single '?' statement")
        return statements[0]

    def __repr__(self):
        return (
            f"IdlEngine(databases={self.universe.database_names()}, "
            f"rules={len(self.program.rules)}, "
            f"programs={len(self.program.clauses)})"
        )


def answer_bindings(substitution):
    """One answer's variable bindings as plain Python values, by name."""
    return {name: obj.to_python()
            for name, obj in sorted(substitution.as_dict().items())}


def call_request(db, program, args):
    """The request that calls ``.db.program`` with keyword ``args``.

    Returns ``(source, params)``: one constant text per ``(db, program,
    argument names)``, whose i-th argument is the variable ``Ai``, and
    the parameters binding each ``Ai`` to its value — the call site's
    terms are evaluated under those bindings. Only strings and numbers
    are IDL literals: a bool, None or any other value raises
    :class:`~repro.errors.SemanticError`.
    """
    items, params = [], {}
    for index, (key, value) in enumerate(args.items()):
        if isinstance(value, bool):
            raise SemanticError("boolean literals are not part of IDL syntax")
        if not isinstance(value, (str, int, float)):
            raise SemanticError(
                f"cannot render {type(value).__name__} as an IDL literal"
            )
        items.append(f".{key}=A{index}")
        params[f"A{index}"] = value
    return f"?.{db}.{program}({', '.join(items)})", params

