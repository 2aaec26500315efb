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

Queries run against the *merged* view (base universe plus materialized
derived overlay); updates run against the base universe only, wrapped in
a snapshot transaction (atomic by default), and then repair or drop the
cached views they affected.
"""

from __future__ import annotations

from repro.core import ast
from repro.core.evaluator import EvalContext, answers, holds
from repro.core.parser import parse_program
from repro.core.program import IdlProgram
from repro.core.update_programs import UpdateExecutor
from repro.errors import IdlError, SemanticError
from repro.objects.merged import MergedTuple
from repro.objects.tuple import TupleObject
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
    (federation → engine → fixpoint strata). The engine counts its work
    only on those spans, and its metrics (``fixpoint.iterations``, ...)
    are derived from them with tracing on or off (see
    :data:`repro.obs.metrics.SPAN_METRICS`). With tracing on, queries
    also collect node-visit counters. With ``obs=None`` (the default) the
    engine takes the exact pre-observability query path — benchmark B3
    asserts a disabled :class:`~repro.obs.Observability` costs within 5%
    of it.

    With ``prune`` True (the federation turns it on by default),
    queries are first run through the static effect analysis
    (:mod:`repro.analysis.effects`): only the view rules the query's
    read set can reach must be materialized, so a query that provably
    touches one member never pays for the others. :attr:`last_prune`
    records the most recent decision.

    Materialized views live in one cache keyed by strongly-connected
    component (SCC) of the rule graph — the tuple of rule identities
    that is one stratum — and shared by pruned and full queries. An SCC
    is live while it is in the cache, the live set stays closed under
    dependencies, and every query reads the base universe merged with
    the combined overlay of the live SCCs: pruning only decides which
    missing SCCs to materialize first.

    With ``maintain`` True (the default), an update repairs the live
    SCCs it dirtied in place from its concrete insert/delete deltas
    (incremental view maintenance: DRed for deletions, delta-seeded
    semi-naive for insertions) — see
    :func:`repro.core.fixpoint.maintain_stratum`. An SCC whose repair
    could be unsound is dropped instead, together with its dependents,
    and the next query that needs it re-materializes only those; set
    ``maintain=False`` to drop every dirty SCC.
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
        self.eval_ctx.metrics = obs.metrics
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
        self._overlay = TupleObject()  # union of the live SCC overlays
        self._stats = None

    def _selective_invalidate(self, touched, delta=None):
        """Repair — or drop — the live SCCs an update affected.

        ``touched`` is the set of ``(db, rel)`` prefixes reported by the
        update evaluator; ``delta`` (optional) its concrete
        :class:`~repro.core.updates.UpdateDelta`. A rule is dirty when
        it reads (or defines) a target overlapping a touched path or a
        dirty rule's target, transitively. Clean SCCs stay live as they
        are. With ``maintain`` on and a concrete delta, dirty SCCs are
        repaired in place (:meth:`_repair_strata`); otherwise they are
        dropped, and the next query that needs them re-materializes
        only those.
        """
        from repro.core.terms import Const

        if any(len(prefix) == 0 for prefix in touched):
            self.invalidate()
            return
        if not self._sccs:
            return

        touched_patterns = [
            tuple(Const(name) for name in prefix) for prefix in touched
        ]
        dirty_ids = {id(rule) for rule in self._dirty_rules(touched_patterns)}
        dirty = [key for key in self._sccs if not dirty_ids.isdisjoint(key)]
        if not dirty:
            # The update touched nothing a live view reads: the cache
            # stays valid (queries merge the live base underneath).
            return
        if self.maintain and delta is not None:
            self._repair_strata(dirty_ids, touched_patterns, delta)
            return
        self._drop(dirty, {}, {})

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
        update's own changes plus the derived changes of already
        repaired SCCs). An SCC that must fall back (see
        :func:`repro.core.fixpoint.maintenance_plan`) is dropped; its
        targets join the unknown deltas, so every dirty SCC reading
        them is dropped too. :meth:`_drop` then patches the combined
        overlay with the net derived changes and rebuilds the paths the
        dropped SCCs fed.
        """
        from repro.core import fixpoint
        from repro.core.rules import patterns_overlap
        from repro.core.terms import Const

        stats = fixpoint.FixpointStats(self.fixpoint_method)
        acc_inserts, acc_deletes, symbolic = delta.fold()
        acc_inserts = {path: dict(elems) for path, elems in acc_inserts.items()}
        acc_deletes = {path: dict(elems) for path, elems in acc_deletes.items()}
        # Paths whose delta is unknown: symbolic records, plus the
        # targets of any SCC that fell back — SCCs reading them cannot
        # be repaired.
        unknown = [tuple(Const(name) for name in path)
                   for path in sorted(symbolic)]
        changed_patterns = list(touched_patterns)
        seeded = (sum(len(v) for v in acc_inserts.values())
                  + sum(len(v) for v in acc_deletes.values()))
        rules = {id(rule): rule for rule in self.program.rules}
        derived_added = {}
        derived_removed = {}
        repaired = 0
        dropped = []
        with self._tracer.span("fixpoint.maintain") as span:
            view_base = self.universe
            for key, overlay in self._sccs.items():
                if dirty_ids.isdisjoint(key):
                    view_base = MergedTuple(view_base, overlay)
                    continue
                stratum = [rules[rule_id] for rule_id in key]
                variants = None
                if any(
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
                    try:
                        added, removed = fixpoint.maintain_stratum(
                            stratum, variants, view_base, overlay,
                            fixpoint.paths_overlay(acc_inserts),
                            fixpoint.paths_overlay(acc_deletes),
                            stats, self.eval_ctx,
                        )
                    except fixpoint.MaintenanceAborted as aborted:
                        # The overlay is partially mutated: unusable.
                        reason = aborted.reason
                if reason is None:
                    for names, elements in added.items():
                        acc_inserts.setdefault(names, {}).update(elements)
                        derived_added.setdefault(names, {}).update(elements)
                    for names, elements in removed.items():
                        acc_deletes.setdefault(names, {}).update(elements)
                        derived_removed.setdefault(names, {}).update(elements)
                    repaired += 1
                    span.event(
                        "stratum-repaired",
                        added=sum(len(v) for v in added.values()),
                        removed=sum(len(v) for v in removed.values()),
                    )
                    view_base = MergedTuple(view_base, overlay)
                else:
                    dropped.append(key)
                    unknown = unknown + [rule.target for rule in stratum]
                    span.event("stratum-fallback", reason=reason)
                changed_patterns.extend(rule.target for rule in stratum)
            span.set("strata", len(self._sccs))
            span.set("repaired", repaired)
            span.set("fallbacks", len(dropped))
            span.set("seeded", seeded)
            span.set("overdeleted", stats.maintain_overdeleted)
            span.set("rederived", stats.maintain_rederived)
        self._stats.add(stats)
        self._drop(dropped, derived_added, derived_removed)

    def _drop(self, keys, added, removed):
        """Forget the live SCCs ``keys`` and patch the combined overlay.

        ``added``/``removed`` (``{path: {value_key: element}}``) are the
        net derived changes of SCCs repaired in the same pass. Several
        SCCs can derive into one path (each member's rule of the unified
        view is its own SCC), so a removed fact leaves the combined
        overlay only when no live SCC still holds it. Every combined
        path a dropped SCC's rules could derive into is then rebuilt
        from the live SCCs: a repair that aborted has already discarded
        part of its overlay, so what is left of it does not tell which
        facts it contributed.
        """
        from repro.core.fixpoint import (
            apply_path_deltas, ensure_relation, overlay_relation,
            overlay_relations, prune_empty_path,
        )
        from repro.core.rules import patterns_overlap
        from repro.core.terms import Const

        rules = {id(rule): rule for rule in self.program.rules}
        targets = [rules[rule_id].target for key in keys for rule_id in key]
        for key in keys:
            del self._sccs[key]
        stale = [
            names for names, _ in overlay_relations(self._overlay)
            if any(patterns_overlap(target, tuple(Const(n) for n in names))
                   for target in targets)
        ]
        for names, elements in removed.items():
            live = self._live_relations(names)
            removed[names] = {
                key: element for key, element in elements.items()
                if not any(relation.contains_value(element)
                           for relation in live)
            }
        apply_path_deltas(self._overlay, added, removed)
        for names in stale:
            combined = overlay_relation(self._overlay, names)
            if combined is not None:
                combined.clear()
                prune_empty_path(self._overlay, names)
            for relation in self._live_relations(names):
                combined = ensure_relation(self._overlay, names)
                for element in relation:
                    combined.add(element)

    def _live_relations(self, names):
        """The relations at path ``names`` of the live SCC overlays."""
        from repro.core.fixpoint import overlay_relation

        relations = (overlay_relation(overlay, names)
                     for overlay in self._sccs.values())
        return [relation for relation in relations if relation is not None]

    def _materialize(self, rules):
        """Make every SCC of ``rules`` — a dependency-closed subset of
        the program, in program order, so it stratifies into the same
        SCC keys as the whole program — live, reusing the live ones."""
        from repro.core import fixpoint

        live = set().union(*self._sccs)
        if all(id(rule) in live for rule in rules):
            return
        strata, stats = fixpoint.materialize_strata(
            rules,
            self.universe,
            method=self.fixpoint_method,
            context=self.eval_ctx,
            reuse=self._sccs,
        )
        for key, _, overlay in strata:
            if key not in self._sccs:
                self._sccs[key] = overlay
                fixpoint.merge_into(self._overlay, overlay)
        self._stats = stats if self._stats is None else self._stats.add(stats)

    def materialized_view(self):
        """The merged (base + derived) universe with every SCC live."""
        if not self.program.rules:
            return self.universe
        self._materialize(self.program.rules)
        return MergedTuple(self.universe, self._overlay)

    @property
    def overlay(self):
        """The derived overlay (materializing if needed)."""
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

        Every query reads the base universe merged with the combined
        overlay of the live SCCs. Without pruning, every SCC is made
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
        return MergedTuple(self.universe, self._overlay)

    # -- queries ------------------------------------------------------------

    def query(self, source, **params):
        """Answer a query; returns a list of :class:`QueryAnswer`.

        ``params`` pre-bind variables: ``engine.query("?.db.r(.a=X,.b=Y)",
        X=3)``. With observability attached, the evaluation runs inside
        ``engine.query``/``engine.evaluate`` spans; with tracing on, the
        profiling counters land on the ``engine.evaluate`` span.
        """
        statement = self._one_query(source)
        if statement.is_update_request:
            raise SemanticError(
                "this is an update request; use IdlEngine.update()"
            )
        if self.obs is None:
            view = self._view_for(statement)
            results = answers(statement, view, params or None, self.eval_ctx)
            return self._render_answers(results)
        obs = self.obs
        with obs.span("engine.query") as span:
            view = self._view_for(statement)
            context = self._query_context()
            with obs.span("engine.evaluate") as evaluate_span:
                results = answers(statement, view, params or None, context)
                evaluate_span.set("answers", len(results))
                if context.counters is not None:
                    evaluate_span.set("counters", dict(context.counters))
            span.set("answers", len(results))
        return self._render_answers(results)

    def ask(self, source, **params):
        """Boolean query: is the expression satisfiable?"""
        statement = self._one_query(source)
        if statement.is_update_request:
            raise SemanticError("this is an update request; use IdlEngine.update()")
        if self.obs is None:
            return holds(statement, self._view_for(statement), params or None,
                         self.eval_ctx)
        with self.obs.span("engine.ask") as span:
            view = self._view_for(statement)
            result = holds(statement, view, params or None,
                           self._query_context())
            span.set("satisfiable", result)
        return result

    def _render_answers(self, results):
        return [
            QueryAnswer(
                {
                    name: obj.to_python()
                    for name, obj in sorted(substitution.as_dict().items())
                }
            )
            for substitution in results
        ]

    def _query_context(self):
        """With tracing on, a per-statement evaluation context that
        collects node-visit counters while sharing the engine tracer
        and metrics; with tracing off, the shared ``eval_ctx``."""
        shared = self.eval_ctx
        if not shared.tracer.enabled:
            return shared
        return EvalContext(reorder=shared.reorder, profile=True,
                           tracer=shared.tracer, metrics=shared.metrics,
                           use_indexes=shared.use_indexes)

    # -- updates ------------------------------------------------------------

    def update(self, source, atomic=True, **params):
        """Execute an update request (program calls and view updates
        included). ``atomic=True`` snapshots the universe and rolls back
        on any error; the request still *succeeds-or-not* per the paper's
        success/failure semantics — inspect the returned UpdateResult."""
        from repro.core.updates import UpdateContext, UpdateDelta

        statement = self._one_query(source, allow_update=True)
        executor = UpdateExecutor(self.program, self.universe, self.eval_ctx)
        # Capture concrete element-level deltas only when some SCC is
        # live to maintain with them; otherwise the capture hooks stay
        # no-ops and the update pays nothing.
        capture = self.maintain and bool(self._sccs)
        uctx = UpdateContext(self.eval_ctx,
                             delta=UpdateDelta() if capture else None)
        snapshot = self.universe.snapshot() if atomic else None
        with self._tracer.span("engine.update") as span:
            try:
                result = executor.execute_request(statement, params or None,
                                                  uctx=uctx)
                # Value-keyed set indexes only go stale when an element
                # was mutated in place; pure insert/delete requests keep
                # every surviving key intact.
                if uctx.modified:
                    self._reindex_universe()
                if len(self.constraints):
                    self.constraints.enforce(self.universe)
            except IdlError:
                if snapshot is not None:
                    self._restore(snapshot)
                else:
                    # Non-atomic failure: the base may be partially mutated,
                    # so cached views (and set indexes) must not survive.
                    self._reindex_universe()
                    self.invalidate()
                span.set("rolled_back", snapshot is not None)
                raise
            span.set("inserted", result.inserted)
            span.set("deleted", result.deleted)
            span.set("modified", result.modified)
            span.set("touched", sorted(".".join(p) for p in result.touched))
        if result.changed:
            self._selective_invalidate(result.touched, result.delta)
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
        is ``engine.update("?.dbU.insStk(.stk='hp', ...)")``.
        """
        items = ", ".join(f".{key}={_literal(value)}" for key, value in args.items())
        return self.update(f"?.{db}.{program}({items})")

    def _restore(self, snapshot):
        for name in list(self.universe.attr_names()):
            self.universe.remove(name)
        for name in snapshot.attr_names():
            self.universe.set(name, snapshot.get(name))
        self.invalidate()

    def _reindex_universe(self):
        """Rebuild set value-indexes after in-place element mutation."""
        _reindex(self.universe)

    # -- helpers ------------------------------------------------------------

    def _one_query(self, source, allow_update=False):
        if isinstance(source, ast.Query):
            return source
        statements = parse_program(source)
        if len(statements) != 1 or not isinstance(statements[0], ast.Query):
            raise SemanticError("expected a single '?' statement")
        statement = statements[0]
        return statement

    def __repr__(self):
        return (
            f"IdlEngine(databases={self.universe.database_names()}, "
            f"rules={len(self.program.rules)}, "
            f"programs={len(self.program.clauses)})"
        )


def _literal(value):
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace("'", "\\'")
        return f"'{escaped}'"
    if isinstance(value, bool):
        raise SemanticError("boolean literals are not part of IDL syntax")
    if isinstance(value, (int, float)):
        return repr(value)
    raise SemanticError(f"cannot render {type(value).__name__} as an IDL literal")


def _reindex(obj):
    if obj.is_set:
        # Direct view iteration is safe: recursing mutates the elements'
        # own internals, never this set's key dict; reindex() runs after
        # the loop completes (and only bumps the version — invalidating
        # attribute indexes — when the mapping actually changed).
        for element in obj:
            _reindex(element)
        obj.reindex()
    elif obj.is_tuple:
        for name in obj.attr_names():
            _reindex(obj.get(name))
