"""Fixpoint evaluation of stratified rule programs.

Two strategies:

* **naive** — every rule of a stratum re-evaluates against the full
  (base + overlay) view each round until no change;
* **semi-naive** (default) — after the first full round, recursive rules
  re-evaluate once per same-stratum body conjunct, with that conjunct
  redirected at the *delta* (facts new in the previous round). The
  redirection works syntactically: conjunct ``.dbI.p(...)`` becomes
  ``.__delta__.dbI.p(...)`` and the evaluation view gains a ``__delta__``
  member mirroring the overlay paths of last round's new facts. Rules
  whose same-stratum references are not top-level conjuncts (or that use
  merge semantics) fall back to full re-evaluation, preserving
  correctness.

Both strategies produce identical overlays (property-tested); benchmark
B3 measures the difference on recursive workloads. A non-recursive
stratum takes one round under either, and counts the derivations of
each fact as it goes — the input of its incremental maintenance (see
the maintenance section below).
"""

from __future__ import annotations

from repro.core import ast
from repro.core.rules import (
    body_references,
    derive_once,
    make_true,
    patterns_overlap,
    resolve_target,
)
from repro.core.evaluator import satisfy
from repro.core.stratify import is_recursive_stratum, stratify
from repro.core.substitution import Substitution
from repro.core.terms import Const, Var
from repro.core.updates import build_object
from repro.obs.trace import NOOP_TRACER
from repro.objects.atom import Atom
from repro.objects.base import same_value
from repro.objects.merged import MergedTuple
from repro.objects.set import SetObject
from repro.objects.tuple import TupleObject

DELTA_ROOT = "__delta__"


class FixpointStats:
    """Instrumentation for one materialization run.

    ``maintain_overdeleted``/``maintain_rederived`` count the facts the
    DRed passes of :func:`maintain_stratum` removed and restored; only
    recursive strata run DRed, so both stay 0 while every repaired
    stratum is non-recursive. The other repair counts of each
    maintenance pass live on its ``fixpoint.maintain`` span.

    ``derivation_counts`` maps the key of every non-recursive stratum a
    :func:`materialize_strata` run evaluated to that stratum's
    derivation counts (see :func:`maintain_stratum`); :meth:`add` does
    not carry it over, since the counts belong beside their overlay.
    """

    COUNTS = ("rounds", "rule_firings", "derivations", "reused_strata",
              "maintain_overdeleted", "maintain_rederived")
    __slots__ = ("strategy", "derivation_counts") + COUNTS

    def __init__(self, strategy):
        self.strategy = strategy
        self.derivation_counts = {}
        for name in self.COUNTS:
            setattr(self, name, 0)

    def add(self, other):
        """Accumulate another run's counts into this one."""
        for name in self.COUNTS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        return self

    def __repr__(self):
        return (
            f"FixpointStats({self.strategy}, rounds={self.rounds}, "
            f"firings={self.rule_firings}, derivations={self.derivations}, "
            f"reused={self.reused_strata})"
        )


def materialize(analyzed_rules, universe, method="seminaive", context=None):
    """Materialize all derived views over ``universe``.

    Returns ``(overlay, stats)``: a TupleObject holding every derived
    fact (the base universe is untouched) and run statistics.
    """
    strata_overlays, stats = materialize_strata(
        analyzed_rules, universe, method=method, context=context
    )
    return combine_overlays(
        [overlay for _, _, overlay in strata_overlays]
    ), stats


def materialize_strata(analyzed_rules, universe, method="seminaive",
                       context=None, reuse=None):
    """Materialize per-stratum overlays, reusing clean cached ones.

    Returns ``([(key, stratum, overlay), ...], stats)`` in evaluation
    order. ``reuse`` maps a stratum key (tuple of rule identities) to a
    previously-computed overlay known to still be valid — the engine's
    selective re-materialization passes the overlays of strata whose
    inputs were not touched by the last update. A non-recursive stratum
    counts its derivations as it evaluates (under either ``method``:
    it takes one round both ways); the counts of each such stratum
    evaluated here land in ``stats.derivation_counts`` under its key.
    Every stratum reads one merged view over the universe and the
    overlays built so far, its own included.
    """
    if method not in ("naive", "seminaive"):
        raise ValueError(f"unknown fixpoint method {method!r}")
    tracer = (context.tracer if context is not None
              and context.tracer is not None else NOOP_TRACER)
    evaluate = _seminaive_stratum if method == "seminaive" else _naive_stratum
    stats = FixpointStats(method)
    overlays = []
    parts = [universe]
    view = MergedTuple.over(parts)
    with tracer.span("fixpoint.materialize", method=method) as outer:
        for index, stratum in enumerate(stratify(analyzed_rules)):
            key = tuple(id(analyzed) for analyzed in stratum)
            cached = reuse.get(key) if reuse else None
            with tracer.span("fixpoint.stratum", index=index,
                             rules=len(stratum)) as span:
                if cached is not None:
                    overlay = cached
                    parts.append(overlay)
                    stats.reused_strata += 1
                    span.set("reused", True)
                else:
                    overlay = TupleObject()
                    parts.append(overlay)
                    run = FixpointStats(method)
                    if _countable(stratum):
                        stats.derivation_counts[key] = _count_stratum(
                            stratum, view, overlay, run, context)
                    else:
                        evaluate(stratum, view, overlay, run, context)
                    stats.add(run)
                    span.set("reused", False)
                    span.set("rounds", run.rounds)
                    span.set("firings", run.rule_firings)
                    span.set("derivations", run.derivations)
                if tracer.enabled:
                    span.set("facts", count_overlay_facts(overlay))
            overlays.append((key, stratum, overlay))
        outer.set("strata", len(overlays))
        outer.set("rounds", stats.rounds)
        outer.set("firings", stats.rule_firings)
        outer.set("derivations", stats.derivations)
        outer.set("reused_strata", stats.reused_strata)
        if context is not None:
            context.report(outer)
    return overlays, stats


def combine_overlays(overlays):
    """Deep-merge overlay tuples into one (sets union, tuples recurse)."""
    combined = TupleObject()
    for overlay in overlays:
        merge_into(combined, overlay)
    return combined


def merge_into(target, source):
    """Deep-merge ``source`` into the overlay ``target``.

    Tuples and sets are created fresh in ``target``, but set elements
    are shared, not copied: a derived element is never mutated once the
    stratum that built it is complete (repairs add and remove whole
    elements), and neither is an update-delta element.
    """
    for name in source.attr_names():
        incoming = source.get(name)
        existing = target.get(name) if target.has(name) else None
        if incoming.is_tuple and (existing is None or existing.is_tuple):
            if existing is None:
                existing = TupleObject()
                target.set(name, existing)
            merge_into(existing, incoming)
        elif incoming.is_set and (existing is None or existing.is_set):
            if existing is None:
                existing = SetObject()
                target.set(name, existing)
            # incoming and existing are distinct objects (source overlays
            # are never the combined target), so the view iteration is
            # safe while existing mutates.
            for element in incoming:
                existing.add(element)
        else:
            target.set(name, incoming.copy())


def _naive_stratum(stratum, view, overlay, stats, context):
    """``view`` merges ``overlay`` with everything the stratum reads."""
    recursive = is_recursive_stratum(stratum)
    while True:
        stats.rounds += 1
        changes = 0
        for analyzed in stratum:
            stats.rule_firings += 1
            changes += derive_once(analyzed, view, overlay, context)
        stats.derivations += changes
        if changes == 0 or not recursive:
            break


def _seminaive_stratum(stratum, view, overlay, stats, context):
    """``view`` merges ``overlay`` with everything the stratum reads."""
    recursive = is_recursive_stratum(stratum)
    targets = [analyzed.target for analyzed in stratum]

    # Round 0: full evaluation, recording new facts into the delta.
    delta = TupleObject()
    stats.rounds += 1
    for analyzed in stratum:
        stats.rule_firings += 1
        stats.derivations += _derive_tracking_delta(
            analyzed, view, overlay, delta, context
        )
    if not recursive:
        return

    variants = [_delta_variants(analyzed, targets) for analyzed in stratum]

    while _has_facts(delta):
        stats.rounds += 1
        next_delta = TupleObject()
        delta_view = MergedTuple(view, TupleObject({DELTA_ROOT: delta}))
        for analyzed, rule_variants in zip(stratum, variants):
            if rule_variants is None:
                # Fallback: full re-evaluation for this rule.
                stats.rule_firings += 1
                stats.derivations += _derive_tracking_delta(
                    analyzed, view, overlay, next_delta, context
                )
                continue
            for variant_body in rule_variants:
                stats.rule_firings += 1
                for subst in satisfy(variant_body, delta_view, None, context):
                    changed = make_true(analyzed, subst, overlay)
                    if changed is not None:
                        stats.derivations += 1
                        _track_delta(analyzed, subst, changed, next_delta)
        delta = next_delta


def _countable(stratum):
    """Can the stratum keep derivation counts? It must be non-recursive
    (no rule reads a head of the stratum) and build whole elements: a
    merge rule extends elements in place and a relation-only rule
    builds none."""
    return not is_recursive_stratum(stratum) and all(
        analyzed.constructor is not None and not analyzed.merge_on
        for analyzed in stratum
    )


def _count_stratum(stratum, view, overlay, stats, context):
    """The one round of a non-recursive stratum, counting derivations.

    A derivation is one substitution the body's evaluation yields, not
    one set insertion: a fact two substitutions build — say, through
    different values of a variable the head does not use — has 2,
    although the value-based set holds it once. The delta-redirected
    bodies of :func:`maintain_stratum` enumerate derivations the same
    way, so adding and subtracting their counts stays exact. Returns
    ``{(path, value_key): derivations}`` for the facts with more than
    one; a fact of the overlay missing from it has exactly one, which
    is the common case and costs no memory. Rules with equal heads
    share the stratum, so a quote ``k`` members hold (one rule each in
    the unified view) has a count of ``k``, and a member's delete only
    lowers it. No rule reads the stratum's own targets.
    """
    counts = {}
    stats.rounds += 1
    for analyzed in stratum:
        stats.rule_firings += 1
        for subst in satisfy(analyzed.body, view, None, context):
            names = tuple(resolve_target(analyzed.target, subst))
            element = build_object(analyzed.constructor, subst)
            if ensure_relation(overlay, names).add(element):
                stats.derivations += 1
            else:
                fact = (names, element.value_key())
                counts[fact] = counts.get(fact, 1) + 1
    return counts


def _derive_tracking_delta(analyzed, view, overlay, delta, context):
    changes = 0
    for subst in satisfy(analyzed.body, view, None, context):
        changed = make_true(analyzed, subst, overlay)
        if changed is not None:
            changes += 1
            _track_delta(analyzed, subst, changed, delta)
    return changes


def _track_delta(analyzed, subst, changed, delta):
    """Record a fact new in the overlay in the semi-naive delta. A plain
    element is shared with the overlay instead of built twice; merge and
    relation-only heads re-run ``make_true`` for their own semantics."""
    if analyzed.merge_on or analyzed.constructor is None:
        make_true(analyzed, subst, delta)
        return
    names = tuple(resolve_target(analyzed.target, subst))
    ensure_relation(delta, names).add(changed)


def _delta_variants(analyzed, stratum_targets):
    """Delta-rewritten bodies for a rule, or None to force full re-eval.

    One variant per top-level body conjunct that references a
    same-stratum target: that conjunct is redirected under the delta
    root. Returns None when the rule needs the fallback (merge
    semantics, or a same-stratum reference below the top level).
    """
    if analyzed.merge_on:
        return None

    conjuncts = ast.conjuncts_of(analyzed.body)
    recursive_positions = []
    for index, conjunct in enumerate(conjuncts):
        if not isinstance(conjunct, ast.AttrStep):
            continue
        if _references_targets(conjunct, stratum_targets):
            recursive_positions.append(index)

    if not recursive_positions:
        # References exist (the stratum is recursive) but none are
        # rewritable top-level conjuncts for this rule; check whether this
        # rule references the stratum at all.
        for pattern, _ in analyzed.references:
            for target in stratum_targets:
                if patterns_overlap(pattern, target):
                    return None
        return []  # rule is non-recursive: nothing to do after round 0

    return [_redirected_body(analyzed, conjuncts, position)
            for position in recursive_positions]


def _redirected_body(analyzed, conjuncts, position):
    """The rule body with conjunct ``position`` read from the delta.
    Built once per rule and position: every maintenance pass plans
    afresh, and one body object per variant keeps the evaluator's
    identity-keyed caches (conjunct orderings, probe plans) warm."""
    body = analyzed.delta_bodies.get(position)
    if body is None:
        redirected = list(conjuncts)
        redirected[position] = ast.AttrStep(Const(DELTA_ROOT),
                                            redirected[position])
        body = analyzed.delta_bodies[position] = ast.TupleExpr(redirected)
    return body


def _references_targets(conjunct, targets):
    for pattern, _ in body_references(ast.TupleExpr([conjunct])):
        for target in targets:
            if patterns_overlap(pattern, target):
                return True
    return False


def _has_facts(overlay):
    """Does the overlay contain any relation element or any relation?"""
    for name in overlay.attr_names():
        obj = overlay.get(name)
        if obj.is_set:
            if len(obj):
                return True
        elif obj.is_tuple:
            if _has_facts(obj):
                return True
        else:
            return True
    return False


def count_overlay_facts(overlay):
    """Total derived elements (for tests and reporting)."""
    total = 0
    for name in overlay.attr_names():
        obj = overlay.get(name)
        if obj.is_set:
            total += len(obj)
        elif obj.is_tuple:
            total += count_overlay_facts(obj)
    return total


# ---------------------------------------------------------------------------
# Incremental maintenance (delta-driven repair of a materialized stratum)
# ---------------------------------------------------------------------------
#
# After an update, the engine knows the concrete per-path insert/delete
# deltas (see repro.core.updates.UpdateDelta). Instead of discarding a
# dirty stratum's overlay, maintenance_plan() decides whether the
# stratum can be repaired in place, and maintain_stratum() repairs it.
# Both repairs evaluate the same delta-redirected rule bodies: a body
# conjunct reading a changed path is redirected at the delta, so rules
# fire only on substitutions that touch changed facts.
#
# * A non-recursive stratum (no rule reading the stratum's targets)
#   repairs by counting (Gupta, Mumick, Subrahmanian, "Maintaining
#   Views Incrementally", SIGMOD 1993). Materialization recorded how
#   many body substitutions derive each fact; an insert delta adds the
#   derivations through the inserted facts, a delete delta subtracts
#   those through the deleted ones, and a fact leaves the overlay when
#   its count reaches 0. Nothing is over-deleted and nothing is
#   re-derived, so an in-place edit of a base row (logged as delete
#   pre-image + insert post-image) changes only the facts whose value
#   changed. The arithmetic is exact while a rule reads changed facts
#   through one conjunct; a rule joining two changed paths falls back.
# * A recursive stratum runs delete-and-rederive (DRed) for deletions:
#   over-delete every overlay fact with a derivation through a deleted
#   input (evaluating against the *old* view, reconstructed by merging
#   the deleted facts back in), then re-derive the over-deleted facts
#   that still have a derivation from the surviving view. Insertions
#   seed the semi-naive delta loop: the update delta is the round-0
#   delta, so the full round-0 evaluation of _seminaive_stratum never
#   happens.
#
# The plan is conservative: any shape whose repair could diverge from a
# from-scratch rebuild (merge semantics, relation-only heads, negation
# over a changed relation, a conjunct spanning several relations, a
# same-stratum reference that cannot be redirected at the delta, a
# non-recursive rule joining two changed paths) forces the caller back
# to a full stratum rebuild.


def maintenance_plan(stratum, changed_patterns):
    """Delta-rewrite plan for repairing ``stratum``, or a fallback reason.

    ``changed_patterns`` are Const/Var term tuples covering every path
    whose contents changed (base updates plus the targets of already
    repaired upstream strata). Returns ``(variants, reason)``: on
    success ``variants`` aligns with the stratum — one list of
    delta-redirected bodies per rule (empty when the rule reads nothing
    that changed) — and ``reason`` is None; on refusal ``variants`` is
    None and ``reason`` names the conservative fallback condition.
    """
    targets = [analyzed.target for analyzed in stratum]
    patterns = list(changed_patterns) + targets
    recursive = is_recursive_stratum(stratum)
    variants = []
    for analyzed in stratum:
        if analyzed.merge_on:
            return None, "merge-rule"
        if analyzed.constructor is None:
            return None, "relation-rule"
        for pattern, positive in analyzed.references:
            if not positive and any(
                patterns_overlap(pattern, changed) for changed in patterns
            ):
                return None, "negation"
        for conjunct in ast.conjuncts_of(analyzed.body):
            if _conjunct_spans_relations(conjunct, patterns):
                return None, "multi-relation-conjunct"
        rule_variants = _delta_variants(analyzed, patterns)
        if rule_variants is None:
            return None, "unrewritable"
        if len(rule_variants) > 1 and not recursive:
            # Counting one delta per conjunct would count a derivation
            # through two changed facts twice and one through an
            # inserted and a deleted fact not at all.
            return None, "multi-delta-join"
        variants.append(rule_variants)
    return variants, None


def _conjunct_spans_relations(conjunct, changed):
    """Does this conjunct read several distinct relations, one changed?

    Redirecting such a conjunct at the delta would require *all* its
    relations to appear there, missing derivations that pair a new fact
    with an old one — so the plan refuses it.
    """
    refs = [pattern for pattern, _ in body_references(ast.TupleExpr([conjunct]))]
    if not any(
        patterns_overlap(ref, pattern) for ref in refs for pattern in changed
    ):
        return False
    for ref in refs:
        for other in refs:
            if not patterns_overlap(ref[:2], other[:2]):
                return True
    return False


class MaintenanceAborted(Exception):
    """A repair bailed out mid-flight on a cost guard; the stratum's
    overlay is partially mutated and must be dropped (the caller treats
    this exactly like a planned fallback)."""

    def __init__(self, reason):
        super().__init__(reason)
        self.reason = reason


#: Over-deletion budget floor: a cascade this small is always repaired.
_OVERDELETE_MIN = 16
#: Over-deletion budget fraction of the stratum's overlay size. DRed's
#: re-derivation phase costs a body evaluation per over-deleted fact,
#: so once a cascade swallows a sizable share of the view, rebuilding
#: from scratch is cheaper than repairing.
_OVERDELETE_SHARE = 8


def maintain_stratum(stratum, variants, view, overlay, insert_delta,
                     delete_delta, counts, stats, context):
    """Repair one stratum's overlay in place after an update.

    ``view`` merges ``overlay`` with everything the stratum reads (base
    relations and already repaired upstream strata);
    ``insert_delta``/``delete_delta`` are overlay-shaped universes of
    the concrete facts inserted into / deleted from those inputs;
    ``variants`` comes from :func:`maintenance_plan`. ``counts`` is a
    non-recursive stratum's derivation counts, as
    :func:`materialize_strata` recorded them (only facts with more than
    one derivation are listed): the stratum is then repaired by
    counting, and ``counts`` is kept in step. It is None for a
    recursive stratum, which runs DRed. Returns ``(added,
    removed)`` — the net changes to this stratum's own overlay as
    ``{path: {value_key: element}}`` dicts, which are exactly the
    changes downstream strata read (the stratum is the one owner of
    the paths it derives into). Raises
    :class:`MaintenanceAborted` when a DRed delete cascade exceeds the
    cost budget (the overlay is then partially mutated and unusable).
    """
    if counts is not None:
        return _maintain_counting(stratum, variants, view, overlay,
                                  insert_delta, delete_delta, counts, stats,
                                  context)
    budget = max(_OVERDELETE_MIN,
                 count_overlay_facts(overlay) // _OVERDELETE_SHARE)
    removed = _maintain_overdelete(stratum, variants, view, overlay,
                                   delete_delta, stats, context, budget)
    _maintain_rederive(stratum, view, overlay, removed, stats, context)
    added = _maintain_insert(stratum, variants, view, overlay,
                             insert_delta, stats, context)
    # A fact deleted and re-added in the same repair is no net change.
    for names, elements in list(added.items()):
        lost = removed.get(names)
        if not lost:
            continue
        for key in list(elements):
            if lost.pop(key, None) is not None:
                del elements[key]
    # A from-scratch build never creates a relation it derives nothing
    # into — drop relations (and parent tuples) the repair left empty.
    for names in removed:
        prune_empty_path(overlay, names)
    added = {names: elements for names, elements in added.items() if elements}
    removed = {names: elements for names, elements in removed.items() if elements}
    return added, removed


def _maintain_counting(stratum, variants, view, overlay, insert_delta,
                       delete_delta, counts, stats, context):
    """Counting repair of a non-recursive stratum: net each touched
    fact's derivation count change over both deltas, then add the facts
    whose count rose from 0 and remove those whose count fell to 0."""
    net = {}  # (path, value_key) -> [path, element, count change]
    for delta, sign in ((delete_delta, -1), (insert_delta, 1)):
        if not _has_facts(delta):
            continue
        delta_view = MergedTuple(view, TupleObject({DELTA_ROOT: delta}))
        for analyzed, rule_variants in zip(stratum, variants):
            for variant_body in rule_variants:
                stats.rule_firings += 1
                for subst in satisfy(variant_body, delta_view, None, context):
                    names = tuple(resolve_target(analyzed.target, subst))
                    element = build_object(analyzed.constructor, subst)
                    fact = (names, element.value_key())
                    entry = net.get(fact)
                    if entry is None:
                        net[fact] = [names, element, sign]
                    else:
                        entry[2] += sign
    added, removed = {}, {}
    for fact, (names, element, change) in net.items():
        if not change:
            continue
        relation = overlay_relation(overlay, names)
        held = counts.get(fact)
        if held is None:
            held = int(relation is not None
                       and relation.lookup(fact[1]) is not None)
        count = held + change
        if count > 1:
            counts[fact] = count
        else:
            counts.pop(fact, None)
        if not held:
            ensure_relation(overlay, names).add(element)
            stats.derivations += 1
            added.setdefault(names, {})[fact[1]] = element
        elif not count:
            relation.discard_value(element)
            removed.setdefault(names, {})[fact[1]] = element
    for names in removed:
        prune_empty_path(overlay, names)
    return added, removed


def _maintain_overdelete(stratum, variants, view, overlay, delete_delta,
                         stats, context, budget):
    """DRed phase 1: remove every overlay fact with a derivation through
    a deleted input, transitively. Conservative — phase 2 restores the
    facts that still have an independent derivation. Aborts once the
    cascade exceeds ``budget`` facts — re-deriving that many would cost
    more than rebuilding the stratum."""
    removed = {}
    if not _has_facts(delete_delta):
        return removed
    cascade = 0
    deleted_all = TupleObject()
    merge_into(deleted_all, delete_delta)
    delta = delete_delta
    while _has_facts(delta):
        # The *old* view: the current view with the deleted facts
        # merged back in (a superset of the pre-update view, which keeps
        # the over-deletion conservative).
        old_view = MergedTuple(view, deleted_all)
        delta_view = MergedTuple(old_view, TupleObject({DELTA_ROOT: delta}))
        next_delta = TupleObject()
        for analyzed, rule_variants in zip(stratum, variants):
            for variant_body in rule_variants:
                stats.rule_firings += 1
                for subst in satisfy(variant_body, delta_view, None, context):
                    names = tuple(resolve_target(analyzed.target, subst))
                    element = build_object(analyzed.constructor, subst)
                    relation = overlay_relation(overlay, names)
                    if relation is None or not relation.discard_value(element):
                        continue
                    stats.maintain_overdeleted += 1
                    cascade += 1
                    if cascade > budget:
                        raise MaintenanceAborted("delete-cascade")
                    removed.setdefault(names, {})[element.value_key()] = element
                    set_path_fact(next_delta, names, element)
                    set_path_fact(deleted_all, names, element)
        delta = next_delta
    return removed


def _maintain_rederive(stratum, view, overlay, removed, stats, context):
    """DRed phase 2: restore over-deleted facts that still have a
    derivation from the surviving view, to fixpoint (a restored fact can
    re-justify another)."""
    progress = True
    while progress and any(removed.values()):
        progress = False
        for names, elements in removed.items():
            for key, element in list(elements.items()):
                if _rederivable(stratum, names, element, view, stats, context):
                    relation = ensure_relation(overlay, names)
                    relation.add(element)
                    del elements[key]
                    stats.maintain_rederived += 1
                    progress = True


def _rederivable(stratum, names, element, view, stats, context):
    """Does any rule of the stratum still derive exactly this fact?"""
    for analyzed in stratum:
        if analyzed.constructor is None or len(analyzed.target) != len(names):
            continue
        target_subst = _match_target_names(analyzed.target, names)
        if target_subst is None:
            continue
        for candidate in _constructor_candidates(
            analyzed.constructor, element, target_subst
        ):
            stats.rule_firings += 1
            for body_subst in satisfy(analyzed.body, view, candidate, context):
                built = build_object(analyzed.constructor, body_subst)
                if same_value(built, element):
                    return True
    return False


def _maintain_insert(stratum, variants, view, overlay, insert_delta,
                     stats, context):
    """Semi-naive insertion seeded with the update delta as round 0."""
    added = {}
    if not _has_facts(insert_delta):
        return added
    delta = insert_delta
    while _has_facts(delta):
        next_delta = TupleObject()
        delta_view = MergedTuple(view, TupleObject({DELTA_ROOT: delta}))
        for analyzed, rule_variants in zip(stratum, variants):
            for variant_body in rule_variants:
                stats.rule_firings += 1
                for subst in satisfy(variant_body, delta_view, None, context):
                    names = tuple(resolve_target(analyzed.target, subst))
                    element = build_object(analyzed.constructor, subst)
                    relation = ensure_relation(overlay, names)
                    if not relation.add(element):
                        continue
                    stats.derivations += 1
                    added.setdefault(names, {})[element.value_key()] = element
                    set_path_fact(next_delta, names, element)
        delta = next_delta
    return added


def _match_target_names(target, names):
    """Unify a head target pattern against a ground name path."""
    subst = Substitution.empty()
    for term, name in zip(target, names):
        if isinstance(term, Const):
            if term.value != name:
                return None
        else:
            subst = subst.unify(term.name, Atom(name))
            if subst is None:
                return None
    return subst


def _constructor_candidates(expr, element, subst):
    """Substitutions under which ``expr`` could have built ``element``.

    A pruning pre-match for re-derivation: it binds what the element's
    structure determines and gives up (returning the unextended
    substitution) on shapes it cannot invert, e.g. arithmetic terms —
    the caller always verifies by rebuilding and comparing values.
    """
    if isinstance(expr, ast.Epsilon):
        return [subst] if element.is_atom and element.is_null else []
    if isinstance(expr, ast.AtomicExpr):
        if not element.is_atom:
            return []
        term = expr.term
        if isinstance(term, Var):
            extended = subst.unify(term.name, element.copy())
            return [extended] if extended is not None else []
        if isinstance(term, Const):
            return [subst] if same_value(Atom(term.value), element) else []
        return [subst]
    if isinstance(expr, ast.AttrStep):
        return _constructor_candidates(ast.TupleExpr([expr]), element, subst)
    if isinstance(expr, ast.TupleExpr):
        if not element.is_tuple:
            return []
        candidates = [subst]
        for item in ast.conjuncts_of(expr):
            if not isinstance(item, ast.AttrStep):
                return candidates
            next_candidates = []
            for current in candidates:
                next_candidates.extend(
                    _constructor_item_candidates(item, element, current)
                )
            if not next_candidates:
                return []
            candidates = next_candidates
        return candidates
    if isinstance(expr, ast.SetExpr):
        if not element.is_set:
            return []
        if isinstance(expr.inner, ast.Epsilon):
            return [subst] if len(element) == 0 else []
        if len(element) != 1:
            return []
        return _constructor_candidates(expr.inner, element.elements()[0], subst)
    return [subst]


def _constructor_item_candidates(item, element, subst):
    attr = item.attr
    if isinstance(attr, Const):
        if not element.has(attr.value):
            return []
        return _constructor_candidates(item.expr, element.get(attr.value), subst)
    out = []
    for name in element.attr_names():
        extended = subst.unify(attr.name, Atom(name))
        if extended is None:
            continue
        out.extend(_constructor_candidates(item.expr, element.get(name), extended))
    return out


# -- path/overlay plumbing shared with the engine ---------------------------


def paths_overlay(path_elements):
    """Build an overlay-shaped universe from ``{path: {key: element}}``."""
    overlay = TupleObject()
    for names, elements in path_elements.items():
        for element in elements.values():
            set_path_fact(overlay, names, element)
    return overlay


def set_path_fact(overlay, names, element):
    """Add a copy of ``element`` to the relation at ``names``."""
    ensure_relation(overlay, names).add(element.copy())


def ensure_relation(overlay, names):
    """Navigate to the set at ``names``, creating tuples/set en route."""
    parent = overlay
    for name in names[:-1]:
        if not parent.has(name):
            parent.set(name, TupleObject())
        parent = parent.get(name)
    leaf = names[-1]
    if not parent.has(leaf):
        parent.set(leaf, SetObject())
    return parent.get(leaf)


def overlay_relation(overlay, names):
    """The set at ``names``, or None when the path does not exist."""
    obj = overlay
    for name in names:
        if not obj.is_tuple or not obj.has(name):
            return None
        obj = obj.get(name)
    return obj if obj.is_set else None


def prune_empty_path(overlay, names):
    """Remove the relation at ``names`` if empty, and any parent tuples
    the removal leaves empty."""
    parents = []
    obj = overlay
    for name in names[:-1]:
        if not obj.is_tuple or not obj.has(name):
            return
        parents.append((obj, name))
        obj = obj.get(name)
    leaf = names[-1]
    if not obj.is_tuple or not obj.has(leaf):
        return
    relation = obj.get(leaf)
    if not relation.is_set or len(relation):
        return
    obj.remove(leaf)
    for parent, name in reversed(parents):
        child = parent.get(name)
        if child.is_tuple and not child.attr_names():
            parent.remove(name)
        else:
            break

