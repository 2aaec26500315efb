"""Rule (view definition) analysis and derivation (paper Section 6).

A rule ``head <- body`` defines derived facts: for each grounding
substitution σ satisfying the body on the universe, the object
``head σ`` is *made true* in the derived overlay. A rule whose head
contains a higher-order variable (e.g. ``.dbO.S(...)``) is a **higher
order view**: it defines a data-dependent number of relations.

This module provides:

* :func:`analyze_rule` — structural validation and extraction of the
  head *target pattern* (the attribute-term path down to the defined
  relation) and the constructor expression;
* :func:`body_references` — the (possibly higher-order) target patterns
  the body reads, each tagged positive or negative, used by
  stratification;
* :func:`make_true` — insert ``head σ`` into an overlay universe.

Make-true semantics. The paper defines making the head true recursively
(the full definition is in its companion memo [KLK90]); we implement:
navigate the head path, creating missing tuples/sets, and if no element
of the target set already satisfies the constructor, insert a freshly
built element. For views that *widen* tuples (chwab-style: one tuple per
date carrying one attribute per stock) insertion alone cannot merge
facts into a single tuple; a rule may therefore declare ``merge_on``
attributes — facts agreeing on those attributes extend the same element.
This reconstructs the paper's dbC customized view; the choice of merge
keys is the schema administrator's, exactly like the paper's
reconciliation choices.
"""

from __future__ import annotations

from repro.core import ast
from repro.core.evaluator import satisfy
from repro.core.safety import goal_order
from repro.core.terms import Const, Var, term_name
from repro.core.updates import build_object
from repro.errors import SafetyError, SemanticError
from repro.objects.base import same_value
from repro.objects.set import SetObject
from repro.objects.tuple import TupleObject


class AnalyzedRule:
    """A validated rule with its extracted head structure."""

    __slots__ = ("rule", "target", "constructor", "merge_on", "references",
                 "delta_bodies")

    def __init__(self, rule, target, constructor, merge_on, references):
        self.rule = rule
        self.target = target  # tuple of Const/Var terms (path to relation)
        self.constructor = constructor  # element constructor expr (or None)
        self.merge_on = merge_on  # tuple of attribute names, possibly empty
        self.references = references  # list of (pattern, positive: bool)
        # conjunct position -> body reading that conjunct from the delta,
        # built once by repro.core.fixpoint so every later evaluation of
        # the same body hits the evaluator's identity-keyed caches
        self.delta_bodies = {}

    @property
    def head(self):
        return self.rule.head

    @property
    def body(self):
        return self.rule.body

    @property
    def is_higher_order(self):
        return any(isinstance(term, Var) for term in self.target)

    def __repr__(self):
        return f"<AnalyzedRule {self.rule!r}>"


def analyze_rule(rule, merge_on=()):
    """Validate ``rule`` and extract its head target and constructor.

    Head requirements (Section 6): a *simple tuple expression* — a single
    chain of unsigned attribute steps ending in a set expression whose
    inner part is a simple constructor (only ``=`` atomics, no negation,
    no signs); every head variable must occur in the body.
    """
    head_conjuncts = ast.conjuncts_of(rule.head)
    if len(head_conjuncts) != 1:
        raise SemanticError("a rule head must be a single expression")
    target, constructor = _head_structure(head_conjuncts[0])
    _check_simple(constructor)

    head_vars = rule.head.variables()
    body_vars = rule.body.variables()
    missing = head_vars - body_vars
    if missing:
        raise SemanticError(
            "head variables must occur in the body: " + ", ".join(sorted(missing))
        )
    # The body must be safely evaluable from scratch.
    try:
        goal_order(rule.body, frozenset())
    except SafetyError as exc:
        raise SafetyError(
            f"unsafe rule body in {_describe_rule(rule)}: {exc}"
        ) from exc

    if merge_on:
        constructor_attrs = _constructor_attr_names(constructor)
        for key in merge_on:
            if constructor_attrs is not None and key not in constructor_attrs:
                raise SemanticError(
                    f"merge_on attribute {key!r} does not appear in the head"
                )

    references = body_references(rule.body)
    return AnalyzedRule(rule, target, constructor, tuple(merge_on), references)


def _describe_rule(rule):
    """``'head <- body' (at line:column)`` for error messages."""
    from repro.core.pretty import to_source

    rendered = f"rule '{to_source(rule)}'"
    if rule.loc is not None:
        rendered += f" (at {ast.format_loc(rule.loc)})"
    return rendered


def _head_structure(expr):
    """Walk the head chain; return (target path terms, constructor)."""
    path = []
    current = expr
    while isinstance(current, ast.AttrStep):
        if current.sign is not None:
            raise SemanticError("rule heads cannot carry update signs")
        path.append(current.attr)
        current = current.expr
    if not path:
        raise SemanticError("a rule head must start with an attribute step")
    if isinstance(current, ast.SetExpr):
        if current.sign is not None:
            raise SemanticError("rule heads cannot carry update signs")
        inner = current.inner
        constructor = None if isinstance(inner, ast.Epsilon) else inner
        return tuple(path), constructor
    if isinstance(current, ast.Epsilon):
        # ``.db.rel`` with no parentheses: defines an (empty) relation.
        return tuple(path), None
    raise SemanticError(
        "a rule head must end in a set expression naming the derived relation"
    )


def _check_simple(expr):
    """Constructors must be simple: '=' atomics only, no negation/signs."""
    if expr is None:
        return
    for node in expr.walk():
        if isinstance(node, ast.NegExpr):
            raise SemanticError("rule heads cannot contain negation")
        if isinstance(node, ast.Constraint):
            raise SemanticError("rule heads cannot contain constraints")
        if isinstance(node, ast.AtomicExpr) and node.op != "=":
            raise SemanticError("rule heads use '=' comparisons only")
        if node.has_update():
            raise SemanticError("rule heads cannot carry update signs")


def _constructor_attr_names(constructor):
    """Constant attribute names of a constructor's top level, or None if
    any attribute is variable (higher-order element shape)."""
    if constructor is None:
        return ()
    names = []
    for item in ast.conjuncts_of(constructor):
        if not isinstance(item, ast.AttrStep):
            return None
        if isinstance(item.attr, Var):
            return None
        names.append(item.attr.value)
    return tuple(names)


# ---------------------------------------------------------------------------
# Body references (for stratification)
# ---------------------------------------------------------------------------


def body_references(body):
    """Collect the universe paths the body reads.

    Returns a list of ``(pattern, positive)`` pairs, where a pattern is a
    tuple of Const/Var terms descending from the universe. Collection
    stops at set expressions (their contents address data, not catalog
    structure). Patterns under negation are tagged negative.
    """
    references = []
    for conjunct in ast.conjuncts_of(body):
        _collect_refs(conjunct, (), True, references)
    return references


def _collect_refs(expr, prefix, positive, out):
    if isinstance(expr, ast.AttrStep):
        pattern = prefix + (expr.attr,)
        inner = expr.expr
        while isinstance(inner, ast.NegExpr):
            positive = not positive  # e.g. ``.dbI.p~( ... )``
            inner = inner.inner
        if isinstance(inner, ast.AttrStep):
            _collect_refs(inner, pattern, positive, out)
        elif isinstance(inner, ast.TupleExpr):
            recorded = False
            for conjunct in inner.conjuncts:
                if isinstance(conjunct, (ast.AttrStep, ast.NegExpr)):
                    _collect_refs(conjunct, pattern, positive, out)
                    recorded = True
            if not recorded:
                out.append((pattern, positive))
        else:
            out.append((pattern, positive))
        return
    if isinstance(expr, ast.NegExpr):
        _collect_refs(expr.inner, prefix, False, out)
        return
    if isinstance(expr, ast.TupleExpr):
        for conjunct in expr.conjuncts:
            _collect_refs(conjunct, prefix, positive, out)
        return
    # Atomic / constraint / epsilon conjuncts reference no catalog path,
    # but a bare expression at a prefix still reads that prefix.
    if prefix:
        out.append((prefix, positive))


def patterns_overlap(reference, target):
    """Could a body reference pattern read a head target pattern?

    Conservative positional unification on the shared prefix: a variable
    matches anything; constants must be equal. A shorter pattern matches
    any extension of itself (reading ``.dbO`` reads every dbO relation).
    """
    for ref_term, target_term in zip(reference, target):
        if isinstance(ref_term, Const) and isinstance(target_term, Const):
            if ref_term.value != target_term.value:
                return False
    return True


# ---------------------------------------------------------------------------
# Derivation
# ---------------------------------------------------------------------------


def resolve_target(target, subst):
    """Ground a head target pattern to a name path under σ."""
    names = []
    for term in target:
        name = term_name(term, subst)
        if name is None or not isinstance(name, str):
            raise SemanticError(
                f"head target variable {term!r} is unbound or bound to a "
                "non-name object"
            )
        names.append(name)
    return names


def make_true(analyzed, subst, overlay):
    """Insert ``head σ`` into the overlay universe.

    Returns the inserted (or extended) element when the overlay changed,
    else None. Creating a previously-missing relation counts as a change
    even when no element is inserted (higher-order views make the *set of
    relations* data-dependent).
    """
    names = resolve_target(analyzed.target, subst)
    parent = overlay
    created = False
    for name in names[:-1]:
        if not parent.has(name):
            parent.set(name, TupleObject())
            created = True
        parent = parent.get(name)
        if not parent.is_tuple:
            raise SemanticError(
                f"derived path {'.'.join(names)} collides with a "
                f"{parent.category} object"
            )
    leaf = names[-1]
    if not parent.has(leaf):
        parent.set(leaf, SetObject())
        created = True
    relation = parent.get(leaf)
    if not relation.is_set:
        raise SemanticError(
            f"derived relation {'.'.join(names)} collides with a "
            f"{relation.category} object"
        )

    if analyzed.constructor is None:
        return relation if created else None

    element = build_object(analyzed.constructor, subst)

    if analyzed.merge_on:
        merged = _merge_element(relation, element, analyzed.merge_on)
        if merged is not None:
            return merged
        return element if created else None

    if relation.add(element):
        return element
    return relation if created else None


def _merge_element(relation, element, merge_on):
    """Fold ``element`` into an existing element sharing the merge keys.

    Returns the changed element, or None when nothing changed. Elements
    lacking one of the merge attributes never merge. Two atoms
    conflicting on one attribute keep the higher (the paper's pnew
    reconciliation), so the merged element does not depend on the order
    its facts arrive in: a repaired relation lists its facts in another
    order than a rebuilt one.
    """
    if not element.is_tuple:
        relation.add(element)
        return element

    keys = []
    for key in merge_on:
        if not element.has(key):
            return element if relation.add(element) else None
        keys.append((key, element.get(key)))

    for existing in relation.elements():
        if not existing.is_tuple:
            continue
        if all(
            existing.has(key) and same_value(existing.get(key), value)
            for key, value in keys
        ):
            changed = False
            for name in element.attr_names():
                obj = element.get(name)
                held = existing.get_or_none(name)
                if held is None or not (same_value(held, obj)
                                        or _outranks(held, obj)):
                    existing.set(name, obj)
                    changed = True
            if changed:
                relation.refresh(existing)
                return existing
            return None
    return element if relation.add(element) else None


def _outranks(held, incoming):
    """Does the atom ``held`` rank above the atom ``incoming``? Atoms of
    one kind compare by value; kinds (number, string, ...) by name."""
    if not (held.is_atom and incoming.is_atom):
        return False
    return held.value_key()[1:] > incoming.value_key()[1:]


def derive_once(analyzed, universe_view, overlay, context=None):
    """Apply one rule exhaustively against ``universe_view``.

    Returns the number of changes made to the overlay.
    """
    changes = 0
    for subst in satisfy(analyzed.body, universe_view, None, context):
        if make_true(analyzed, subst, overlay) is not None:
            changes += 1
    return changes
