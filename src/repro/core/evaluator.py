"""Query expression evaluation (paper Sections 4.2 and 4.3).

The central routine, :func:`satisfy`, lazily enumerates the grounding
substitutions under which an object satisfies an expression:

* an atomic expression compares an atomic object against a term
  (binding its variable on ``=``; the null atom fails everything);
* a tuple item ``.A exp`` descends into attribute ``A`` — when ``A`` is
  an unbound *higher-order variable* it ranges over the attribute names
  of the tuple (Section 4.3), binding the variable to the *name*, which
  is how metadata joins with data;
* a set expression succeeds on any element of the set;
* a conjunction threads one substitution through its conjuncts, after
  safety reordering (see :mod:`repro.core.safety`);
* a negation succeeds iff no satisfying extension exists, and binds
  nothing.

The answer to a query is the set of grounding substitutions satisfying
it (deduplicated by binding signature); a variable-free query evaluates
to a boolean.
"""

from __future__ import annotations

from repro.core import ast
from repro.core.safety import goal_order
from repro.core.substitution import Substitution
from repro.core.terms import NOT_A_NAME, Const, Var, evaluate_term, term_name
from repro.errors import EvaluationError
from repro.objects.atom import Atom, compare_values
from repro.objects.base import same_value
from repro.objects.set import SetObject

class EvalContext:
    """Evaluation options and the work counts of one evaluation.

    ``reorder``     — apply safety goal reordering (default True; the B3
                      ablation turns it off for already-ordered programs).
    ``use_indexes`` — probe per-set hash indexes when a set expression
                      carries a ground ``=`` selection on a known
                      attribute (default True; the B13 ablation turns it
                      off to measure the scan baseline).
    ``profile``     — also count node visits into :attr:`counters` (off
                      by default: it costs in the hot path). The engine
                      turns it on when tracing is on and puts them on
                      the ``engine.evaluate`` span.
    ``tracer``      — optional tracer (enabled or not) the fixpoint opens
                      its spans on. None (the default) opens no spans.

    Index builds, hits and fallbacks and goal orders derived are always
    counted, in plain ints. The engine gives each request its own
    context and puts them on the span that owns the request
    (:meth:`report`), so threads sharing an engine never share counts.
    Goal orders and probe plans are memoized on the AST nodes.
    """

    __slots__ = ("reorder", "use_indexes", "tracer", "node_counts",
                 "index_builds", "index_hits", "index_fallbacks", "reorders")

    def __init__(self, reorder=True, profile=False, tracer=None,
                 use_indexes=True):
        self.reorder = reorder
        self.use_indexes = use_indexes
        self.tracer = tracer
        self.node_counts = {} if profile else None
        self.index_builds = self.index_hits = self.index_fallbacks = 0
        self.reorders = 0

    def count(self, kind):
        if self.node_counts is not None:
            self.node_counts[kind] = self.node_counts.get(kind, 0) + 1

    def index_counts(self):
        """The nonzero ``index.*`` counts (every miss builds the index,
        so misses equal builds)."""
        counts = (("index.builds", self.index_builds),
                  ("index.hits", self.index_hits),
                  ("index.misses", self.index_builds),
                  ("index.fallbacks", self.index_fallbacks))
        return {key: value for key, value in counts if value}

    def report(self, span):
        """Put the nonzero work counts on ``span`` as the attributes
        ``SPAN_METRICS`` sums into ``evaluator.*``."""
        for key, value in self.index_counts().items():
            span.set(key, value)
        if self.reorders:
            span.set("reorder.applied", self.reorders)

    @property
    def counters(self):
        """The node-visit counts plus :meth:`index_counts`, or None with
        ``profile`` off."""
        if self.node_counts is None:
            return None
        return {**self.node_counts, **self.index_counts()}

    def ordered(self, expr, domain):
        """The safety ordering of a TupleExpr for a binding domain (its
        conjuncts as written when reordering is off); a node-memo miss
        counts as one ``reorder.applied``."""
        if not self.reorder:
            return expr.conjuncts
        bound = frozenset(domain)
        if bound not in expr.goal_orders:
            self.reorders += 1
        return goal_order(expr, bound)


def satisfy(expr, obj, subst=None, context=None):
    """Yield every extension of ``subst`` under which ``obj`` satisfies
    ``expr``. Substitutions are persistent; callers may consume lazily."""
    if subst is None:
        subst = Substitution.empty()
    if context is None:
        context = EvalContext()
    if expr.has_update():
        raise EvaluationError(
            "update expression evaluated in a query context; use the "
            "update evaluator (repro.core.updates)"
        )
    return _satisfy(expr, obj, subst, context)


def _satisfy(expr, obj, subst, context):
    if context.node_counts is not None:
        context.count("visits")
        context.count(type(expr).__name__)

    if isinstance(expr, ast.Epsilon):
        yield subst
        return

    if isinstance(expr, ast.AtomicExpr):
        result = _satisfy_atomic(expr, obj, subst)
        if result is not None:
            yield result
        return

    if isinstance(expr, ast.AttrStep):
        if not obj.is_tuple:
            return
        name = term_name(expr.attr, subst)
        if name is NOT_A_NAME:
            return  # bound to a non-name: the step matches nothing
        if name is not None:
            if obj.has(name):
                for extended in _satisfy(expr.expr, obj.get(name), subst, context):
                    yield extended
            return
        # Higher-order quantification: the variable ranges over the
        # attribute names of this tuple.
        var = expr.attr.name
        for attr_name in obj.attr_names():
            bound = subst.bind(var, Atom(attr_name))
            for extended in _satisfy(expr.expr, obj.get(attr_name), bound, context):
                yield extended
        return

    if isinstance(expr, ast.SetExpr):
        if not obj.is_set:
            return
        if context.use_indexes:
            candidates = _index_candidates(expr, obj, subst, context)
            if candidates is not None:
                for element in candidates:
                    for extended in _satisfy(expr.inner, element, subst, context):
                        yield extended
                return
        # Full scan over a snapshot: elements() copies, so an update
        # request mutating this set while an outer query generator is
        # suspended keeps seeing the state at scan start.
        for element in obj.elements():
            for extended in _satisfy(expr.inner, element, subst, context):
                yield extended
        return

    if isinstance(expr, ast.TupleExpr):
        conjuncts = context.ordered(expr, subst.domain())
        for extended in _satisfy_conjunction(conjuncts, 0, obj, subst, context):
            yield extended
        return

    if isinstance(expr, ast.Constraint):
        result = _satisfy_constraint(expr, subst)
        if result is not None:
            yield result
        return

    if isinstance(expr, ast.NegExpr):
        for _ in _satisfy(expr.inner, obj, subst, context):
            return  # a witness exists: the negation fails
        yield subst
        return

    raise EvaluationError(f"cannot evaluate {type(expr).__name__}")


def _satisfy_conjunction(conjuncts, index, obj, subst, context):
    if index == len(conjuncts):
        yield subst
        return
    for extended in _satisfy(conjuncts[index], obj, subst, context):
        for final in _satisfy_conjunction(conjuncts, index + 1, obj, extended, context):
            yield final


def _satisfy_atomic(expr, obj, subst):
    """Return the (possibly extended) substitution, or None."""
    term = expr.term
    if expr.op == "=" and isinstance(term, Var):
        existing = subst.lookup(term.name)
        if existing is not None:
            # Null fails even self-equality for atoms (Section 5.2).
            if obj.is_atom and obj.is_null:
                return None
            return subst if same_value(existing, obj) else None
        if obj.is_atom and obj.is_null:
            return None
        # The aggregate-variable extension: X may bind a tuple or set.
        return subst.bind(term.name, obj)

    value_obj = evaluate_term(term, subst)
    if not obj.is_atom:
        if expr.op == "=":
            return subst if same_value(obj, value_obj) else None
        if expr.op == "!=":
            if value_obj.is_atom and value_obj.is_null:
                return None
            return None if same_value(obj, value_obj) else subst
        return None
    if not value_obj.is_atom:
        if expr.op == "=":
            return None
        if expr.op == "!=":
            return subst if not obj.is_null else None
        return None
    if compare_values(obj.value, expr.op, value_obj.value):
        return subst
    return None


def _satisfy_constraint(expr, subst):
    """Evaluate a standalone term comparison against the substitution."""
    left_unbound = any(not subst.binds(name) for name in expr.left.variables())
    right_unbound = any(not subst.binds(name) for name in expr.right.variables())
    if expr.op == "=" and left_unbound != right_unbound:
        # One side is ground: with '=', bind the other side's variable.
        ground_term, open_term = (
            (expr.right, expr.left) if left_unbound else (expr.left, expr.right)
        )
        if isinstance(open_term, Var):
            value = evaluate_term(ground_term, subst)
            return subst.unify(open_term.name, value)
        return None  # cannot solve arithmetic for its variable
    left = evaluate_term(expr.left, subst)
    right = evaluate_term(expr.right, subst)
    if not left.is_atom or not right.is_atom:
        if expr.op == "=":
            return subst if same_value(left, right) else None
        if expr.op == "!=":
            return None if same_value(left, right) else subst
        return None
    if compare_values(left.value, expr.op, right.value):
        return subst
    return None


# ---------------------------------------------------------------------------
# Selection pushdown (per-set hash indexes)
# ---------------------------------------------------------------------------

def _analyze_probe_plans(inner):
    """The static half of pushdown: which conjuncts of a set expression's
    inner expression could drive an index probe?

    A conjunct qualifies when it is an unsigned attribute step whose
    subexpression is an unsigned atomic ``=`` comparison — the shape
    ``.attr = term``. The attribute may be a string constant or a
    variable (usable at probe time only once bound to a name — the
    "already-bound higher-order attribute" case); the compared term may
    be a constant (its bucket key is precomputed here) or a variable
    (ground-checked at probe time). Everything else — negation,
    inequalities, arithmetic terms, nested patterns, higher-order
    variables still unbound at probe time — falls back to the scan.

    Returns a tuple of ``(attr_term, attr_name, value_term, const_key)``
    plans; ``attr_name``/``const_key`` are the precomputed constant
    halves (None when runtime resolution is needed).
    """
    if isinstance(inner, ast.TupleExpr):
        conjuncts = inner.conjuncts
    else:
        conjuncts = (inner,)
    plans = []
    for conjunct in conjuncts:
        if not isinstance(conjunct, ast.AttrStep) or conjunct.sign is not None:
            continue
        attr = conjunct.attr
        if isinstance(attr, Const):
            if not isinstance(attr.value, str):
                continue  # the scan path raises the proper error
            attr_name = attr.value
        else:
            attr_name = None  # variable: resolve against the substitution
        comparison = conjunct.expr
        if (
            not isinstance(comparison, ast.AtomicExpr)
            or comparison.op != "="
            or comparison.sign is not None
        ):
            continue
        term = comparison.term
        if isinstance(term, Const):
            const_key = Atom(term.value).value_key()
            plans.append((attr, attr_name, None, const_key))
        elif isinstance(term, Var):
            plans.append((attr, attr_name, term, None))
    return tuple(plans)


def _index_candidates(expr, obj, subst, context):
    """Resolve a set-expression probe, or None to fall back to the scan.

    Tries each memoized plan in order; the first one whose attribute name
    and compared value are ground under ``subst`` (and atomic) probes the
    set's hash index and returns the matching bucket plus the residual
    of unclassifiable elements. The index is a pure pre-filter — the
    caller still evaluates the inner expression against every candidate
    — so a probe can only drop elements that provably fail the ``=``
    selection.
    """
    if not isinstance(obj, SetObject):
        context.index_fallbacks += 1
        return None
    plans = expr.probe_plans
    if plans is None:
        plans = expr.probe_plans = _analyze_probe_plans(expr.inner)
    if not plans:
        context.index_fallbacks += 1
        return None
    for attr_term, attr_name, value_term, const_key in plans:
        if attr_name is None:
            bound = subst.lookup(attr_term.name)
            if bound is None or not bound.is_atom or not isinstance(bound.value, str):
                continue  # unbound or non-name: not usable as a probe
            name = bound.value
        else:
            name = attr_name
        if const_key is None:
            value = subst.lookup(value_term.name)
            if value is None or not value.is_atom:
                continue  # unbound or non-atomic comparison: no pushdown
            key = value.value_key()
        else:
            key = const_key
        index = obj.peek_index(name)
        if index is None:
            index = obj.index_on(name)
            context.index_builds += 1
        else:
            context.index_hits += 1
        return index.candidates(key)
    context.index_fallbacks += 1
    return None


# ---------------------------------------------------------------------------
# Query answering
# ---------------------------------------------------------------------------


def answers(query, universe, bindings=None, context=None):
    """All answers to a query against ``universe``.

    Returns a deduplicated list of substitutions restricted to the
    query's variables. ``bindings`` pre-binds parameters (a
    ``{name: IdlObject}`` dict or a Substitution).
    """
    expr = query.expr if isinstance(query, ast.Query) else query
    subst = _as_substitution(bindings)
    names = expr.variables()
    seen = set()
    results = []
    for solution in satisfy(expr, universe, subst, context):
        restricted = solution.restrict(names)
        key = restricted.signature()
        if key not in seen:
            seen.add(key)
            results.append(restricted)
    return results


def holds(query, universe, bindings=None, context=None):
    """Boolean satisfaction: does at least one answer exist?"""
    expr = query.expr if isinstance(query, ast.Query) else query
    subst = _as_substitution(bindings)
    for _ in satisfy(expr, universe, subst, context):
        return True
    return False


def _as_substitution(bindings):
    if bindings is None:
        return Substitution.empty()
    if isinstance(bindings, Substitution):
        return bindings
    converted = {}
    for name, value in bindings.items():
        if isinstance(value, (str, int, float, bool)) or value is None:
            converted[name] = Atom(value)
        else:
            converted[name] = value
    return Substitution.of(converted)
