"""Safety analysis and goal ordering.

The paper's evaluation semantics (Section 4.2) quantifies existentially
over substitutions; an implementation must ensure every variable is
*grounded by enumeration* before it is consumed by an ordered comparison
(``>P``), arithmetic (``C+10``) or a negated expression. Following the
standard range-restriction treatment of safe Datalog, we:

* compute which variables a conjunct can **produce** (bind by matching);
* greedily **reorder** the conjuncts of each conjunction so that every
  conjunct is *ready* (all consumed variables already bound) when it
  runs, raising :class:`SafetyError` when no order works;
* never reorder across an **update conjunct** — Section 5.2 makes update
  order significant ("the reverse ordering would not result in the same
  semantics"), so update conjuncts act as barriers and queries are only
  reordered within the runs between them.
"""

from __future__ import annotations

from repro.core import ast
from repro.core.terms import Arith, Const, Var
from repro.errors import SafetyError


def describe_conjunct(conjunct):
    """``<source text> (at line:column)`` for error messages."""
    from repro.core.pretty import to_source

    rendered = to_source(conjunct)
    if conjunct.loc is not None:
        rendered += f" (at {ast.format_loc(conjunct.loc)})"
    return rendered


def produced_vars(expr):
    """Variables that positive evaluation of ``expr`` binds."""
    if isinstance(expr, ast.Epsilon):
        return frozenset()
    if isinstance(expr, ast.AtomicExpr):
        if expr.op == "=" and isinstance(expr.term, Var) and expr.sign != ast.PLUS:
            # ``=X`` binds X; the atomic minus ``-=X`` binds X to the old
            # value before nulling it (Section 5.2's delStk example).
            return frozenset((expr.term.name,))
        return frozenset()
    if isinstance(expr, ast.AttrStep):
        produced = produced_vars(expr.expr)
        if isinstance(expr.attr, Var) and expr.sign != ast.PLUS:
            produced = produced | frozenset((expr.attr.name,))
        return produced
    if isinstance(expr, ast.SetExpr):
        if expr.sign == ast.PLUS:
            return frozenset()
        return produced_vars(expr.inner)
    if isinstance(expr, ast.TupleExpr):
        produced = frozenset()
        for conjunct in expr.conjuncts:
            produced |= produced_vars(conjunct)
        return produced
    if isinstance(expr, ast.Constraint):
        if expr.op == "=":
            # If eligible (one side ground), the other side's variables
            # end up bound; over-approximation is safe because readiness
            # is re-checked before the conjunct is scheduled.
            return expr.left.variables() | expr.right.variables()
        return frozenset()
    if isinstance(expr, ast.NegExpr):
        return frozenset()
    raise TypeError(f"not an expression: {expr!r}")


def is_ready(expr, bound):
    """Can ``expr`` be evaluated with exactly ``bound`` variables bound?"""
    bound = frozenset(bound)
    if isinstance(expr, ast.Epsilon):
        return True
    if isinstance(expr, ast.AtomicExpr):
        return _atomic_ready(expr, bound)
    if isinstance(expr, ast.AttrStep):
        return _attr_step_ready(expr, bound)
    if isinstance(expr, ast.SetExpr):
        if expr.sign == ast.PLUS:
            # Set plus must be ground when applied (simple ground expr).
            return expr.inner.variables() <= bound
        return is_ready(expr.inner, bound)
    if isinstance(expr, ast.TupleExpr):
        try:
            goal_order(expr, bound)
            return True
        except SafetyError:
            return False
    if isinstance(expr, ast.Constraint):
        if expr.op == "=":
            return (
                expr.left.variables() <= bound or expr.right.variables() <= bound
            )
        return expr.variables() <= bound
    if isinstance(expr, ast.NegExpr):
        # At this level all non-bound inner variables are treated as
        # existential; sharing with sibling conjuncts is handled by
        # order_conjuncts, which defers the negation until shared
        # variables are produced.
        return is_ready(expr.inner, bound)
    raise TypeError(f"not an expression: {expr!r}")


def _atomic_ready(expr, bound):
    term = expr.term
    if expr.sign == ast.PLUS:
        return term.variables() <= bound
    if isinstance(term, Const):
        return True
    if isinstance(term, Var):
        if expr.op == "=":
            return True  # binds or checks
        return term.name in bound
    if isinstance(term, Arith):
        return term.variables() <= bound
    raise TypeError(f"not a term: {term!r}")


def _attr_step_ready(expr, bound):
    attr_bound = bound
    if isinstance(expr.attr, Var):
        if expr.sign == ast.PLUS and expr.attr.name not in bound:
            return False  # cannot create an attribute with an unknown name
        attr_bound = bound | frozenset((expr.attr.name,))
    if expr.sign == ast.PLUS:
        # Tuple plus builds an object: the whole inner expression must be
        # ground once the attribute variable is resolved.
        return expr.expr.variables() <= attr_bound
    return is_ready(expr.expr, attr_bound)


def selectivity_score(conjunct, bound):
    """Heuristic cost of scheduling ``conjunct`` next (lower = better).

    Among *ready* conjuncts we prefer the more constrained: negations
    and constraints are pure filters (cheapest), then conjuncts with
    fewer unbound variables (each unbound variable is an enumeration)
    and more constants (each constant is a selection). Purely a
    performance heuristic — any ready order is semantically equivalent
    for queries.
    """
    if isinstance(conjunct, (ast.NegExpr, ast.Constraint)):
        return (-1, 0)
    unbound = len(conjunct.variables() - bound)
    constants = 0
    for node in conjunct.walk():
        if isinstance(node, ast.AttrStep) and not isinstance(node.attr, Var):
            constants += 1
        elif isinstance(node, ast.AtomicExpr) and not node.term.variables():
            constants += 1
    return (unbound, -constants)


def goal_order(expr, bound, query_items=False):
    """The safe evaluation order of the TupleExpr ``expr``'s conjuncts
    when exactly ``bound`` variables are bound, as a tuple (see
    :func:`order_conjuncts`).

    The node memoizes its orders in ``goal_orders``, keyed by the bound
    set: an order depends only on the immutable node and that set, so
    the memo lives and dies with the node and needs no lock (a racing
    thread can only compute the same order again). A failed order is
    stored as its message and raised as a fresh :class:`SafetyError`
    each time. ``query_items=True`` orders only the conjuncts without
    updates, under a key of its own.
    """
    bound = frozenset(bound)
    key = ("query items", bound) if query_items else bound
    order = expr.goal_orders.get(key)
    if order is None:
        conjuncts = expr.conjuncts
        if query_items:
            conjuncts = [c for c in conjuncts if not c.has_update()]
        try:
            order = tuple(order_conjuncts(conjuncts, bound))
        except SafetyError as exc:
            order = str(exc)
        expr.goal_orders[key] = order
    if isinstance(order, str):
        raise SafetyError(order)
    return order


def order_conjuncts(conjuncts, bound):
    """Reorder ``conjuncts`` so each is ready when reached.

    Returns the reordered list. Pure-query conjuncts may move freely
    within their run; update conjuncts stay in place and bound queries to
    their side of the barrier. Among ready conjuncts, the selectivity
    heuristic picks the most constrained first. Raises
    :class:`SafetyError` when no safe order exists. Callers go through
    the memoized :func:`goal_order`.
    """
    ordered = []
    bound = set(bound)
    segment = []

    def flush_segment():
        pending = list(segment)
        segment.clear()
        while pending:
            eligible = [
                (index, conjunct)
                for index, conjunct in enumerate(pending)
                if _eligible(conjunct, bound, pending, index)
            ]
            if not eligible:
                raise SafetyError(
                    "no safe evaluation order: cannot ground "
                    + ", ".join(sorted(_unbound_of(pending, bound)))
                    + "; blocked conjunct(s): "
                    + "; ".join(describe_conjunct(c) for c in pending)
                )
            index, conjunct = min(
                eligible, key=lambda pair: selectivity_score(pair[1], bound)
            )
            del pending[index]
            ordered.append(conjunct)
            bound.update(produced_vars(conjunct))

    for conjunct in conjuncts:
        if conjunct.has_update():
            flush_segment()
            if not is_ready(conjunct, frozenset(bound)):
                raise SafetyError(
                    "update expression is not ground when reached: "
                    + describe_conjunct(conjunct)
                )
            ordered.append(conjunct)
            bound.update(produced_vars(conjunct))
        else:
            segment.append(conjunct)
    flush_segment()
    return ordered


def _negated_vars(expr):
    """Variables occurring under any negation within ``expr``."""
    names = frozenset()
    for node in expr.walk():
        if isinstance(node, ast.NegExpr):
            names |= node.inner.variables()
    return names


def _eligible(conjunct, bound, pending, index):
    # A negation (at any depth) whose variables co-occur in *other*
    # conjuncts must wait until those variables are produced — otherwise
    # they would be read existentially inside the negation, changing the
    # quantifier structure. Variables the conjunct itself produces
    # positively (outside the negation) do not defer it.
    negated = _negated_vars(conjunct)
    if negated:
        exposed = negated - set(bound) - produced_vars(conjunct)
        if exposed:
            for other_index, other in enumerate(pending):
                if other_index != index and exposed & other.variables():
                    return False
    if isinstance(conjunct, ast.NegExpr):
        return is_ready(conjunct.inner, frozenset(bound))
    return is_ready(conjunct, frozenset(bound))


def _unbound_of(pending, bound):
    unbound = set()
    for conjunct in pending:
        unbound |= conjunct.variables()
    return unbound - set(bound)


def check_query_safe(expr, bound=frozenset()):
    """Validate a whole query conjunction; raises SafetyError if unsafe."""
    goal_order(expr, bound)


def contains_update(expr):
    return expr.has_update()
