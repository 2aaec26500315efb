"""Abstract syntax of IDL expressions and statements.

The expression AST mirrors the paper's grammar (Section 4.1), extended
with the Section 4.3 higher-order attribute terms and the Section 5
update signs:

* :class:`Epsilon` — the tautological empty expression;
* :class:`AtomicExpr` — ``<op> term``; an optional sign makes it the
  atomic plus/minus update ``+=c`` / ``-=c``;
* :class:`AttrStep` — one tuple-expression item ``.A exp``; the
  attribute term may be a constant or a (higher-order) variable, and an
  optional sign makes it the tuple plus/minus ``+.A exp`` / ``-.A exp``;
* :class:`TupleExpr` — a conjunction of expressions evaluated against
  the *same* object (tuple items, and negated sub-conjunctions);
* :class:`SetExpr` — ``( exp )``; an optional sign makes it the set
  plus/minus ``+(exp)`` / ``-(exp)``;
* :class:`NegExpr` — ``~exp``.

Statements:

* :class:`Query` — ``? exp`` (also an *update request* when the
  expression contains signed subexpressions, Section 5.1);
* :class:`Rule` — ``head <- body`` (view definition, Section 6);
* :class:`UpdateClause` — ``head -> body`` (update program, Section 7).
"""

from __future__ import annotations

from repro.core.terms import Const, Term, Var

PLUS = "+"
MINUS = "-"
SIGNS = (None, PLUS, MINUS)


def format_loc(loc):
    """Render a ``(line, column)`` pair as ``line:column`` (or ``?``)."""
    if not loc:
        return "?"
    return f"{loc[0]}:{loc[1]}"


class Expr:
    """Abstract expression node.

    Every node carries an optional ``loc`` — the ``(line, column)`` of
    the token that started it, threaded through by the parser so later
    passes (safety, stratification, the ``idlcheck`` analyzer) can cite
    source positions. ``loc`` never participates in equality or hashing.
    """

    __slots__ = ("loc",)

    def variables(self):
        """All variable names occurring in the expression."""
        raise NotImplementedError

    def has_update(self):
        """True if any subexpression carries a + or - sign."""
        raise NotImplementedError

    def children(self):
        """Direct subexpressions (for generic walks)."""
        return ()

    def walk(self):
        """Yield this node and every descendant, pre-order."""
        yield self
        for child in self.children():
            for node in child.walk():
                yield node

    def __eq__(self, other):
        return type(self) is type(other) and self._key() == other._key()

    def __hash__(self):
        return hash((type(self).__name__, self._key()))

    def _key(self):
        raise NotImplementedError

    def __repr__(self):
        from repro.core.pretty import to_source

        return f"<{type(self).__name__} {to_source(self)}>"


class Epsilon(Expr):
    """The empty (tautological) expression, satisfied by any object."""

    __slots__ = ()

    def __init__(self, loc=None):
        self.loc = loc

    def variables(self):
        return frozenset()

    def has_update(self):
        return False

    def _key(self):
        return ()


class AtomicExpr(Expr):
    """``<op> term`` — or the atomic update ``+=term`` / ``-=term``."""

    __slots__ = ("op", "term", "sign")

    def __init__(self, op, term, sign=None, loc=None):
        if sign not in SIGNS:
            raise ValueError(f"bad sign {sign!r}")
        if sign is not None and op != "=":
            raise ValueError("atomic updates use '=' only (simple expressions)")
        if not isinstance(term, Term):
            raise TypeError(f"atomic operand must be a Term, got {type(term).__name__}")
        self.op = op
        self.term = term
        self.sign = sign
        self.loc = loc

    def variables(self):
        return self.term.variables()

    def has_update(self):
        return self.sign is not None

    def _key(self):
        return (self.op, self.term, self.sign)


class AttrStep(Expr):
    """One tuple item ``.A exp`` (or signed: ``+.A exp`` / ``-.A exp``).

    Evaluated against a tuple object: descend into (or create/delete)
    attribute ``A`` and evaluate ``expr`` on the attribute's object.
    ``attr`` is a Const (name) or Var (higher-order variable).
    """

    __slots__ = ("sign", "attr", "expr")

    def __init__(self, attr, expr, sign=None, loc=None):
        if sign not in SIGNS:
            raise ValueError(f"bad sign {sign!r}")
        if not isinstance(attr, (Const, Var)):
            raise TypeError("attribute position takes a constant or variable")
        self.sign = sign
        self.attr = attr
        self.expr = expr
        self.loc = loc

    def variables(self):
        return self.attr.variables() | self.expr.variables()

    def has_update(self):
        return self.sign is not None or self.expr.has_update()

    def children(self):
        return (self.expr,)

    def _key(self):
        return (self.sign, self.attr, self.expr)


class TupleExpr(Expr):
    """A conjunction of expressions over the same object.

    Conjuncts are typically :class:`AttrStep` items (the paper's
    ``.a1 exp1, .a2 exp2, ...``) and :class:`NegExpr` wrappers. A
    one-conjunct TupleExpr is semantically identical to its conjunct.

    ``goal_orders`` memoizes the node's safe evaluation orders, filled
    by :func:`repro.core.safety.goal_order`; it lives and dies with the
    node and never participates in equality or hashing.
    """

    __slots__ = ("conjuncts", "goal_orders")

    def __init__(self, conjuncts, loc=None):
        self.conjuncts = tuple(conjuncts)
        self.goal_orders = {}
        if loc is None and self.conjuncts:
            loc = self.conjuncts[0].loc
        self.loc = loc

    def variables(self):
        names = frozenset()
        for conjunct in self.conjuncts:
            names |= conjunct.variables()
        return names

    def has_update(self):
        return any(conjunct.has_update() for conjunct in self.conjuncts)

    def children(self):
        return self.conjuncts

    def _key(self):
        return self.conjuncts


class SetExpr(Expr):
    """``( exp )`` over a set object (or signed: ``+(exp)`` / ``-(exp)``).

    ``probe_plans`` memoizes the evaluator's index-probe analysis of
    ``inner`` (None until first evaluated), like ``TupleExpr.goal_orders``.
    """

    __slots__ = ("inner", "sign", "probe_plans")

    def __init__(self, inner, sign=None, loc=None):
        if sign not in SIGNS:
            raise ValueError(f"bad sign {sign!r}")
        self.inner = inner
        self.sign = sign
        self.loc = loc
        self.probe_plans = None

    def variables(self):
        return self.inner.variables()

    def has_update(self):
        return self.sign is not None or self.inner.has_update()

    def children(self):
        return (self.inner,)

    def _key(self):
        return (self.inner, self.sign)


class Constraint(Expr):
    """A standalone comparison between terms: ``X = ource``, ``S != date``.

    The paper's footnote 7 admits this construct "very similar to the use
    in Datalog". Unlike :class:`AtomicExpr` it is evaluated against the
    substitution alone, not against an object; with ``=`` and one unbound
    side it binds that variable.
    """

    __slots__ = ("left", "op", "right")

    def __init__(self, left, op, right, loc=None):
        if not isinstance(left, Term) or not isinstance(right, Term):
            raise TypeError("constraints compare terms")
        self.left = left
        self.op = op
        self.right = right
        self.loc = loc

    def variables(self):
        return self.left.variables() | self.right.variables()

    def has_update(self):
        return False

    def _key(self):
        return (self.left, self.op, self.right)


class NegExpr(Expr):
    """``~exp`` — satisfied iff ``exp`` has no satisfying extension.

    Negation binds nothing; its free variables must be bound by the time
    it is evaluated (enforced by goal ordering, see ``safety``).
    """

    __slots__ = ("inner",)

    def __init__(self, inner, loc=None):
        if inner.has_update():
            raise ValueError("update expressions cannot be negated")
        self.inner = inner
        self.loc = loc

    def variables(self):
        return self.inner.variables()

    def has_update(self):
        return False

    def children(self):
        return (self.inner,)

    def _key(self):
        return (self.inner,)


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Statement:
    """Abstract parsed statement (``loc`` as for :class:`Expr`)."""

    __slots__ = ("loc",)


class Query(Statement):
    """``? exp1, ..., expk`` — a query, or an update request when any
    conjunct carries a sign (Section 5.1)."""

    __slots__ = ("expr",)

    def __init__(self, expr, loc=None):
        if not isinstance(expr, TupleExpr):
            expr = TupleExpr([expr])
        self.expr = expr
        self.loc = loc if loc is not None else expr.loc

    @property
    def is_update_request(self):
        return self.expr.has_update()

    def variables(self):
        return self.expr.variables()

    def __eq__(self, other):
        return isinstance(other, Query) and self.expr == other.expr

    def __hash__(self):
        return hash((Query, self.expr))

    def __repr__(self):
        from repro.core.pretty import to_source

        return f"<Query ?{to_source(self.expr)}>"


class Rule(Statement):
    """``head <- body`` — a (possibly higher-order) view definition.

    The head must be a *simple tuple expression* (Section 6): a path of
    attribute steps ending in a set-plus-like insertion pattern; every
    head variable must occur in the body. Validation happens in
    ``rules.analyze_rule`` so the parser stays purely syntactic.
    """

    __slots__ = ("head", "body")

    def __init__(self, head, body, loc=None):
        self.head = head if isinstance(head, TupleExpr) else TupleExpr([head])
        self.body = body if isinstance(body, TupleExpr) else TupleExpr([body])
        self.loc = loc if loc is not None else self.head.loc

    def variables(self):
        return self.head.variables() | self.body.variables()

    def __eq__(self, other):
        return (
            isinstance(other, Rule)
            and self.head == other.head
            and self.body == other.body
        )

    def __hash__(self):
        return hash((Rule, self.head, self.body))

    def __repr__(self):
        from repro.core.pretty import to_source

        return f"<Rule {to_source(self.head)} <- {to_source(self.body)}>"


class UpdateClause(Statement):
    """``head -> body`` — one clause of an update program (Section 7).

    The head names the program and declares its parameters; the body is
    an update request executed with the parameters bound top-down.
    """

    __slots__ = ("head", "body")

    def __init__(self, head, body, loc=None):
        self.head = head if isinstance(head, TupleExpr) else TupleExpr([head])
        self.body = body if isinstance(body, TupleExpr) else TupleExpr([body])
        self.loc = loc if loc is not None else self.head.loc

    def variables(self):
        return self.head.variables() | self.body.variables()

    def __eq__(self, other):
        return (
            isinstance(other, UpdateClause)
            and self.head == other.head
            and self.body == other.body
        )

    def __hash__(self):
        return hash((UpdateClause, self.head, self.body))

    def __repr__(self):
        from repro.core.pretty import to_source

        return f"<UpdateClause {to_source(self.head)} -> {to_source(self.body)}>"


def conjuncts_of(expr):
    """Flatten an expression into its top-level conjunct list."""
    if isinstance(expr, TupleExpr):
        return list(expr.conjuncts)
    return [expr]
