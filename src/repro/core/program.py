"""IDL programs: named collections of rules and update programs.

An :class:`IdlProgram` aggregates the schema administrator's artifacts:

* **rules** (Section 6) — view definitions, possibly higher order,
  optionally with merge keys (see ``rules.make_true``);
* **update programs** (Section 7) — named, parameterized clauses keyed
  by ``(db, name, sign)``; ``sign`` is None for ordinary programs like
  delStk and ``'+'``/``'-'`` for view-update programs like
  ``.dbX.p+(exp) -> ...``.

Nonrecursion of update programs (Section 7.1: "we disallow any recursive
call to update program") is enforced at registration time over the call
graph: a text of clauses is checked as a whole and registered only when
the graph it would make is acyclic.

:meth:`IdlProgram.resolve_call` is the one decision "is this conjunct a
program call, and to which clauses": the update executor, the effect
analysis, the checker, the nonrecursion check and the console all ask
it, so they agree on what a request runs.
"""

from __future__ import annotations

from repro.core import ast
from repro.core.parser import parse_program
from repro.core.rules import analyze_rule
from repro.core.terms import Const, Var
from repro.errors import RecursionError_, SemanticError, UpdateError


class ProgramClause:
    """One analyzed update program clause."""

    __slots__ = ("key", "param_names", "param_terms", "body", "clause_source")

    def __init__(self, key, param_names, param_terms, body, clause_source=None):
        self.key = key  # (db, name_or_None, sign)
        self.param_names = param_names  # tuple of attribute names
        self.param_terms = param_terms  # {attr_name: Var/Const term}
        self.body = body
        self.clause_source = clause_source  # the UpdateClause statement

    @property
    def db(self):
        return self.key[0]

    @property
    def name(self):
        return self.key[1]

    @property
    def sign(self):
        return self.key[2]

    def __repr__(self):
        sign = self.key[2] or ""
        return f"<ProgramClause .{self.key[0]}.{self.key[1] or 'REL'}{sign}>"


def analyze_clause(clause):
    """Validate an UpdateClause head and extract its key and parameters.

    Head shapes accepted::

        .dbU.delStk(.stk=S, .date=D)        -- key (dbU, delStk, None)
        .dbX.p+(.date=D, .stk=S, .price=P)  -- key (dbX, p, '+')
        .dbO.S+(.date=D, .clsPrice=P)       -- key (dbO, None, '+'), the
                                               relation name is the extra
                                               parameter S (wildcard form
                                               for higher-order views)
    """
    head_conjuncts = ast.conjuncts_of(clause.head)
    if len(head_conjuncts) != 1:
        raise SemanticError("an update program head must be a single expression")
    step = head_conjuncts[0]
    if not isinstance(step, ast.AttrStep) or not isinstance(step.attr, Const):
        raise SemanticError("an update program head starts with a database name")
    db = step.attr.value

    inner = step.expr
    if not isinstance(inner, ast.AttrStep):
        raise SemanticError("an update program head names a program or relation")
    if isinstance(inner.attr, Const):
        name = inner.attr.value
        rel_var = None
    else:
        name = None
        rel_var = inner.attr.name

    params_expr = inner.expr
    sign = None
    if isinstance(params_expr, ast.SetExpr):
        sign = params_expr.sign
        params_expr = params_expr.inner
    elif isinstance(params_expr, ast.Epsilon):
        params_expr = ast.TupleExpr([])
    else:
        raise SemanticError(
            "an update program head ends with a parameter list '( ... )'"
        )
    if name is None and sign is None:
        raise SemanticError(
            "a wildcard (higher-order) program head requires a '+' or '-' sign"
        )

    param_names = []
    param_terms = {}
    for item in ast.conjuncts_of(params_expr):
        if isinstance(item, ast.Epsilon):
            continue
        if (
            not isinstance(item, ast.AttrStep)
            or item.sign is not None
            or not isinstance(item.attr, Const)
            or not isinstance(item.expr, ast.AtomicExpr)
            or item.expr.op != "="
            or item.expr.sign is not None
        ):
            raise SemanticError(
                f"program parameters are '.name=Var' items, got {item!r}"
            )
        attr = item.attr.value
        if attr in param_terms:
            raise SemanticError(f"duplicate parameter {attr!r}")
        param_names.append(attr)
        param_terms[attr] = item.expr.term

    if rel_var is not None:
        if any(
            isinstance(term, Var) and term.name == rel_var
            for term in param_terms.values()
        ):
            raise SemanticError(
                f"the relation variable {rel_var} cannot also be a parameter"
            )
        param_terms["__relation__"] = Var(rel_var)

    return ProgramClause(
        (db, name, sign), tuple(param_names), param_terms, clause.body,
        clause_source=clause,
    )


class Call:
    """A conjunct that dispatches to update program clauses.

    ``name`` is the called program's constant name, or the :class:`Var`
    of a name-variable call ``.dbO.S+(...)``, whose value at run time
    is the relation name. ``args`` is a tuple of ``(attr, term)`` pairs,
    or None when an item is not ``.name=term`` (``bad_arg`` is then the
    first such item). ``wildcard`` is True when the clauses are the
    database's wildcard ``(db, None, sign)`` program, which receives the
    relation name as its ``__relation__`` parameter.
    """

    __slots__ = ("db", "name", "sign", "args", "bad_arg", "clauses",
                 "wildcard")

    def __init__(self, db, name, sign, args, bad_arg, clauses, wildcard):
        self.db = db
        self.name = name
        self.sign = sign
        self.args = args
        self.bad_arg = bad_arg
        self.clauses = clauses
        self.wildcard = wildcard

    @property
    def key(self):
        """The program key the call dispatches to."""
        return (self.db, None if self.wildcard else self.name, self.sign)

    def describe(self):
        """``.db.name±`` as written at the call site."""
        name = self.name.name if isinstance(self.name, Var) else self.name
        return f".{self.db}.{name}{self.sign or ''}"


class IdlProgram:
    """A mutable collection of rules and update program clauses."""

    def __init__(self):
        self.rules = []  # list of AnalyzedRule
        self.clauses = {}  # key -> list of ProgramClause

    # -- registration -----------------------------------------------------

    def add_rule(self, rule, merge_on=()):
        """Register a view definition (a Rule statement or source text)."""
        if isinstance(rule, str):
            statements = parse_program(rule)
            added = []
            for statement in statements:
                if not isinstance(statement, ast.Rule):
                    raise SemanticError(f"not a rule: {statement!r}")
                added.append(self.add_rule(statement, merge_on=merge_on))
            return added if len(added) != 1 else added[0]
        analyzed = analyze_rule(rule, merge_on=merge_on)
        self.rules.append(analyzed)
        return analyzed

    def add_update_clause(self, clause):
        """Register update program clauses (a statement or source text).

        All or nothing: every clause of a text is analyzed, and the call
        graph they would make with the registered programs is checked
        once, before any of them is registered.
        """
        statements = parse_program(clause) if isinstance(clause, str) else [clause]
        for statement in statements:
            if not isinstance(statement, ast.UpdateClause):
                raise SemanticError(f"not an update clause: {statement!r}")
        added = [analyze_clause(statement) for statement in statements]
        candidate = IdlProgram()
        candidate.rules = self.rules
        candidate.clauses = {
            key: list(clause_list) for key, clause_list in self.clauses.items()
        }
        for analyzed in added:
            candidate.clauses.setdefault(analyzed.key, []).append(analyzed)
        candidate._check_nonrecursive()
        for analyzed in added:
            self.clauses.setdefault(analyzed.key, []).append(analyzed)
        return added if len(added) != 1 else added[0]

    def load(self, source):
        """Load a program text of rules and update clauses."""
        added = []
        for statement in parse_program(source):
            if isinstance(statement, ast.Rule):
                added.append(self.add_rule(statement))
            elif isinstance(statement, ast.UpdateClause):
                added.append(self.add_update_clause(statement))
            else:
                raise SemanticError(
                    "programs contain rules and update clauses only; "
                    f"got {statement!r}"
                )
        return added

    # -- lookup -------------------------------------------------------------

    def clauses_for(self, db, name, sign):
        """Clauses matching a call: exact name first, then wildcard."""
        exact = self.clauses.get((db, name, sign))
        if exact:
            return exact, None
        if sign is not None:
            wildcard = self.clauses.get((db, None, sign))
            if wildcard:
                return wildcard, name
        return [], None

    def program_names(self):
        return sorted(
            f".{db}.{name or '<REL>'}{sign or ''}" for db, name, sign in self.clauses
        )

    def derived_targets(self):
        return [analyzed.target for analyzed in self.rules]

    def is_derived(self, path_names):
        """Could a concrete path address a derived relation?"""
        from repro.core.rules import patterns_overlap

        path_terms = tuple(Const(name) for name in path_names)
        return any(
            patterns_overlap(path_terms, target) and len(path_terms) == len(target)
            for target in self.derived_targets()
        )

    # -- nonrecursion check --------------------------------------------------

    def _check_nonrecursive(self):
        """Reject direct or mutual recursion among update programs."""
        graph = {}
        for key, clause_list in self.clauses.items():
            callees = set()
            for clause in clause_list:
                for callee_key in self._called_keys(clause.body):
                    callees.add(callee_key)
            graph[key] = callees

        visiting, done = set(), set()

        def visit(node, trail):
            if node in done:
                return
            if node in visiting:
                cycle = " -> ".join(str(k) for k in trail + [node])
                raise RecursionError_(f"recursive update program call: {cycle}")
            visiting.add(node)
            for callee in graph.get(node, ()):
                visit(callee, trail + [node])
            visiting.discard(node)
            done.add(node)

        for node in graph:
            visit(node, [])

    def _called_keys(self, body):
        """Keys of update programs a body's conjuncts may call."""
        called = []
        for conjunct in ast.conjuncts_of(body):
            resolved = self.resolve_call(conjunct)
            if isinstance(resolved, Call):
                called.append(resolved.key)
        return called

    # -- call resolution -----------------------------------------------------

    def resolve_call(self, conjunct):
        """What a top-level conjunct does to the update programs.

        Returns a :class:`Call` when the conjunct dispatches to clauses:
        ``.db.name(args)``/``.db.name±(args)`` with registered clauses
        for ``(db, name, sign)``, else a signed call served by the
        database's wildcard ``(db, None, sign)`` clauses, which a
        name-variable call ``.db.S±(args)`` always uses. Returns an
        (unraised) :class:`UpdateError` for a signed access to a derived
        view that no program serves: updates are legal on extensional
        objects only (Section 7.1). Returns None for a plain access.
        """
        shape = _call_shape(conjunct)
        if shape is not None:
            db, name, sign, args_expr = shape
            if isinstance(name, Var):
                clauses = self.clauses.get((db, None, sign)) if sign else None
                wildcard = True
            else:
                clauses, wildcard_name = self.clauses_for(db, name, sign)
                wildcard = wildcard_name is not None
            if clauses:
                args, bad_arg = _call_args(args_expr)
                return Call(db, name, sign, args, bad_arg, clauses, wildcard)
            if sign is not None and not isinstance(name, Var) and (
                    self.is_derived((db, name))):
                return UpdateError(
                    f"view .{db}.{name} is updated here but no {sign!r} "
                    "view-update program is registered for it"
                )
        if conjunct.has_update() and self._addresses_view(conjunct):
            return UpdateError(
                "updates are only legal on extensional objects; define "
                "a view-update program for this derived view"
            )
        return None

    def _addresses_view(self, conjunct):
        """Do the conjunct's first two (constant, unsigned) steps name a
        derived relation?"""
        path = []
        node = conjunct
        while isinstance(node, ast.AttrStep) and isinstance(node.attr, Const):
            if node.sign is not None:
                break
            path.append(node.attr.value)
            if len(path) >= 2:
                break
            node = node.expr
        return len(path) >= 2 and self.is_derived(tuple(path))


def _call_shape(conjunct):
    """``(db, name, sign, args_expr)`` of a call-shaped conjunct, with
    ``name`` a constant or a name :class:`Var`; else None."""
    if not isinstance(conjunct, ast.AttrStep) or conjunct.sign is not None:
        return None
    if not isinstance(conjunct.attr, Const):
        return None
    inner = conjunct.expr
    if not isinstance(inner, ast.AttrStep) or inner.sign is not None:
        return None
    name = inner.attr.value if isinstance(inner.attr, Const) else inner.attr
    args = inner.expr
    if isinstance(args, ast.SetExpr):
        return (conjunct.attr.value, name, args.sign, args.inner)
    if isinstance(args, ast.Epsilon):
        return (conjunct.attr.value, name, None, ast.TupleExpr([]))
    return None


def _call_args(args_expr):
    """``((attr, term), ...), None`` for a ``.name=term`` argument list;
    ``None, item`` naming the first item of another shape."""
    args = []
    for item in ast.conjuncts_of(args_expr):
        if isinstance(item, ast.Epsilon):
            continue
        if (
            not isinstance(item, ast.AttrStep)
            or item.sign is not None
            or not isinstance(item.attr, Const)
            or not isinstance(item.expr, ast.AtomicExpr)
            or item.expr.op != "="
            or item.expr.sign is not None
        ):
            return None, item
        args.append((item.attr.value, item.expr.term))
    return tuple(args), None


def parse_call_shape(conjunct):
    """Deconstruct a conjunct shaped like a program call.

    Returns ``(db, name, sign, args_expr)`` for ``.db.name(args)`` /
    ``.db.name+(args)`` shapes with constant db and name, else None.
    ``sign`` is the sign of the argument set expression. Whether the
    shape is a call is :meth:`IdlProgram.resolve_call`'s decision.
    """
    shape = _call_shape(conjunct)
    if shape is None or isinstance(shape[1], Var):
        return None
    return shape
