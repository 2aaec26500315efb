"""Top-down execution of update programs and view updates (Section 7).

The :class:`UpdateExecutor` processes an update request conjunct by
conjunct, left to right. Each conjunct is classified:

* a **program call** — ``.dbU.delStk(.stk=hp)`` where the program
  registry has clauses for ``(dbU, delStk, None)``: parameters are
  evaluated (unbound arguments mean "not given"), each binding-compatible
  clause executes its body with the parameters bound top-down, and the
  call succeeds when at least one clause body succeeded. Programs return
  only success or failure — no bindings escape;
* a **view update** — ``.dbX.p+(...)`` where ``(dbX, p)`` is a derived
  view target: dispatched to the administrator's registered view-update
  program (same key with the sign; a wildcard ``.dbO.S+(...)`` program
  serves a higher-order view's whole relation family). An unregistered
  view update raises — base ``+``/``-`` on derived objects is illegal
  (Section 7.1: updates "have been allowed only on extensional
  objects");
* anything else — an ordinary query/update conjunct, executed by
  :mod:`repro.core.updates` against the base universe.

Clause selection honours binding signatures: clauses whose head
parameters are constants act as pattern-matching alternatives, clauses
whose body is not executable under the given bindings are skipped, and a
call no clause accepts raises :class:`BindingError` (the paper's
compile-time validity check, applied at call time).
"""

from __future__ import annotations

from repro.core import ast
from repro.core.binding import body_executable
from repro.core.evaluator import EvalContext, _as_substitution
from repro.core.program import parse_call_shape
from repro.core.substitution import Substitution
from repro.core.terms import Const, Var, evaluate_term
from repro.core.updates import UpdateContext, UpdateResult, apply_conjunct
from repro.errors import BindingError, UpdateError
from repro.objects.atom import Atom

_MAX_CALL_DEPTH = 32


class CallOutcome:
    """Result of one program call (success flag + per-clause summary)."""

    __slots__ = ("succeeded", "clauses_run", "clauses_succeeded")

    def __init__(self, succeeded, clauses_run, clauses_succeeded):
        self.succeeded = succeeded
        self.clauses_run = clauses_run
        self.clauses_succeeded = clauses_succeeded


class UpdateExecutor:
    """Executes update requests with program-call and view dispatch."""

    def __init__(self, program, universe, eval_ctx=None):
        self.program = program
        self.universe = universe
        self.eval_ctx = eval_ctx or EvalContext()

    # -- request processing --------------------------------------------------

    def execute_request(self, request, bindings=None, uctx=None):
        """Run an update request (Query statement or TupleExpr)."""
        expr = request.expr if isinstance(request, ast.Query) else request
        if not isinstance(expr, ast.TupleExpr):
            expr = ast.TupleExpr([expr])
        substitutions = [_as_substitution(bindings)]
        if uctx is None:
            uctx = UpdateContext(self.eval_ctx)
        substitutions = self._run_conjuncts(
            ast.conjuncts_of(expr), substitutions, uctx, depth=0
        )
        return UpdateResult(substitutions, uctx.inserted, uctx.deleted,
                            uctx.modified, delta=uctx.delta)

    def _run_conjuncts(self, conjuncts, substitutions, uctx, depth):
        if depth > _MAX_CALL_DEPTH:
            raise UpdateError("update program call depth exceeded")
        for conjunct in conjuncts:
            if not substitutions:
                break
            dispatch = self._classify(conjunct)
            if dispatch is None:
                substitutions, _ = apply_conjunct(
                    conjunct, self.universe, substitutions, uctx
                )
                continue
            db, name, sign, args_expr, clauses, wildcard_name = dispatch
            surviving = []
            for current in substitutions:
                outcome = self._call(
                    db, name, sign, args_expr, current, clauses,
                    wildcard_name, uctx, depth,
                )
                if outcome.succeeded:
                    surviving.append(current)
            substitutions = surviving
        return substitutions

    # -- classification --------------------------------------------------------

    def _classify(self, conjunct):
        """Return dispatch info for program calls/view updates, else None."""
        shape = parse_call_shape(conjunct)
        if shape is None:
            if self._hits_derived_view(conjunct):
                raise UpdateError(
                    "updates are only legal on extensional objects; define "
                    "a view-update program for this derived view"
                )
            return None
        db, name, sign, args_expr = shape

        clauses, wildcard_name = self.program.clauses_for(db, name, sign)
        if clauses:
            return (db, name, sign, args_expr, clauses, wildcard_name)

        if sign is not None and self.program.is_derived((db, name)):
            raise UpdateError(
                f"view .{db}.{name} is not updatable: no "
                f"'{sign}' update program is registered for it"
            )
        if conjunct.has_update() and self._hits_derived_view(conjunct):
            raise UpdateError(
                "updates are only legal on extensional objects; define "
                "a view-update program for this derived view"
            )
        return None

    def _hits_derived_view(self, conjunct):
        """Does a signed part of this conjunct address a derived target?"""
        if not conjunct.has_update():
            return False
        path = []
        node = conjunct
        while isinstance(node, ast.AttrStep) and isinstance(node.attr, Const):
            if node.sign is not None:
                break
            path.append(node.attr.value)
            if len(path) >= 2:
                break
            node = node.expr
        return len(path) >= 2 and self.program.is_derived(tuple(path))

    # -- program calls -----------------------------------------------------------

    def _call(self, db, name, sign, args_expr, subst, clauses, wildcard_name, uctx, depth):
        args = self._evaluate_args(args_expr, subst, db, name)
        if wildcard_name is not None:
            args = dict(args)
            args["__relation__"] = Atom(wildcard_name)

        compatible = []
        for clause in clauses:
            params = self._match_clause(clause, args)
            if params is None:
                continue
            if not body_executable(clause.body, params.domain()):
                continue
            compatible.append((clause, params))

        if not compatible:
            raise BindingError(
                f"no clause of .{db}.{name or wildcard_name}{sign or ''} "
                f"accepts the given bindings {sorted(args)}"
            )

        clauses_succeeded = 0
        for clause, params in compatible:
            result_substs = self._run_conjuncts(
                ast.conjuncts_of(clause.body), [params], uctx, depth + 1
            )
            if result_substs:
                clauses_succeeded += 1
        return CallOutcome(clauses_succeeded > 0, len(compatible), clauses_succeeded)

    def _evaluate_args(self, args_expr, subst, db, name):
        """Evaluate call arguments; unbound variables mean "not given"."""
        args = {}
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
                raise UpdateError(
                    f"program call arguments are '.name=value' items; "
                    f"got {item!r} in call to .{db}.{name}"
                )
            attr = item.attr.value
            term = item.expr.term
            if isinstance(term, Var) and not subst.binds(term.name):
                continue  # parameter intentionally not given
            args[attr] = evaluate_term(term, subst)
        return args

    def _match_clause(self, clause, args):
        """Parameter substitution for a clause, or None if incompatible."""
        unknown = set(args) - set(clause.param_terms)
        if unknown:
            return None
        params = Substitution.empty()
        for attr, value in args.items():
            term = clause.param_terms[attr]
            if isinstance(term, Const):
                # Constant head parameter: pattern-match the argument.
                if not value.is_atom or not Atom(term.value).compare("=", value.value):
                    return None
                continue
            params = params.bind(term.name, value)
        return params
