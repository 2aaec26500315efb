"""Top-down execution of update programs and view updates (Section 7).

The :class:`UpdateExecutor` processes an update request conjunct by
conjunct, left to right. Each conjunct is resolved by
:meth:`repro.core.program.IdlProgram.resolve_call`, the same decision
the effect analysis and the checker read:

* a **program call** — ``.dbU.delStk(.stk=hp)`` where the program
  registry has clauses for ``(dbU, delStk, None)``: parameters are
  evaluated (unbound arguments mean "not given"), each binding-compatible
  clause executes its body with the parameters bound top-down, and the
  call succeeds when at least one clause body succeeded. Programs return
  only success or failure — no bindings escape;
* a **view update** — ``.dbX.p+(...)`` where ``(dbX, p)`` is a derived
  view target: dispatched to the administrator's registered view-update
  program (same key with the sign; a wildcard ``.dbO.S+(...)`` program
  serves a higher-order view's whole relation family, and a call
  ``.dbO.S+(...)`` with ``S`` bound dispatches through it with ``S``'s
  value as the relation name). An unregistered view update raises —
  base ``+``/``-`` on derived objects is illegal (Section 7.1: updates
  "have been allowed only on extensional objects");
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
from repro.core.substitution import Substitution
from repro.core.terms import Const, Var, evaluate_term
from repro.core.updates import UpdateContext, UpdateResult, apply_conjunct
from repro.errors import BindingError, UpdateError
from repro.objects.atom import Atom

_MAX_CALL_DEPTH = 32


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
            call = self.program.resolve_call(conjunct)
            if call is None:
                substitutions, _ = apply_conjunct(
                    conjunct, self.universe, substitutions, uctx
                )
                continue
            if isinstance(call, UpdateError):
                raise call
            substitutions = [
                current for current in substitutions
                if self._call(call, current, uctx, depth)
            ]
        return substitutions

    # -- program calls -----------------------------------------------------------

    def _call(self, call, subst, uctx, depth):
        """Run one call under ``subst``; True when some clause succeeded."""
        args = self._arguments(call, subst)
        compatible = []
        for clause in call.clauses:
            params = self._match_clause(clause, args)
            if params is None:
                continue
            if not body_executable(clause.body, params.domain()):
                continue
            compatible.append((clause, params))

        if not compatible:
            raise BindingError(
                f"no clause of {call.describe()} "
                f"accepts the given bindings {sorted(args)}"
            )

        succeeded = False
        for clause, params in compatible:
            if self._run_conjuncts(
                ast.conjuncts_of(clause.body), [params], uctx, depth + 1
            ):
                succeeded = True
        return succeeded

    def _arguments(self, call, subst):
        """Evaluate call arguments; unbound variables mean "not given".
        A wildcard call passes its relation name as ``__relation__``."""
        if call.args is None:
            raise UpdateError(
                f"program call arguments are '.name=value' items; "
                f"got {call.bad_arg!r} in call to {call.describe()}"
            )
        args = {}
        for attr, term in call.args:
            if isinstance(term, Var) and not subst.binds(term.name):
                continue  # parameter intentionally not given
            args[attr] = evaluate_term(term, subst)
        if call.wildcard:
            if isinstance(call.name, Var) and not subst.binds(call.name.name):
                raise BindingError(
                    f"call {call.describe()} needs its relation name "
                    f"{call.name.name} bound"
                )
            args["__relation__"] = (
                subst.lookup(call.name.name) if isinstance(call.name, Var)
                else Atom(call.name)
            )
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
