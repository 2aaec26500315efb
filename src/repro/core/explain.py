"""Query explanation: what will the evaluator actually do?

``explain_query`` performs the static analyses the engine runs before
evaluation and renders them for humans: the normalized form, the
variable classification (which variables are *higher order* — the
paper's headline feature), the safety-reordered conjunct schedule with
produced/consumed variables, and the catalog paths each conjunct reads.
Used by the REPL's ``:explain`` and handy when a query is unexpectedly
unsafe or slow.
"""

from __future__ import annotations

from repro.core import ast
from repro.core.parser import parse_query
from repro.core.pretty import to_source
from repro.core.rules import body_references
from repro.core.safety import goal_order, produced_vars
from repro.core.terms import Var
from repro.errors import SafetyError


class ConjunctPlan:
    """One scheduled conjunct with its static facts."""

    __slots__ = ("source", "produces", "consumes", "reads", "negated", "is_update")

    def __init__(self, source, produces, consumes, reads, negated, is_update):
        self.source = source
        self.produces = produces
        self.consumes = consumes
        self.reads = reads
        self.negated = negated
        self.is_update = is_update


class ExplainReport:
    """The full explanation of one query."""

    __slots__ = ("source", "variables", "higher_order", "schedule", "safe",
                 "safety_error")

    def __init__(self, source, variables, higher_order, schedule, safe,
                 safety_error):
        self.source = source
        self.variables = variables
        self.higher_order = higher_order
        self.schedule = schedule
        self.safe = safe
        self.safety_error = safety_error

    def render(self):
        lines = [f"query    : ?{self.source}"]
        lines.append(
            "variables: "
            + (", ".join(sorted(self.variables)) if self.variables else "(none)")
        )
        if self.higher_order:
            lines.append(
                "higher-order (range over names): "
                + ", ".join(sorted(self.higher_order))
            )
        if not self.safe:
            lines.append(f"UNSAFE   : {self.safety_error}")
            return "\n".join(lines)
        lines.append("schedule :")
        for index, plan in enumerate(self.schedule, start=1):
            flags = []
            if plan.is_update:
                flags.append("update")
            if plan.negated:
                flags.append("negation")
            suffix = f"  [{', '.join(flags)}]" if flags else ""
            lines.append(f"  {index}. {plan.source}{suffix}")
            if plan.reads:
                lines.append("       reads    " + ", ".join(plan.reads))
            if plan.produces:
                lines.append(
                    "       produces " + ", ".join(sorted(plan.produces))
                )
            if plan.consumes:
                lines.append(
                    "       consumes " + ", ".join(sorted(plan.consumes))
                )
        return "\n".join(lines)


def higher_order_variables(expr):
    """Variables occurring in an attribute (name) position."""
    names = set()
    for node in expr.walk():
        if isinstance(node, ast.AttrStep) and isinstance(node.attr, Var):
            names.add(node.attr.name)
    return names


def profile_query(source, universe, bindings=None):
    """Evaluate a query with node-visit counters; returns
    ``(answers, counters)``. Counters key on AST node kinds plus the
    total ``visits`` — a cheap way to see where a query spends its
    enumeration."""
    from repro.core.evaluator import EvalContext, answers as evaluate

    query = source if isinstance(source, ast.Query) else parse_query(source)
    context = EvalContext(profile=True)
    results = evaluate(query, universe, bindings, context)
    return results, context.counters


def explain_query(source, bound=frozenset()):
    """Build an :class:`ExplainReport` for a query (source or Query)."""
    query = source if isinstance(source, ast.Query) else parse_query(source)
    expr = query.expr
    try:
        ordered = goal_order(expr, bound)
        safe, safety_error = True, None
    except SafetyError as exc:
        ordered, safe, safety_error = [], False, str(exc)

    schedule = []
    bound_so_far = set(bound)
    for conjunct in ordered:
        produces = set(produced_vars(conjunct)) - bound_so_far
        consumes = conjunct.variables() & bound_so_far
        reads = [
            "." + ".".join(
                term.name if isinstance(term, Var) else str(term.value)
                for term in pattern
            )
            + ("" if positive else " (negated)")
            for pattern, positive in body_references(ast.TupleExpr([conjunct]))
        ]
        schedule.append(
            ConjunctPlan(
                to_source(conjunct),
                produces,
                consumes,
                reads,
                isinstance(conjunct, ast.NegExpr)
                or any(isinstance(n, ast.NegExpr) for n in conjunct.walk()),
                conjunct.has_update(),
            )
        )
        bound_so_far |= produces

    return ExplainReport(
        to_source(expr),
        expr.variables(),
        higher_order_variables(expr),
        schedule,
        safe,
        safety_error,
    )
