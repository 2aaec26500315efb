"""Binding signatures for update programs (paper Section 7.1).

An update program clause like insStk is only defined for calls that bind
every variable its ``+`` expressions need: "if any of the argument is
not given then the plus expressions are not defined. This can be used to
define the necessary bindings for which a given update program is
defined. Such compile time analysis can be used to check the validity of
the 'call'."

We implement exactly that: :func:`clause_signature` computes, per
clause, which parameter subsets admit a safe evaluation order of the
body; :func:`check_call_binding` validates a concrete call against a
clause before execution.
"""

from __future__ import annotations

from itertools import combinations

from repro.core.safety import goal_order
from repro.errors import BindingError, SafetyError


def body_executable(body, bound_params):
    """Is the clause body safely orderable with ``bound_params`` bound?"""
    try:
        goal_order(body, bound_params)
        return True
    except SafetyError:
        return False


def minimal_signatures(param_names, body):
    """The minimal parameter subsets under which ``body`` is executable.

    Returns a list of frozensets; a call is valid iff its given
    parameters are a superset of one of them. Exponential in the number
    of parameters, which is small by construction (a program head lists
    them explicitly).
    """
    params = tuple(sorted(param_names))
    valid = []
    for size in range(len(params) + 1):
        for subset in combinations(params, size):
            candidate = frozenset(subset)
            if any(existing <= candidate for existing in valid):
                continue  # already implied by a smaller signature
            if body_executable(body, candidate):
                valid.append(candidate)
    return valid


def check_call_binding(clause_name, param_names, body, given):
    """Raise :class:`BindingError` unless ``body`` is executable when
    exactly the ``given`` parameters are bound."""
    given = frozenset(given) & frozenset(param_names)
    if not body_executable(body, given):
        missing_hint = ", ".join(sorted(frozenset(param_names) - given))
        raise BindingError(
            f"update program {clause_name!r} is not defined for the given "
            f"bindings {sorted(given)}; unbound parameters: {missing_hint or 'none'}"
        )


def describe_signatures(param_names, body):
    """Human-readable binding signatures, e.g. ``['stk+date', 'stk']``.

    Used by the engine's introspection API and the examples.
    """
    signatures = minimal_signatures(param_names, body)
    rendered = []
    for signature in sorted(signatures, key=lambda s: (len(s), sorted(s))):
        rendered.append("+".join(sorted(signature)) if signature else "(none)")
    return rendered
