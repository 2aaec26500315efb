"""Authorization over the multidatabase (paper Section 2's third
metadata kind: "keys, types, authorization, etc.").

Autonomous members keep their own access rules; the federation must
honour them when it exposes a unified surface. This module provides:

* :class:`AccessPolicy` — per-principal grants at ``(db, rel)``
  granularity, with ``"*"`` wildcards (which also cover higher-order
  view families, whose relation names are data-dependent);
* :class:`AuthorizedSession` — a per-principal facade over an
  :class:`~repro.core.engine.IdlEngine`: queries evaluate against a
  *filtered* view containing only readable relations, and updates are
  verified against the write grants using the ``(db, rel)`` paths of
  the request's change log before any view is maintained — an
  unauthorized write is rolled back atomically by undoing that log,
  and the view cache stays live;
* policy reflection: grants render as relations, queryable like any
  other metadata.
"""

from __future__ import annotations

from repro.core.engine import answer_bindings, call_request
from repro.errors import AuthorizationError
from repro.objects.tuple import TupleObject

READ = "read"
WRITE = "write"
ACTIONS = (READ, WRITE)


class Grant:
    """One grant: a principal may perform actions on matching relations."""

    __slots__ = ("principal", "db", "rel", "actions")

    def __init__(self, principal, db, rel="*", actions=(READ,)):
        bad = set(actions) - set(ACTIONS)
        if bad:
            raise ValueError(f"unknown actions: {sorted(bad)}")
        self.principal = principal
        self.db = db
        self.rel = rel
        self.actions = frozenset(actions)

    def covers(self, principal, action, db, rel):
        if principal != self.principal and self.principal != "*":
            return False
        if action not in self.actions:
            return False
        if self.db != "*" and self.db != db:
            return False
        return self.rel == "*" or self.rel == rel

    def __repr__(self):
        return (
            f"Grant({self.principal!r}, .{self.db}.{self.rel}, "
            f"{sorted(self.actions)})"
        )


class AccessPolicy:
    """All grants, with membership tests and reflection."""

    def __init__(self):
        self.grants = []

    def grant(self, principal, db, rel="*", actions=(READ,)):
        added = Grant(principal, db, rel, actions)
        self.grants.append(added)
        return added

    def revoke(self, principal, db, rel="*"):
        """Remove every grant exactly matching the scope."""
        before = len(self.grants)
        self.grants = [
            grant
            for grant in self.grants
            if not (
                grant.principal == principal
                and grant.db == db
                and grant.rel == rel
            )
        ]
        return before - len(self.grants)

    def can(self, principal, action, db, rel):
        return any(
            grant.covers(principal, action, db, rel) for grant in self.grants
        )

    def readable_databases(self, principal):
        return {
            grant.db
            for grant in self.grants
            if READ in grant.actions
            and grant.principal in (principal, "*")
        }

    def as_relations(self):
        """The policy as data: one row per grant."""
        return {
            "grants": [
                {
                    "principal": grant.principal,
                    "db": grant.db,
                    "rel": grant.rel,
                    "actions": ",".join(sorted(grant.actions)),
                }
                for grant in self.grants
            ]
        }


def restrict_view(view, predicate):
    """A universe-shaped tuple exposing only relations the predicate
    admits. Relation objects are shared (read-only use), not copied."""
    filtered = TupleObject()
    for db_name in view.attr_names():
        database = view.get(db_name)
        if not database.is_tuple:
            continue
        kept = TupleObject()
        for rel_name in database.attr_names():
            if predicate(db_name, rel_name):
                kept.set(rel_name, database.get(rel_name))
        if len(kept):
            filtered.set(db_name, kept)
    return filtered


class AuthorizedSession:
    """A principal's view of an engine, enforced on read and write."""

    def __init__(self, engine, principal, policy):
        self.engine = engine
        self.principal = principal
        self.policy = policy

    # -- reads ------------------------------------------------------------

    def _readable_view(self, statement=None):
        return restrict_view(
            self.engine.materialized_view(),
            lambda db, rel: self.policy.can(self.principal, READ, db, rel),
        )

    def query(self, source, **params):
        """Answer a query over the readable view (an ``engine.query``
        span)."""
        results = self.engine._answers(source, params, self._readable_view)
        return [answer_bindings(substitution) for substitution in results]

    def ask(self, source, **params):
        """Is the query satisfiable over the readable view? (An
        ``engine.ask`` span.)"""
        return self.engine._holds(source, params, self._readable_view)

    # -- writes ------------------------------------------------------------

    def update(self, source, **params):
        """Run an update request; roll it back unless every touched
        ``(db, rel)`` is covered by a write grant.

        The engine runs the grant check on the request's change log
        before it maintains any view, so a rejected write is undone
        like any failed atomic request and the view cache stays live."""

        def authorize(delta):
            unauthorized = [
                prefix
                for prefix in delta.prefixes()
                if not self.policy.can(
                    self.principal, WRITE, prefix[0],
                    prefix[1] if len(prefix) > 1 else "*",
                )
            ]
            if unauthorized:
                rendered = ", ".join(".".join(prefix)
                                     for prefix in sorted(unauthorized))
                raise AuthorizationError(
                    f"principal {self.principal!r} may not write {rendered}"
                )

        return self.engine.update(source, atomic=True, check=authorize,
                                  **params)

    def call(self, db, program, **args):
        """Call an update program, checked like :meth:`update`; the
        arguments are bound as in :meth:`IdlEngine.call
        <repro.core.engine.IdlEngine.call>`."""
        source, params = call_request(db, program, args)
        return self.update(source, **params)

    def __repr__(self):
        return f"AuthorizedSession({self.principal!r})"
