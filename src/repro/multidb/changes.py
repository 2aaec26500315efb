"""Member changes: what one update does to one member.

The federation delivers an update to a member as that member's share of
the request's change log (:class:`~repro.core.updates.UpdateDelta`),
not as the member's whole post-state. A :class:`MemberChange` is a
JSON-ready dict (so the journal records it as is) with any of these
keys:

``replace``
    ``{rel: rows}`` — the relation's whole new contents; ``None`` in
    place of the rows means the relation is gone;
``delete``
    ``{rel: rows}`` — delete each row, if present;
``insert``
    ``{rel: rows}`` — insert each row, if absent;
``full``
    ``True`` — drop every relation ``replace`` does not name.

Applying runs ``replace``, then ``delete``, then ``insert``. Each step
is idempotent, so applying a change twice is applying it once, and
roll-forward may redeliver a change after any crash. A full state
``{rel: rows}`` is the change that replaces every relation and drops
the rest (:func:`full_change`): push resync, and intents journaled
before changes were, use it.

:func:`apply_change` is the semantics on plain ``{rel: rows}`` data
(:class:`~repro.multidb.connectors.InMemoryConnector` and crash
recovery use it); :func:`~repro.multidb.adapters.apply_change_to_storage`
is the same on a storage database, where a row's missing columns read
as null.
"""

from __future__ import annotations

from repro.objects.encode import to_python

#: The journal record version of an intent whose members hold changes.
#: A versionless intent holds full member states.
VERSION = 2


class MemberChange(dict):
    """One member's change (see the module docstring).

    A ``dict`` subclass, so it journals as plain JSON, while a
    connector can still tell a change from a plain full state."""

    __slots__ = ()


def full_change(relations):
    """The change that makes a member hold exactly ``relations``."""
    return MemberChange(full=True, replace=dict(relations))


def as_change(value):
    """``value`` itself when it is a change, else the full change of
    the ``{rel: rows}`` state it is."""
    if isinstance(value, MemberChange):
        return value
    return full_change(value)


def member_changes(delta, members, restage):
    """Split an update's change log into one change per member.

    The first element of each folded path names its member. A member's
    change holds its net ``+rows``/``-rows`` per relation. A relation
    with a symbolic change, or with a change nested deeper than ``(db,
    rel)``, is replaced whole, and a symbolic change at ``(db,)``
    restages the whole member. ``restage(member, relations)`` encodes
    those from the universe as ``{rel: rows}`` (``relations=None``: all
    of them); a replaced relation it leaves out is gone. Returns
    ``{member: MemberChange}`` for every member in ``members``.
    """
    members = set(members)
    inserts, deletes, symbolic = delta.fold()
    whole, replaced = set(), {}
    for path in symbolic:
        if len(path) == 1:
            whole.add(path[0])
        else:
            replaced.setdefault(path[0], set()).add(path[1])
    for path in (*inserts, *deletes):
        if len(path) > 2:
            replaced.setdefault(path[0], set()).add(path[1])
    changes = {}
    for member in sorted(members):
        if member in whole:
            changes[member] = full_change(restage(member, None))
            continue
        change = MemberChange()
        relations = sorted(replaced.get(member, ()))
        if relations:
            rows = restage(member, relations)
            change["replace"] = {rel: rows.get(rel) for rel in relations}
        changes[member] = change
    for key, folded in (("delete", deletes), ("insert", inserts)):
        for path, elements in folded.items():
            member = path[0]
            if (len(path) != 2 or member not in members or member in whole
                    or path[1] in replaced.get(member, ())):
                continue
            rows = [row for row in map(to_python, elements.values())
                    if isinstance(row, dict)]
            if rows:
                changes[member].setdefault(key, {})[path[1]] = rows
    return changes


def apply_change(rows, change):
    """Apply ``change`` to ``rows`` (``{rel: [row]}``) in place and
    return ``rows``. A row is present when an equal dict is."""
    replace = change.get("replace", {})
    if change.get("full"):
        for rel in [rel for rel in rows if rel not in replace]:
            del rows[rel]
    for rel, new in replace.items():
        if new is None:
            rows.pop(rel, None)
        else:
            rows[rel] = list(new)
    for rel, doomed in change.get("delete", {}).items():
        current = rows.get(rel)
        if current:
            current[:] = [row for row in current if row not in doomed]
    for rel, added in change.get("insert", {}).items():
        current = rows.setdefault(rel, [])
        for row in added:
            if row not in current:
                current.append(row)
    return rows


def torn_change(change):
    """What a member without transactions holds of ``change`` when the
    write dies halfway: every relation-level step (a replaced relation
    is cleared, a dropped one dropped, and with ``full`` the rest
    dropped) and the first half of the row operations, in apply order
    (replaced relations' rows, then deletes, then inserts)."""
    budget = sum(len(rows)
                 for key in ("replace", "delete", "insert")
                 for rows in change.get(key, {}).values()
                 if rows is not None) // 2
    torn = MemberChange()
    if change.get("full"):
        torn["full"] = True
    for key in ("replace", "delete", "insert"):
        part = {}
        for rel, rows in change.get(key, {}).items():
            if rows is None:
                part[rel] = None
                continue
            kept = rows[:budget]
            budget -= len(kept)
            if kept or key == "replace":
                part[rel] = kept
        if part:
            torn[key] = part
    return torn
