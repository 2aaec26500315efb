"""Adapters between the storage substrate and the IDL universe.

Members of a federation run on their own relational systems
(:mod:`repro.storage` here). The federation snapshots their data into
the universe on attach, and — after update programs have run — flushes
the universe state back, transactionally, so the autonomous database
ends up exactly as if it had executed the translated updates locally.
"""

from __future__ import annotations

from repro.multidb.changes import MemberChange, apply_change
from repro.objects import encode
from repro.storage.schema import ANY, BOOL, FLOAT, INT, STR, Column, Schema


def storage_to_relations(storage):
    """Snapshot a StorageDatabase into ``{relation: rows}``."""
    return {
        name: storage.scan(name) for name in storage.relation_names()
    }


def attach_storage(engine, name, storage, include_catalog=False):
    """Register a storage database as a member of an engine's universe.

    With ``include_catalog`` the reflective ``_relations``/``_columns``
    tables are exposed too — making the member's metadata queryable as
    data, the paper's Section 2 requirement.
    """
    relations = storage_to_relations(storage)
    if include_catalog:
        relations.update(storage.system_relations())
    engine.add_database(name, relations)
    return engine.universe.database(name)


def infer_schema(rows):
    """Infer a (loose) schema from row dicts: union of columns, type
    ``any`` unless every non-null value agrees."""
    columns = {}
    for row in rows:
        for name, value in row.items():
            seen = columns.setdefault(name, set())
            if value is None:
                continue
            if isinstance(value, bool):
                seen.add(BOOL)
            elif isinstance(value, str):
                seen.add(STR)
            elif isinstance(value, int):
                seen.add(INT)
            elif isinstance(value, float):
                seen.add(FLOAT)
            else:
                seen.add(ANY)
    built = []
    for name, seen in columns.items():
        if seen == {INT}:
            type_name = INT
        elif seen <= {INT, FLOAT} and seen:
            type_name = FLOAT
        elif len(seen) == 1:
            type_name = next(iter(seen))
        else:
            type_name = ANY
        built.append(Column(name, type_name, nullable=True))
    return Schema(built)


def universe_rows(universe, name, relations=None):
    """Database ``name``'s relations as plain ``{rel: rows}`` (the wire
    format member connectors speak). ``relations`` limits it to those
    names; one that is absent or not a set is left out."""
    database = universe.database(name)
    if relations is None:
        relations = database.attr_names()
    desired = {}
    for rel_name in relations:
        relation = database.get_or_none(rel_name)
        if relation is None:
            continue
        if relation.is_set:
            rows = [
                encode.to_python(element) for element in relation.elements()
            ]
            desired[rel_name] = [row for row in rows if isinstance(row, dict)]
    return desired


def apply_change_to_storage(storage, change):
    """Apply a member change to ``storage`` by
    :func:`~repro.multidb.changes.apply_change`; the caller holds the
    transaction. Each relation the change touches is read, changed and
    written back whole (new relations get an inferred schema, and a
    relation gaining columns is recreated wider). Rows compare as the
    relation stores them: a row's missing columns read as null."""
    touched = set()
    for key in ("replace", "delete", "insert"):
        touched.update(change.get(key, {}))
    if change.get("full"):
        touched.update(storage.relation_names())
    rows = {rel_name: storage.scan(rel_name)
            for rel_name in touched if storage.has_relation(rel_name)}
    stored = MemberChange(change)
    for key in ("delete", "insert"):
        if key in change:
            stored[key] = {
                rel_name: [_stored_form(storage, rel_name, row)
                           for row in part]
                for rel_name, part in change[key].items()
            }
    apply_change(rows, stored)
    for rel_name in sorted(touched):
        if rel_name in rows:
            storage.replace_relation(rel_name, rows[rel_name], infer_schema)
        elif storage.has_relation(rel_name):
            storage.drop_relation(rel_name)


def _stored_form(storage, rel_name, row):
    """``row`` as relation ``rel_name`` stores it, its missing columns
    null; as is when the relation is absent or lacks one of its
    columns."""
    if not storage.has_relation(rel_name):
        return row
    columns = storage.catalog.schema_of(rel_name).column_names()
    if not set(row) <= set(columns):
        return row
    return {column: row.get(column) for column in columns}


def flush_to_storage(universe, name, storage):
    """Make ``storage`` reflect the universe's state of database ``name``.

    Relations that disappeared are dropped, new ones created (schema
    inferred), and every surviving relation's contents replaced — all or
    nothing.
    """
    storage.replace_contents(universe_rows(universe, name), infer_schema)
    return storage
