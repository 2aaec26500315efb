"""The universe of databases.

Section 3 models "the universe of databases" as a tuple whose attributes
are database names, each database being a tuple of relations, each
relation a set of tuples. :class:`Universe` is that top-level tuple with
a handful of conveniences used throughout the engine and federation
layers.
"""

from __future__ import annotations

from repro.errors import UnknownNameError
from repro.objects import encode
from repro.objects.merged import MergedTuple
from repro.objects.set import SetObject
from repro.objects.tuple import TupleObject


class Universe(TupleObject):
    """The top-level tuple of named databases."""

    __slots__ = ()

    @classmethod
    def from_python(cls, databases):
        """Build a universe from ``{db_name: {rel_name: rows}}``."""
        universe = cls()
        for db_name, relations in databases.items():
            universe.add_database(db_name, encode.database(relations))
        return universe

    # -- database management ---------------------------------------------

    def database_names(self):
        return self.attr_names()

    def add_database(self, name, db=None):
        """Register database ``name`` (an empty tuple if ``db`` is None)."""
        if self.has(name):
            raise UnknownNameError(f"database {name!r} already exists")
        self.set(name, db if db is not None else TupleObject())
        return self.get(name)

    def database(self, name):
        if not self.has(name):
            raise UnknownNameError(f"no database named {name!r}")
        return self.get(name)

    def drop_database(self, name):
        if not self.has(name):
            raise UnknownNameError(f"no database named {name!r}")
        self.remove(name)

    # -- relation helpers -------------------------------------------------

    def relation(self, db_name, rel_name):
        """The relation set at ``.db_name.rel_name``."""
        db = self.database(db_name)
        if not db.is_tuple or not db.has(rel_name):
            raise UnknownNameError(f"no relation {db_name}.{rel_name}")
        rel = db.get(rel_name)
        if not rel.is_set:
            raise UnknownNameError(
                f"{db_name}.{rel_name} is a {rel.category}, not a relation"
            )
        return rel

    def add_relation(self, db_name, rel_name, rows=()):
        """Create relation ``db_name.rel_name`` from row dicts."""
        db = self.database(db_name)
        if db.has(rel_name):
            raise UnknownNameError(f"relation {db_name}.{rel_name} already exists")
        db.set(rel_name, encode.relation(rows))
        return db.get(rel_name)

    def relation_names(self, db_name):
        db = self.database(db_name)
        return [name for name in db.attr_names() if db.get(name).is_set]

    # -- misc ---------------------------------------------------------------

    def snapshot(self):
        """A deep copy of the whole universe."""
        fresh = Universe()
        for name in self.attr_names():
            fresh.set(name, self.get(name).copy())
        return fresh

    def merged_with(self, overlay):
        """A read-only view of this universe with ``overlay`` on top."""
        return MergedTuple(self, overlay)

    def count_facts(self):
        """Total number of elements across every relation (for reporting)."""
        total = 0
        for db_name in self.attr_names():
            db = self.get(db_name)
            if not db.is_tuple:
                continue
            for rel_name in db.attr_names():
                rel = db.get(rel_name)
                if isinstance(rel, SetObject) or rel.is_set:
                    total += len(rel)
        return total
