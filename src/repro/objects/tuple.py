"""Tuple IDL objects.

A tuple object is a collection of attribute/object pairs
``(attr1: obj1, ..., attrk: objk)`` in which each attribute name is
unique (Section 3). Attribute order is preserved for display but is
immaterial to equality — "the ordering of the attributes is immaterial
because the attributes are named" (Section 4.2).

Tuples model three levels of the universe at once: the universe itself
(databases as attributes), each database (relations as attributes) and
each data tuple (columns as attributes). That uniformity is what lets a
single variable range over database names, relation names and attribute
names alike.
"""

from __future__ import annotations

from repro.objects.base import TUPLE, IdlObject


class TupleObject(IdlObject):
    """A mutable attribute -> object map with value-based equality."""

    __slots__ = ("_attrs",)

    category = TUPLE

    def __init__(self, attrs=None):
        """``attrs`` may be a dict or an iterable of (name, object) pairs."""
        self._attrs = {}
        if attrs:
            items = attrs.items() if isinstance(attrs, dict) else attrs
            for name, obj in items:
                self.set(name, obj)

    # -- read interface -------------------------------------------------

    def attr_names(self):
        """Attribute names, in insertion order."""
        return list(self._attrs)

    def has(self, name):
        return name in self._attrs

    def get(self, name):
        """The object at attribute ``name``; KeyError if absent."""
        return self._attrs[name]

    def get_or_none(self, name):
        return self._attrs.get(name)

    def items(self):
        return list(self._attrs.items())

    def __len__(self):
        return len(self._attrs)

    def __contains__(self, name):
        return name in self._attrs

    def __iter__(self):
        return iter(self._attrs)

    # -- write interface ------------------------------------------------

    def set(self, name, obj):
        """Associate attribute ``name`` with ``obj`` (replacing any prior)."""
        if not isinstance(name, str):
            raise TypeError(f"attribute names are strings, got {type(name).__name__}")
        if not isinstance(obj, IdlObject):
            raise TypeError(
                f"attribute values are IdlObjects, got {type(obj).__name__}"
            )
        self._attrs[name] = obj

    def remove(self, name):
        """Delete attribute ``name``; KeyError if absent."""
        del self._attrs[name]

    def remove_if_present(self, name):
        self._attrs.pop(name, None)

    #: The attribute names in order, as :meth:`restore_key_order` takes.
    key_order = attr_names

    def restore_key_order(self, names):
        """Put the attributes back in the order of ``names``, an earlier
        :meth:`key_order`; attributes it does not list follow in their
        current order."""
        attrs = self._attrs
        ordered = {name: attrs[name] for name in names if name in attrs}
        ordered.update(attrs)
        self._attrs = ordered

    # -- value semantics --------------------------------------------------

    def value_key(self):
        return (
            TUPLE,
            frozenset((name, obj.value_key()) for name, obj in self._attrs.items()),
        )

    def copy(self):
        fresh = TupleObject()
        for name, obj in self._attrs.items():
            fresh._attrs[name] = obj.copy()
        return fresh

    def __repr__(self):
        inner = ", ".join(f"{name}: {obj!r}" for name, obj in self._attrs.items())
        return f"TupleObject({{{inner}}})"
