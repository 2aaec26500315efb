"""Read-only merged views over several object graphs.

Section 6's derived views must be visible to queries *alongside* the base
universe without mutating it: "the derived fact is made true in the
universe tuple", but re-materializing views must never leak into the
extensional databases. The engine therefore materializes derived facts
into separate overlay universes (one per stratum) and exposes a *merged*
read-only view of ``(base, overlay, ...)`` to the evaluator.

Merge rules, applied attribute-wise over the parts holding the
attribute, in order:

* attribute present in only one part -> that part's object;
* every part tuple-valued        -> a :class:`MergedTuple` of them;
* every part set-valued          -> a :class:`MergedSet` (value union);
* category clash                 -> a later part shadows every earlier
  one (a derived object wins over the base).

Merged objects implement the same read interface as the concrete classes
(:meth:`attr_names`/:meth:`get` for tuples, :meth:`elements` for sets),
so the evaluator is agnostic to whether it walks a plain or merged graph.
They intentionally implement **no** write interface: updates are only
legal on extensional objects (Section 7.1).
"""

from __future__ import annotations

from repro.objects.base import SET, TUPLE, IdlObject


def merge_objects(*parts):
    """Merge IdlObjects per the rules above; None parts are skipped."""
    group = []
    for part in parts:
        if part is None:
            continue
        if group and (part.category != group[0].category
                      or part.category not in (TUPLE, SET)):
            group = []  # a clash: this part shadows the earlier ones
        group.append(part)
    if len(group) < 2:
        return group[0] if group else None
    if group[0].category == TUPLE:
        return MergedTuple(*group)
    return MergedSet(*group)


class MergedTuple(IdlObject):
    """Read-only union of tuple-like objects (later parts shadow earlier)."""

    __slots__ = ("_parts",)

    category = TUPLE

    def __init__(self, *parts):
        self._parts = parts

    @classmethod
    def over(cls, parts):
        """A view over the live collection ``parts`` (a list or a dict's
        values, say): every lookup reads the parts it holds then."""
        merged = cls.__new__(cls)
        merged._parts = parts
        return merged

    def attr_names(self):
        names = []
        seen = set()
        for part in self._parts:
            for name in part.attr_names():
                if name not in seen:
                    seen.add(name)
                    names.append(name)
        return names

    def has(self, name):
        for part in self._parts:
            if part.has(name):
                return True
        return False

    def get(self, name):
        held = [part.get(name) for part in self._parts if part.has(name)]
        if len(held) == 1:
            return held[0]
        if not held:
            raise KeyError(name)
        return merge_objects(*held)

    def get_or_none(self, name):
        return self.get(name) if self.has(name) else None

    def items(self):
        return [(name, self.get(name)) for name in self.attr_names()]

    def __len__(self):
        return len(self.attr_names())

    def __contains__(self, name):
        return self.has(name)

    def __iter__(self):
        return iter(self.attr_names())

    def value_key(self):
        return (
            TUPLE,
            frozenset((name, self.get(name).value_key()) for name in self.attr_names()),
        )

    def copy(self):
        """Deep-copy into a plain (mutable) TupleObject."""
        from repro.objects.tuple import TupleObject

        fresh = TupleObject()
        for name in self.attr_names():
            fresh.set(name, self.get(name).copy())
        return fresh

    def __repr__(self):
        return f"MergedTuple({', '.join(map(repr, self._parts))})"


class MergedSet(IdlObject):
    """Read-only value union of set-like objects."""

    __slots__ = ("_parts",)

    category = SET

    def __init__(self, *parts):
        self._parts = parts

    def elements(self):
        merged = []
        seen = set()
        for part in self._parts:
            # Iterate the parts directly (no snapshot copies): this loop
            # completes synchronously and mutates no part.
            for obj in part:
                key = obj.value_key()
                if key not in seen:
                    seen.add(key)
                    merged.append(obj)
        return merged

    def __iter__(self):
        return iter(self.elements())

    def __len__(self):
        return len(self.elements())

    def contains_value(self, obj):
        return any(part.contains_value(obj) for part in self._parts)

    @property
    def is_empty(self):
        return all(len(part) == 0 for part in self._parts)

    def value_key(self):
        return (SET, frozenset(obj.value_key() for obj in self.elements()))

    def copy(self):
        """Deep-copy into a plain (mutable) SetObject."""
        from repro.objects.set import SetObject

        fresh = SetObject()
        for obj in self.elements():
            fresh.add(obj.copy())
        return fresh

    def __repr__(self):
        return f"MergedSet({', '.join(map(repr, self._parts))})"
