"""Set IDL objects.

A set object is a value-based collection of objects. Unlike relational
tables, IDL sets may be **heterogeneous**: elements can be tuples of
varying arity, atoms and sets mixed together (Section 3). This is what
makes per-tuple attribute deletion (Section 5.2's chwab example)
expressible.

Duplicates are eliminated by deep value: inserting an element equal to an
existing one is a no-op. Insertion order of surviving elements is
preserved, giving deterministic iteration for tests and benchmarks.

Indexing
--------

Every set carries a monotonically increasing :attr:`~SetObject.version`,
bumped by every mutating method. On top of it sits a lazy, per-set store
of :class:`SetIndex` hash indexes: ``index_on(attr)`` buckets the tuple
elements by the value of their atomic attribute ``attr``, letting the
evaluator probe a selective ``.attr = value`` pattern in O(bucket)
instead of scanning the whole set (see
``repro.core.evaluator``). Indexes are built on first demand and
discarded wholesale the moment the version moves, so a stale index can
never serve an answer. Elements that are not tuples, lack ``attr``, or
hold a non-atomic value there land in the index's *residual* list, which
a probe always walks in addition to the matching bucket — preserving the
Section 3 heterogeneous-set semantics exactly (the index is a pure
pre-filter; candidates are still evaluated in full).
"""

from __future__ import annotations

from repro.objects.base import SET, IdlObject


class SetIndex:
    """A hash index over one attribute of a set's tuple elements.

    ``buckets`` maps ``value_key()`` of the atomic attribute value to the
    list of elements carrying it; ``residual`` holds every element the
    bucket scheme cannot classify (non-tuples, tuples without the
    attribute, non-atomic values). Bucket keys use ``value_key`` so the
    probe equality matches IDL comparison semantics: ``5`` and ``5.0``
    share a bucket, booleans never collide with integers, and the null
    atom gets its own bucket (where the subsequent evaluation fails it,
    per Section 5.2).

    Indexes are immutable snapshots: mutation invalidates the whole
    store (via the set's version) rather than patching bucket lists, so
    an in-flight probe iterating a bucket keeps the same snapshot view a
    full-scan copy would have given it.
    """

    __slots__ = ("attr", "buckets", "residual")

    def __init__(self, attr, elements):
        self.attr = attr
        buckets = {}
        residual = []
        for element in elements:
            if element.is_tuple:
                value = element.get_or_none(attr)
                if value is not None and value.is_atom:
                    key = value.value_key()
                    bucket = buckets.get(key)
                    if bucket is None:
                        buckets[key] = [element]
                    else:
                        bucket.append(element)
                    continue
            residual.append(element)
        self.buckets = buckets
        self.residual = residual

    def candidates(self, key):
        """Every element that could satisfy ``.attr = value`` for the
        value behind ``key``, in set order within each class (bucket
        first, then residual)."""
        bucket = self.buckets.get(key)
        if bucket is None:
            return self.residual
        if not self.residual:
            return bucket
        return bucket + self.residual

    def __repr__(self):
        return (f"SetIndex({self.attr!r}, buckets={len(self.buckets)}, "
                f"residual={len(self.residual)})")


class SetObject(IdlObject):
    """A mutable, deduplicated, heterogeneous collection of IdlObjects."""

    __slots__ = ("_elements", "_version", "_indexes", "_indexes_version")

    category = SET

    def __init__(self, elements=None):
        # value_key -> element; dicts preserve insertion order.
        self._elements = {}
        self._version = 0
        self._indexes = None  # attr -> SetIndex, allocated on first use
        self._indexes_version = -1
        if elements:
            for obj in elements:
                self.add(obj)

    # -- read interface -------------------------------------------------

    def elements(self):
        """The elements, in insertion order (a fresh list — safe to
        iterate across mutations of the set)."""
        return list(self._elements.values())

    def __iter__(self):
        # A live view: cheap, but callers that mutate the set while
        # iterating must use elements() instead.
        return iter(self._elements.values())

    def __len__(self):
        return len(self._elements)

    def contains_value(self, obj):
        """Value-based membership test."""
        return obj.value_key() in self._elements

    @property
    def is_empty(self):
        return not self._elements

    # -- indexing -------------------------------------------------------

    @property
    def version(self):
        """Monotonically increasing mutation counter; any change to the
        set (or an acknowledged in-place change to an element) bumps it,
        invalidating every index built before."""
        return self._version

    def peek_index(self, attr):
        """The current index on ``attr`` when built *and* still valid,
        else None (never builds)."""
        if self._indexes is None or self._indexes_version != self._version:
            return None
        return self._indexes.get(attr)

    def index_on(self, attr):
        """The index on ``attr``, building it on demand.

        Stale indexes (from before the last mutation) are discarded
        wholesale first; the returned index is valid until the next
        version bump.
        """
        indexes = self._indexes
        if indexes is None or self._indexes_version != self._version:
            indexes = self._indexes = {}
            self._indexes_version = self._version
        index = indexes.get(attr)
        if index is None:
            index = indexes[attr] = SetIndex(attr, self._elements.values())
        return index

    # -- write interface ------------------------------------------------

    def add(self, obj):
        """Insert ``obj``; returns True if the set changed."""
        if not isinstance(obj, IdlObject):
            raise TypeError(f"set elements are IdlObjects, got {type(obj).__name__}")
        key = obj.value_key()
        if key in self._elements:
            return False
        self._elements[key] = obj
        self._version += 1
        return True

    def discard_value(self, obj):
        """Remove the element equal to ``obj``; returns True if removed."""
        if self._elements.pop(obj.value_key(), None) is None:
            return False
        self._version += 1
        return True

    def remove_where(self, predicate):
        """Remove every element for which ``predicate(element)`` is true.

        Returns the list of removed elements. The predicate runs against a
        snapshot, so it may itself evaluate expressions over the set.
        """
        removed = [obj for obj in self._elements.values() if predicate(obj)]
        for obj in removed:
            del self._elements[obj.value_key()]
        if removed:
            self._version += 1
        return removed

    def clear(self):
        if self._elements:
            self._version += 1
        self._elements.clear()

    def refresh(self, obj, old_key=None):
        """Re-key ``obj`` after an in-place mutation of a member; returns
        the element its new value displaced, or None.

        Elements are keyed by value; callers that mutate a member *in
        place* (the update evaluator does, for tuple/atomic updates inside
        set expressions) must call this with the mutated element so the
        index stays consistent. When the new value equals another
        element's, the two collapse: ``obj`` takes that key and the other
        element leaves the set and is returned, so a caller can log the
        loss. ``obj`` moves to the end of the iteration order.

        ``old_key`` is the key ``obj`` was stored under before the
        mutation (its pre-image's ``value_key()``). Given it, refresh
        skips the O(n) identity scan; an ``obj`` not stored under it —
        say, displaced by an earlier refresh — is added back.
        """
        elements = self._elements
        if old_key is not None:
            if elements.get(old_key) is obj:
                del elements[old_key]
        else:
            for key in [key for key, element in elements.items()
                        if element is obj]:
                del elements[key]
        key = obj.value_key()
        displaced = elements.get(key)
        elements[key] = obj
        self._version += 1
        return displaced

    def reindex(self):
        """Rebuild the whole value index (after bulk in-place mutation).

        Updates re-key each element they mutate with :meth:`refresh`, so
        only an update interrupted midway (a non-atomic failure, see
        :func:`repro.core.updates.reindex_touched`) needs this. Bumps the
        version — and therefore drops the attribute indexes — only when
        the rebuilt mapping actually differs.
        """
        fresh = {}
        for obj in self._elements.values():
            fresh[obj.value_key()] = obj
        changed = len(fresh) != len(self._elements)
        if not changed:
            # Unchanged means: every key maps to the *same object* it did
            # before (identity, not value equality — a value swap between
            # two elements keeps the key set intact while invalidating the
            # bucket lists, which hold object references).
            for key, obj in fresh.items():
                if self._elements.get(key) is not obj:
                    changed = True
                    break
        if changed:
            self._version += 1
        self._elements = fresh

    def lookup(self, key):
        """The element stored under value key ``key``, or None."""
        return self._elements.get(key)

    def key_order(self):
        """The element keys in iteration order (references, no copies)."""
        return list(self._elements)

    def restore_key_order(self, keys):
        """Put the elements back in the order of ``keys``, an earlier
        :meth:`key_order`; elements it does not list follow in their
        current order."""
        elements = self._elements
        ordered = {key: elements[key] for key in keys if key in elements}
        ordered.update(elements)
        self._elements = ordered
        self._version += 1

    # -- value semantics --------------------------------------------------

    def value_key(self):
        return (SET, frozenset(self._elements))

    def copy(self):
        fresh = SetObject()
        for key, obj in self._elements.items():
            fresh._elements[key] = obj.copy()
        return fresh

    def __repr__(self):
        inner = ", ".join(repr(obj) for obj in self._elements.values())
        return f"SetObject({{{inner}}})"
