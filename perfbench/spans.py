"""Span recording from outside the program, and the self-time fold.

The traced run wraps public callables at each layer boundary (see
``layers.py``) with :meth:`Recorder.wrap`. Every call becomes a
:class:`Span` with a start, an end and the span that caused it. Spans
live in memory until the run ends, when :meth:`Recorder.dump` writes
them out as JSON lines.

Each thread keeps its own stack of open spans. A span opened on an
executor worker names its parent explicitly (the ``executor.map`` span
that submitted the task), so cross-thread work still folds into the
request that caused it.

:func:`self_times` folds one root's tree into per-name self time: a
span's duration minus the part of it covered by children. Children that
overlap in time (tasks running in parallel on worker threads) share the
covered instants equally, so the self times of a root's spans always sum
to the root's duration.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict


class Span:
    """One recorded call. ``ok`` is False when it raised; ``value`` is
    an optional count measured from its result (rows, bytes, facts)."""

    __slots__ = ("name", "start", "end", "parent", "children", "thread",
                 "ok", "value")

    def __init__(self, name, start, parent):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.children = []
        self.thread = threading.get_ident()
        self.ok = True
        self.value = None

    @property
    def duration(self):
        return self.end - self.start

    def walk(self):
        """This span and every descendant, in pre-order."""
        stack = [self]
        while stack:
            span = stack.pop()
            yield span
            stack.extend(reversed(span.children))


class Recorder:
    """Records spans in memory; one per traced run."""

    def __init__(self):
        self.roots = []
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, name, parent=None):
        """Start a span under ``parent`` (default: this thread's
        innermost open span) and make it this thread's innermost."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span = Span(name, time.perf_counter(), parent)
        if parent is None:
            self.roots.append(span)
        else:
            parent.children.append(span)
        stack.append(span)
        return span

    def close(self, span, ok=True):
        span.end = time.perf_counter()
        span.ok = ok
        self._stack().remove(span)

    def span(self, name, parent=None):
        """Context manager form of :meth:`open`/:meth:`close`."""
        return _SpanContext(self, name, parent)

    def wrap(self, name, fn, measure=None):
        """``fn`` recorded as span ``name``. ``measure(result)``, when
        given, turns each successful result into the span's ``value``
        after the span has closed, so counting costs no layer time."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(span, ok=False)
                raise
            self.close(span)
            if measure is not None:
                span.value = measure(result)
            return result

        return wrapper

    def dump(self, path):
        """Write every recorded span as one JSON object per line."""
        ids = {}
        with open(path, "w", encoding="utf-8") as out:
            for root in self.roots:
                for span in root.walk():
                    ids[id(span)] = len(ids)
                    parent = span.parent
                    out.write(json.dumps({
                        "id": ids[id(span)],
                        "parent": None if parent is None else ids[id(parent)],
                        "name": span.name,
                        "start": span.start,
                        "end": span.end,
                        "thread": span.thread,
                        "ok": span.ok,
                        "value": span.value,
                    }) + "\n")
        return len(ids)


class _SpanContext:
    __slots__ = ("recorder", "name", "parent", "span")

    def __init__(self, recorder, name, parent):
        self.recorder = recorder
        self.name = name
        self.parent = parent
        self.span = None

    def __enter__(self):
        self.span = self.recorder.open(self.name, self.parent)
        return self.span

    def __exit__(self, exc_type, exc, tb):
        self.recorder.close(self.span, ok=exc_type is None)
        return False


class Patches:
    """Attribute replacements undone in reverse order on exit, so the
    wrappers exist only for the duration of the traced run."""

    def __init__(self):
        self._undo = []

    def replace(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        return False


def _child_shares(start, end, children):
    """Clip ``children`` to ``[start, end]``; return the union length of
    their intervals and, per child, its share of that union — each
    instant is split equally among the children active at it."""
    clipped = []
    for child in children:
        lo, hi = max(start, child.start), min(end, child.end)
        clipped.append((child, lo, max(lo, hi)))
    if not clipped:
        return 0.0, []
    if len(clipped) == 1:
        child, lo, hi = clipped[0]
        return hi - lo, [(child, lo, hi, hi - lo)]
    bounds = sorted({t for _, lo, hi in clipped for t in (lo, hi)})
    shares = [0.0] * len(clipped)
    union = 0.0
    for left, right in zip(bounds, bounds[1:]):
        active = [i for i, (_, lo, hi) in enumerate(clipped)
                  if lo <= left and hi >= right]
        if not active:
            continue
        width = right - left
        union += width
        for i in active:
            shares[i] += width / len(active)
    return union, [(child, lo, hi, share)
                   for (child, lo, hi), share in zip(clipped, shares)]


def self_times(root):
    """Fold ``root``'s tree into ``{span name: self seconds}``.

    The values sum to ``root.duration`` (up to float rounding).
    """
    out = defaultdict(float)
    stack = [(root, root.start, root.end, 1.0)]
    while stack:
        span, start, end, scale = stack.pop()
        union, shares = _child_shares(start, end, span.children)
        out[span.name] += scale * ((end - start) - union)
        for child, lo, hi, share in shares:
            width = hi - lo
            if width > 0:
                stack.append((child, lo, hi, scale * share / width))
    return out
