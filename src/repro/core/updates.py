"""Update expression evaluation (paper Section 5).

An update request ``? exp1, ..., expk`` mixes query and update
expressions. Query conjuncts enumerate substitutions; update conjuncts
apply, for each current substitution, the Section 5.2 semantics:

* **atomic plus** ``+=c`` replaces the atom's value with ``c``;
* **atomic minus** ``-=c`` nulls the atom if it satisfies ``=c``; with an
  unbound variable (``-=X``) it binds X to the old value first — the
  paper's delStk uses this;
* **tuple plus** ``+.a exp`` creates attribute ``a`` (overwriting any
  existing object with an empty one of the category ``exp`` needs) and
  recursively plus-evaluates ``exp`` on it;
* **tuple minus** ``-.a exp`` deletes attribute ``a`` when its object
  satisfies ``exp``;
* **set plus** ``+(exp)`` builds a new element from the simple ground
  expression ``exp`` and adds it (value-deduplicated);
* **set minus** ``-(exp)`` deletes every element satisfying ``exp``;
  following the paper's "series of delete expressions" reading, an inner
  expression with unbound variables yields one substitution per deleted
  match, so later conjuncts can use the old values.

Ordering rules (the paper makes update order significant):

* at the **request level**, conjuncts evaluate left-to-right; update
  conjuncts are barriers (only pure-query runs between them may be
  safety-reordered) — handled by ``safety.goal_order``;
* **within a tuple expression that selects one object** (typically a set
  element), query items run first (selection), then update items in
  their original order — mirroring the paper's delStk clause
  ``.chwab.r(.S-=X, .date=D)``, where ``.date=D`` selects the tuple that
  ``.S-=X`` then mutates;
* when a *signed* item's attribute variable is unbound, it ranges over
  the attributes of the selected tuple **except** those named by sibling
  query items — the update-enumeration exclusion rule. Without it,
  delStk's ``.S-=X`` would also null the ``date`` attribute the sibling
  ``.date=D`` selected on; the paper's prose ("the closing price of all
  stocks for that date is deleted. But the structure of the database is
  not changed") makes the intended domain clear. Documented as a
  semantic clarification in DESIGN.md.

Mutations happen in place on the base universe, and every one is
logged in the request's :class:`UpdateDelta` before or as it lands: the
log is both the delta that incremental view maintenance folds and the
undo log that ``IdlEngine.update`` replays in reverse when an atomic
request fails. A set element mutated in place is re-keyed in its set
(``SetObject.refresh``) as soon as its edit is done, so a finished
request leaves every set's keys equal to its elements' values with no
reindex pass.
"""

from __future__ import annotations

from repro.core import ast
from repro.core.evaluator import EvalContext, _as_substitution, _satisfy
from repro.core.safety import goal_order
from repro.core.terms import NOT_A_NAME, Const, Var, evaluate_term, term_name
from repro.errors import UpdateError
from repro.objects.atom import Atom
from repro.objects.set import SetObject
from repro.objects.tuple import TupleObject


class UpdateDelta:
    """The change log of one update request, in order: what changed, and
    how to take each change back.

    Each record is ``(op, path, element, undo)``:

    * ``+`` / ``-`` — ``element`` was inserted into / deleted from the set
      ``undo`` at ``path``. Elements are copied at record time, so a
      later in-place mutation of the live object cannot retroactively
      change the log.
    * ``?`` — a change that is not a set-level insert/delete: a tuple
      plus or minus (creating, replacing or dropping an attribute), or
      an atom changed outside any set element. Its delta is *symbolic*
      (unknown): any view stratum reading ``path`` must fall back to a
      rebuild. ``undo`` is ``(parent, name, old)`` for a tuple slot —
      ``old`` is the object the change replaced or removed, None when
      the slot did not exist — or ``(atom, old_value)`` for an atom. The
      replaced object is detached, so it is kept without a copy.

    An in-place edit of a set element is rewritten, once the element is
    done, into one whole-element ``-pre``/``+post`` pair at the owning
    set's path (see :meth:`record_refresh`), so every record that
    survives a finished element names a set reachable from the
    universe.

    The log has two readers. Incremental view maintenance folds it into
    net per-path inserts and deletes (:meth:`fold`,
    :func:`repro.core.fixpoint.maintain_stratum`). The engine's
    transaction replays it in reverse to roll a failed request back
    (:meth:`undo`): the cost of atomicity is proportional to what the
    request changed, not to the size of the universe. Records made
    without an ``undo`` target fold like any other but cannot be undone.
    """

    __slots__ = ("_log", "_orders")

    def __init__(self):
        self._log = []
        # id(obj) -> (obj, key order) for every set or tuple that lost a
        # member, taken just before its first loss: undo re-adds lost
        # members at the end, then puts them back in place from this.
        self._orders = {}

    def record_insert(self, path, element, owner=None):
        """Log ``element`` as inserted into the set ``owner``."""
        self._log.append(("+", tuple(path), element.copy(), owner))

    def record_delete(self, path, element, owner=None):
        """Log ``element`` as deleted from the set ``owner``; call it
        *before* removing the element."""
        if owner is not None:
            self._keep_order(owner)
        self._log.append(("-", tuple(path), element.copy(), owner))

    def record_slot(self, path, parent, name):
        """Log a tuple plus or minus on attribute ``name`` of ``parent``;
        call it *before* the attribute is replaced or removed."""
        old = parent.get_or_none(name)
        if old is not None:
            self._keep_order(parent)
        self.mark_symbolic(path, (parent, name, old))

    def record_atom(self, path, atom):
        """Log an atomic plus or minus on ``atom``; call it *before* the
        value changes."""
        self.mark_symbolic(path, (atom, atom.value))

    def mark_symbolic(self, path, undo=None):
        """Log a change whose delta at ``path`` is unknown; ``undo`` is
        the ``?`` record's undo target (see the class docstring)."""
        self._log.append(("?", tuple(path), None, undo))

    def record_refresh(self, path, owner, element, preimage):
        """Re-key ``element`` in the set ``owner`` after an in-place edit
        and log the net change at ``path``: ``-preimage`` when the element
        was stored under the pre-image's key, ``-displaced`` when its new
        value collapsed onto another element
        (:meth:`~repro.objects.set.SetObject.refresh`), then
        ``+element``. ``preimage`` is a private copy, logged as is."""
        path = tuple(path)
        old_key = preimage.value_key()
        self._keep_order(owner)
        if owner.lookup(old_key) is element:
            self._log.append(("-", path, preimage, owner))
        displaced = owner.refresh(element, old_key)
        if displaced is not None:
            # Copied: the evaluator may still visit and mutate it.
            self._log.append(("-", path, displaced.copy(), owner))
        self.record_insert(path, element, owner)

    def _keep_order(self, obj):
        if id(obj) not in self._orders:
            self._orders[id(obj)] = (obj, obj.key_order())

    def mark(self):
        """A rollback token for the current end of the log."""
        return len(self._log)

    def rollback(self, mark):
        """Forget the records after ``mark`` (the base is not touched)."""
        del self._log[mark:]

    def undo(self):
        """Take every logged change back, newest first, then restore the
        member order of each set and tuple that lost a member. The base
        ends equal to its state before the first record — by value and
        in iteration order. Empties the log."""
        for op, _, element, target in reversed(self._log):
            if op == "+":
                target.discard_value(element)
            elif op == "-":
                target.add(element)
            elif len(target) == 2:
                atom, value = target
                atom.value = value
            else:
                parent, name, old = target
                if old is None:
                    parent.remove(name)
                else:
                    parent.set(name, old)
        for obj, order in self._orders.values():
            obj.restore_key_order(order)
        self._log.clear()
        self._orders.clear()

    @property
    def changed(self):
        return bool(self._log)

    def prefixes(self):
        """The ``(db, rel)`` prefixes of every logged path: what the
        request changed, at relation granularity. Every mutation lands
        at least one step below the universe, so no prefix is empty."""
        return frozenset(path[:2] for _, path, _, _ in self._log)

    def fold(self):
        """Net changes: ``(inserts, deletes, symbolic)``.

        ``inserts``/``deletes`` map a path to ``{value_key: element}``;
        an insert and a delete of the same value at the same path cancel
        (in either order — the base set ends where it started).
        ``symbolic`` is the set of paths whose delta is unknown.
        """
        inserts, deletes, symbolic = {}, {}, set()
        for op, path, element, _ in self._log:
            if op == "?":
                symbolic.add(path)
                continue
            gained, lost = (inserts, deletes) if op == "+" else (deletes, inserts)
            key = element.value_key()
            opposite = lost.get(path)
            if opposite is not None and opposite.pop(key, None) is not None:
                continue
            gained.setdefault(path, {})[key] = element
        inserts = {path: elems for path, elems in inserts.items() if elems}
        deletes = {path: elems for path, elems in deletes.items() if elems}
        return inserts, deletes, symbolic

    def __repr__(self):
        plus = sum(1 for op, _, _, _ in self._log if op == "+")
        minus = sum(1 for op, _, _, _ in self._log if op == "-")
        unknown = sum(1 for op, _, _, _ in self._log if op == "?")
        return f"UpdateDelta(+{plus}, -{minus}, ?{unknown})"


class UpdateResult:
    """Outcome of an update request.

    ``delta`` is the request's :class:`UpdateDelta`, the one record of
    what it changed: it drives incremental view maintenance, its
    :meth:`~UpdateDelta.undo` takes the request back, and
    :attr:`touched` reads its paths.
    """

    __slots__ = ("substitutions", "inserted", "deleted", "modified", "delta")

    def __init__(self, substitutions, inserted, deleted, modified,
                 delta=None):
        self.substitutions = substitutions
        self.inserted = inserted
        self.deleted = deleted
        self.modified = modified
        self.delta = delta

    @property
    def touched(self):
        """The ``(db, rel)`` prefixes of the paths the request changed
        (empty without a delta)."""
        return frozenset() if self.delta is None else self.delta.prefixes()

    @property
    def succeeded(self):
        """The request found at least one satisfying substitution."""
        return bool(self.substitutions)

    @property
    def changed(self):
        return bool(self.inserted or self.deleted or self.modified)

    def __repr__(self):
        return (
            f"UpdateResult(answers={len(self.substitutions)}, "
            f"inserted={self.inserted}, deleted={self.deleted}, "
            f"modified={self.modified})"
        )


class _UpdateContext:
    """Mutable evaluation state shared across one update request,
    including its change log ``delta`` (an :class:`UpdateDelta`)."""

    __slots__ = ("eval_ctx", "inserted", "deleted", "modified", "delta",
                 "_preimages")

    def __init__(self, eval_ctx=None):
        self.eval_ctx = eval_ctx or EvalContext()
        self.inserted = 0
        self.deleted = 0
        self.modified = 0
        self.delta = UpdateDelta()
        # Stack of [element, copy-or-None] cells for set elements being
        # mutated in place; ``fire_preimages`` copies each element the
        # moment the first real mutation beneath it is about to happen.
        self._preimages = []

    def push_preimage(self, element):
        """Register a set element about to be (possibly) mutated in
        place; returns a token for :meth:`pop_preimage`."""
        self._preimages.append([element, None])
        return len(self._preimages) - 1

    def pop_preimage(self, token):
        """The pre-mutation copy of the element (None when nothing
        beneath it actually mutated)."""
        cell = self._preimages[token]
        del self._preimages[token:]
        return cell[1]

    def fire_preimages(self):
        """Snapshot every pending element before a mutation lands."""
        for cell in self._preimages:
            if cell[1] is None:
                cell[1] = cell[0].copy()


# Public alias: the executor threads one context across a whole request.
UpdateContext = _UpdateContext


def apply_request(request, universe, bindings=None, eval_ctx=None):
    """Execute an update request against ``universe`` (in place).

    ``request`` is a Query statement or a TupleExpr. Returns an
    :class:`UpdateResult`; raises :class:`UpdateError` on category
    mismatches (Section 5.2's "in error" cases). No transactional
    guarantees here — use ``IdlEngine.update`` for rollback on error.
    """
    expr = request.expr if isinstance(request, ast.Query) else request
    if not isinstance(expr, ast.TupleExpr):
        expr = ast.TupleExpr([expr])
    subst = _as_substitution(bindings)
    uctx = _UpdateContext(eval_ctx)

    conjuncts = goal_order(expr, subst.domain())
    substitutions = [subst]
    for conjunct in conjuncts:
        next_substitutions = []
        for current in substitutions:
            for extended in _update_satisfy(conjunct, universe, current, uctx):
                next_substitutions.append(extended)
        substitutions = next_substitutions
        if not substitutions:
            break
    return UpdateResult(substitutions, uctx.inserted, uctx.deleted,
                        uctx.modified, delta=uctx.delta)


def reindex_touched(universe, touched):
    """Re-key every set under the ``(db, rel)`` prefixes ``touched``.

    A request interrupted by an error can leave a set element mutated in
    place but not yet re-keyed in its set. An atomic request undoes its
    log instead; a non-atomic one keeps its partial work and calls this.
    """
    for prefix in touched:
        obj = universe
        for name in prefix:
            if not obj.is_tuple or not obj.has(name):
                break
            obj = obj.get(name)
        else:
            _reindex_tree(obj)


def _reindex_tree(obj):
    if obj.is_set:
        # Innermost first: an element's key depends on its own sets'
        # keys. Recursing mutates the elements' internals, never this
        # set's key dict, so the live view is safe to iterate.
        for element in obj:
            _reindex_tree(element)
        obj.reindex()
    elif obj.is_tuple:
        for name in obj.attr_names():
            _reindex_tree(obj.get(name))


def apply_conjunct(conjunct, universe, substitutions, uctx=None):
    """Apply one request conjunct for each current substitution.

    Used by the update-program executor, which dispatches conjunct by
    conjunct (program calls in between). Returns ``(next_substitutions,
    update_context)``.
    """
    if uctx is None:
        uctx = _UpdateContext()
    next_substitutions = []
    for current in substitutions:
        for extended in _update_satisfy(conjunct, universe, current, uctx):
            next_substitutions.append(extended)
    return next_substitutions, uctx


# ---------------------------------------------------------------------------
# Mixed query/update satisfaction
# ---------------------------------------------------------------------------


def _update_satisfy(expr, obj, subst, uctx, excluded=frozenset(), path=()):
    """Like ``evaluator._satisfy`` but applies signed subexpressions.

    ``path`` tracks the attribute names navigated from the universe root;
    every mutation is logged at its path in the request's change log.
    """
    if not expr.has_update():
        for extended in _satisfy(expr, obj, subst, uctx.eval_ctx):
            yield extended
        return

    if isinstance(expr, ast.AtomicExpr):
        for extended in _apply_atomic_update(expr, obj, subst, uctx, path):
            yield extended
        return

    if isinstance(expr, ast.AttrStep):
        for extended in _update_attr_step(expr, obj, subst, uctx, excluded, path):
            yield extended
        return

    if isinstance(expr, ast.SetExpr):
        for extended in _update_set_expr(expr, obj, subst, uctx, path):
            yield extended
        return

    if isinstance(expr, ast.TupleExpr):
        for extended in _update_tuple_expr(expr, obj, subst, uctx, path):
            yield extended
        return

    raise UpdateError(f"cannot apply update through {type(expr).__name__}")


def _update_tuple_expr(expr, obj, subst, uctx, path=()):
    """Query items first (selection), then update items in order."""
    query_items = [c for c in expr.conjuncts if not c.has_update()]
    update_items = [c for c in expr.conjuncts if c.has_update()]
    ordered_queries = goal_order(expr, subst.domain(), query_items=True)

    # The exclusion rule: attribute names fixed by sibling query items.
    excluded = set()
    for item in query_items:
        if isinstance(item, ast.AttrStep) and isinstance(item.attr, Const):
            excluded.add(item.attr.value)

    def run_updates(index, current):
        if index == len(update_items):
            yield current
            return
        for extended in _update_satisfy(
            update_items[index], obj, current, uctx, frozenset(excluded), path
        ):
            for final in run_updates(index + 1, extended):
                yield final

    def run_queries(index, current):
        if index == len(ordered_queries):
            for final in run_updates(0, current):
                yield final
            return
        for extended in _satisfy(ordered_queries[index], obj, current, uctx.eval_ctx):
            for final in run_queries(index + 1, extended):
                yield final

    for result in run_queries(0, subst):
        yield result


def _update_attr_step(expr, obj, subst, uctx, excluded, path=()):
    if not obj.is_tuple:
        raise UpdateError(
            f"tuple update applied to a {obj.category} object: {expr!r}"
        )
    if not isinstance(obj, TupleObject):
        raise UpdateError("updates are only legal on extensional (base) objects")

    if expr.sign == ast.PLUS:
        name = term_name(expr.attr, subst)
        if name is None or name is NOT_A_NAME:
            raise UpdateError(f"tuple plus needs a known attribute name: {expr!r}")
        uctx.fire_preimages()
        uctx.delta.record_slot(path + (name,), obj, name)
        obj.set(name, _empty_for(expr.expr))
        uctx.modified += 1
        for extended in _apply_plus(expr.expr, obj, name, subst, uctx,
                                    path + (name,)):
            yield extended
        return

    if expr.sign == ast.MINUS:
        for extended in _tuple_minus(expr, obj, subst, uctx, excluded, path):
            yield extended
        return

    # Unsigned navigation step whose subexpression carries updates. A
    # missing attribute makes the conjunct fail, query-style — so e.g.
    # delStk's chwab clause simply fails when the stock has no column.
    name = term_name(expr.attr, subst)
    if name is NOT_A_NAME:
        return
    if name is not None:
        if not obj.has(name):
            return
        for extended in _update_satisfy(
            expr.expr, obj.get(name), subst, uctx, frozenset(), path + (name,)
        ):
            yield extended
        return
    var = expr.attr.name
    for attr_name in obj.attr_names():
        if attr_name in excluded:
            continue
        bound = subst.bind(var, Atom(attr_name))
        for extended in _update_satisfy(
            expr.expr, obj.get(attr_name), bound, uctx, frozenset(),
            path + (attr_name,)
        ):
            yield extended


def _tuple_minus(expr, obj, subst, uctx, excluded, path=()):
    """``-.a exp``: delete attribute(s) whose object satisfies exp."""
    name = term_name(expr.attr, subst)
    if name is NOT_A_NAME:
        return
    ground = not _has_unbound_vars(expr, subst)
    matches = []
    if name is not None:
        if obj.has(name):
            for extended in _satisfy(expr.expr, obj.get(name), subst, uctx.eval_ctx):
                matches.append((name, extended))
    else:
        var = expr.attr.name
        for attr_name in obj.attr_names():
            if attr_name in excluded:
                continue
            bound = subst.bind(var, Atom(attr_name))
            for extended in _satisfy(expr.expr, obj.get(attr_name), bound, uctx.eval_ctx):
                matches.append((attr_name, extended))

    removed = set()
    for attr_name, _ in matches:
        if attr_name not in removed and obj.has(attr_name):
            uctx.fire_preimages()
            uctx.delta.record_slot(path + (attr_name,), obj, attr_name)
            obj.remove(attr_name)
            removed.add(attr_name)
            uctx.deleted += 1

    if ground:
        yield subst
    else:
        seen = set()
        for _, extended in matches:
            key = extended.signature()
            if key not in seen:
                seen.add(key)
                yield extended


def _update_set_expr(expr, obj, subst, uctx, path=()):
    if not obj.is_set:
        raise UpdateError(f"set update applied to a {obj.category} object: {expr!r}")
    if not isinstance(obj, SetObject):
        raise UpdateError("updates are only legal on extensional (base) objects")

    if expr.sign == ast.PLUS:
        if not isinstance(expr.inner, ast.Epsilon):
            element = build_object(expr.inner, subst)
            uctx.fire_preimages()
            if obj.add(element):
                uctx.inserted += 1
                uctx.delta.record_insert(path, element, obj)
        yield subst
        return

    if expr.sign == ast.MINUS:
        ground = not _has_unbound_vars(expr, subst)
        matches = []
        for element in obj.elements():
            for extended in _satisfy(expr.inner, element, subst, uctx.eval_ctx):
                matches.append((element, extended))
        removed = set()
        for element, _ in matches:
            key = element.value_key()
            if key not in removed:
                removed.add(key)
                uctx.fire_preimages()
                uctx.delta.record_delete(path, element, obj)
                obj.discard_value(element)
                uctx.deleted += 1
        if ground:
            yield subst
        else:
            seen = set()
            for _, extended in matches:
                key = extended.signature()
                if key not in seen:
                    seen.add(key)
                    yield extended
        return

    # Unsigned set expression with inner updates: select elements, mutate
    # them in place, then re-key each mutated one (elements are
    # value-keyed).
    results = []
    delta = uctx.delta
    for element in obj.elements():
        mark = delta.mark()
        token = uctx.push_preimage(element)
        for extended in _update_satisfy(expr.inner, element, subst, uctx,
                                        frozenset(), path):
            results.append(extended)
        preimage = uctx.pop_preimage(token)
        if delta.mark() != mark:
            # Every logged mutation fired the pre-image first, so
            # ``preimage`` is set. The records made while mutating the
            # element describe positions inside it; rewrite them as one
            # whole-element change at the owning set's path. Until this
            # point an error leaves them in place, and undo replays
            # them inside the element.
            delta.rollback(mark)
            delta.record_refresh(path, obj, element, preimage)
    for extended in results:
        yield extended


def _apply_atomic_update(expr, obj, subst, uctx, path=()):
    if not obj.is_atom:
        raise UpdateError(f"atomic update applied to a {obj.category} object: {expr!r}")
    if not isinstance(obj, Atom):
        raise UpdateError("updates are only legal on extensional (base) objects")

    if expr.sign == ast.PLUS:
        value_obj = evaluate_term(expr.term, subst)
        if not value_obj.is_atom:
            raise UpdateError("atomic plus requires an atomic value")
        uctx.fire_preimages()
        uctx.delta.record_atom(path, obj)
        obj.value = value_obj.value
        uctx.modified += 1
        yield subst
        return

    # Atomic minus.
    term = expr.term
    if isinstance(term, Var) and not subst.binds(term.name):
        if obj.is_null:
            return  # nothing to bind: the null atom satisfies no expression
        bound = subst.bind(term.name, Atom(obj.value))
        uctx.fire_preimages()
        uctx.delta.record_atom(path, obj)
        obj.value = None
        uctx.modified += 1
        yield bound
        return
    value_obj = evaluate_term(term, subst)
    if obj.is_atom and value_obj.is_atom and not obj.is_null:
        if obj.compare("=", value_obj.value):
            uctx.fire_preimages()
            uctx.delta.record_atom(path, obj)
            obj.value = None
            uctx.modified += 1
    yield subst


# ---------------------------------------------------------------------------
# Object construction (plus-evaluation, Section 5.2)
# ---------------------------------------------------------------------------


def build_object(expr, subst):
    """Construct a fresh object from a simple expression, ground under
    ``subst`` (the constructor reading of plus expressions)."""
    if isinstance(expr, ast.Epsilon):
        return Atom(None)
    if isinstance(expr, ast.AtomicExpr):
        if expr.op != "=":
            raise UpdateError("constructors use '=' only (simple expressions)")
        # Copy atoms too: an atom bound from a base element is mutable
        # in place (``.a-=X`` nulls it), so sharing it would let one
        # update silently rewrite every object built from it.
        return evaluate_term(expr.term, subst).copy()
    if isinstance(expr, ast.AttrStep):
        return build_object(ast.TupleExpr([expr]), subst)
    if isinstance(expr, ast.TupleExpr):
        built = TupleObject()
        for item in expr.conjuncts:
            if not isinstance(item, ast.AttrStep) or item.sign is not None:
                raise UpdateError(f"not a simple constructor item: {item!r}")
            name = term_name(item.attr, subst)
            if name is None or name is NOT_A_NAME:
                raise UpdateError(f"constructor attribute name is unbound: {item!r}")
            if built.has(name):
                raise UpdateError(f"duplicate attribute {name!r} in constructor")
            built.set(name, build_object(item.expr, subst))
        return built
    if isinstance(expr, ast.SetExpr):
        fresh = SetObject()
        if not isinstance(expr.inner, ast.Epsilon):
            fresh.add(build_object(expr.inner, subst))
        return fresh
    raise UpdateError(f"cannot construct an object from {type(expr).__name__}")


def _apply_plus(expr, parent, name, subst, uctx, path=()):
    """Plus-evaluate ``expr`` onto the freshly-emptied attribute ``name``."""
    target = parent.get(name)
    if isinstance(expr, ast.Epsilon):
        yield subst
        return
    if isinstance(expr, ast.AtomicExpr):
        plused = ast.AtomicExpr("=", expr.term, sign=ast.PLUS)
        for extended in _apply_atomic_update(plused, target, subst, uctx, path):
            yield extended
        return
    if isinstance(expr, ast.SetExpr):
        plused = ast.SetExpr(expr.inner, sign=ast.PLUS)
        for extended in _update_set_expr(plused, target, subst, uctx, path):
            yield extended
        return
    if isinstance(expr, (ast.AttrStep, ast.TupleExpr)):
        items = ast.conjuncts_of(expr) if isinstance(expr, ast.TupleExpr) else [expr]

        def run(index, current):
            if index == len(items):
                yield current
                return
            item = items[index]
            if not isinstance(item, ast.AttrStep):
                raise UpdateError(f"not a simple constructor item: {item!r}")
            plused = ast.AttrStep(item.attr, item.expr, sign=ast.PLUS)
            for extended in _update_attr_step(
                plused, target, current, uctx, frozenset(), path
            ):
                for final in run(index + 1, extended):
                    yield final

        for extended in run(0, subst):
            yield extended
        return
    raise UpdateError(f"cannot plus-evaluate {type(expr).__name__}")


def _empty_for(expr):
    """The empty object whose category matches what ``expr`` expects."""
    if isinstance(expr, ast.SetExpr):
        return SetObject()
    if isinstance(expr, (ast.TupleExpr, ast.AttrStep)):
        return TupleObject()
    return Atom(None)


def _has_unbound_vars(expr, subst):
    return any(not subst.binds(name) for name in expr.variables())
