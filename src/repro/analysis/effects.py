"""Read/write effect inference for IDL programs.

The paper's central claim is that one IDL program can range over data
*and* metadata across discrepant schemata; the flip side is that a
program's **footprint** — which ``(database, relation)`` pairs its
evaluation can ever read or write — is statically derivable from the
same higher-order binding structure. This module computes it:

* every top-level conjunct contributes *access patterns* — the path
  references of :func:`repro.core.rules.body_references`, here
  additionally tagged with whether an update sign (``+``/``-`` on an
  attribute step, a set expression, or an atomic ``+=``/``-=``) occurs
  at or below the reference, which makes the access a **write**;
* a conjunct that dispatches to a registered update program (per
  :func:`repro.core.program.IdlProgram.clauses_for`, including the
  wildcard higher-order form ``.dbO.S+(...)``) contributes the callee
  program's effects instead — closed interprocedurally over the
  (acyclic, Section 7.1) call graph;
* a *read* of a derived view expands transitively through the rules
  that define it (:meth:`EffectAnalysis.rules_needed`), so a query's
  read set covers everything its materialization would consult.

Patterns are ``(db, rel)`` pairs where either component may be ``None``
— *symbolic*: a higher-order variable in that position at analysis
time, e.g. ``(ource, None)`` for "some relation of member ``ource``".
A symbolic *database* makes the footprint unbounded
(:attr:`EffectSet.bounded` is False); consumers must then fall back to
"touches everything".

Consumers:

* :class:`~repro.analysis.checker.ProgramChecker` — IDL060, an update
  program writing outside its declared footprint;
* :meth:`repro.core.engine.IdlEngine.query` — **member pruning**: only
  the rules a query's read set needs are materialized.

Write sets are also shown by
:meth:`repro.multidb.federation.Federation.write_footprint` (REPL
``:footprint``). A flush does not read them: it stages the members the
update's change log names.

See ``docs/static_analysis.md`` for the formal rules.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.core import ast
from repro.core.parser import QUERY_MEMO_LIMIT
from repro.core.rules import patterns_overlap
from repro.core.terms import Const, Var

#: Bound on :meth:`EffectAnalysis.query_footprint`'s per-statement memo
#: (LRU), the same as the parser's query memo.
FOOTPRINT_MEMO_LIMIT = QUERY_MEMO_LIMIT


class EffectSet:
    """An immutable set of ``(db, rel)`` footprint patterns.

    ``None`` in either position is symbolic ("any"). The empty set is
    the effect of a program that touches nothing.
    """

    __slots__ = ("patterns",)

    def __init__(self, patterns=()):
        self.patterns = frozenset(patterns)

    def __iter__(self):
        return iter(self.patterns)

    def __len__(self):
        return len(self.patterns)

    def __bool__(self):
        return bool(self.patterns)

    def __eq__(self, other):
        return isinstance(other, EffectSet) and self.patterns == other.patterns

    def __hash__(self):
        return hash(self.patterns)

    def __or__(self, other):
        return EffectSet(self.patterns | other.patterns)

    @property
    def bounded(self):
        """True when every pattern names a concrete database — the
        footprint's database set is then exactly :attr:`dbs`."""
        return all(db is not None for db, _rel in self.patterns)

    @property
    def dbs(self):
        """The concrete databases named by the patterns."""
        return {db for db, _rel in self.patterns if db is not None}

    def touches_db(self, name):
        """Could evaluation touch database ``name``? (Symbolic database
        patterns touch everything.)"""
        return any(db is None or db == name for db, _rel in self.patterns)

    def describe(self):
        """``.db.rel, .db.*, ...`` — stable, human-readable rendering."""
        if not self.patterns:
            return "(none)"
        rendered = sorted(
            f".{db if db is not None else '*'}.{rel if rel is not None else '*'}"
            for db, rel in self.patterns
        )
        return ", ".join(rendered)

    def __repr__(self):
        return f"EffectSet({self.describe()})"


class Effects:
    """The read and write :class:`EffectSet` of one program unit."""

    __slots__ = ("reads", "writes")

    def __init__(self, reads, writes):
        self.reads = reads
        self.writes = writes

    def __repr__(self):
        return (f"Effects(reads={self.reads.describe()}, "
                f"writes={self.writes.describe()})")


# ---------------------------------------------------------------------------
# Access-pattern extraction
# ---------------------------------------------------------------------------


def collect_accesses(expr, prefix=(), signed=False, out=None):
    """Collect ``(pattern, written, loc)`` accesses of one conjunct.

    ``pattern`` is a tuple of Const/Var attribute terms descending from
    the universe (mirroring :func:`repro.core.rules._collect_refs`);
    ``written`` is True when an update sign occurs at or below the
    reference; ``loc`` is the position of the innermost step that
    anchored the access (for diagnostics).
    """
    if out is None:
        out = []
    if isinstance(expr, ast.AttrStep):
        signed = signed or expr.sign is not None
        pattern = prefix + (expr.attr,)
        loc = expr.loc
        inner = expr.expr
        while isinstance(inner, ast.NegExpr):
            inner = inner.inner
        if isinstance(inner, ast.AttrStep):
            collect_accesses(inner, pattern, signed, out)
        elif isinstance(inner, ast.TupleExpr):
            recorded = False
            for conjunct in inner.conjuncts:
                if isinstance(conjunct, (ast.AttrStep, ast.NegExpr)):
                    collect_accesses(conjunct, pattern, signed, out)
                    recorded = True
            if not recorded:
                out.append((pattern, signed or inner.has_update(), loc))
        else:
            # Set expressions and atomics terminate the path; signs
            # inside them (``+(exp)``, ``.S-=X``, ``+.S=P``) are writes
            # of the relation the path addressed.
            out.append((pattern, signed or inner.has_update(), loc))
        return out
    if isinstance(expr, ast.NegExpr):
        collect_accesses(expr.inner, prefix, signed, out)
        return out
    if isinstance(expr, ast.TupleExpr):
        for conjunct in expr.conjuncts:
            collect_accesses(conjunct, prefix, signed, out)
        return out
    if prefix:
        out.append((prefix, signed, None))
    return out


def _normalize(pattern):
    """A term-path pattern as a ``(db, rel)`` pair (None = symbolic)."""
    parts = []
    for term in pattern[:2]:
        parts.append(term.value if isinstance(term, Const) else None)
    while len(parts) < 2:
        parts.append(None)
    return tuple(parts)


def _terms(pattern):
    """A ``(db, rel)`` pair back as Const/Var terms for overlap tests."""
    return tuple(
        Const(part) if part is not None else Var("_") for part in pattern
    )


# ---------------------------------------------------------------------------
# The analysis
# ---------------------------------------------------------------------------


class EffectAnalysis:
    """Interprocedural effect inference over one
    :class:`~repro.core.program.IdlProgram`.

    The analysis is purely static — nothing is evaluated — and cached
    per update-program key and per query statement; build one instance
    per program version
    (:meth:`repro.core.engine.IdlEngine.effect_analysis` does exactly
    that), so no cached result outlives the program it describes.
    """

    def __init__(self, program):
        self.program = program
        self._program_cache = {}  # (db, name, sign) -> (reads, writes)
        self._in_progress = set()
        # id(statement) -> (statement, footprint), least recently used
        # first; the statement is pinned so its id cannot be reused.
        self._footprints = OrderedDict()
        self._footprints_lock = threading.Lock()

    # -- program calls ------------------------------------------------------

    def call_key(self, conjunct):
        """The update-program key a conjunct dispatches to, or None.

        Unlike :func:`repro.core.program.parse_call_shape` this also
        recognizes the higher-order call form ``.dbO.S+(...)`` (variable
        relation name resolved by a wildcard clause). Only shapes that
        resolve to registered clauses count — anything else is a plain
        relation access.
        """
        if not isinstance(conjunct, ast.AttrStep) or conjunct.sign is not None:
            return None
        if not isinstance(conjunct.attr, Const):
            return None
        inner = conjunct.expr
        if not isinstance(inner, ast.AttrStep) or inner.sign is not None:
            return None
        db = conjunct.attr.value
        name = inner.attr.value if isinstance(inner.attr, Const) else None
        args = inner.expr
        if isinstance(args, ast.SetExpr):
            sign = args.sign
        elif isinstance(args, ast.Epsilon):
            sign = None
        else:
            return None
        clauses, wildcard_name = self.program.clauses_for(db, name, sign)
        if not clauses:
            return None
        if name is not None and wildcard_name is not None:
            return (db, None, sign)
        return (db, name, sign)

    def program_effects(self, key):
        """``(reads, writes)`` frozensets of one update program,
        closed over the programs it calls. Recursive programs (already
        an IDL011 error) contribute their non-recursive part."""
        cached = self._program_cache.get(key)
        if cached is not None:
            return cached
        if key in self._in_progress:
            return frozenset(), frozenset()
        self._in_progress.add(key)
        try:
            reads, writes = set(), set()
            clauses, _ = self.program.clauses_for(*key)
            for clause in clauses:
                clause_reads, clause_writes = self.expr_effects(clause.body)
                reads |= clause_reads
                writes |= clause_writes
        finally:
            self._in_progress.discard(key)
        result = (frozenset(reads), frozenset(writes))
        self._program_cache[key] = result
        return result

    def program_footprint(self, key):
        """:class:`Effects` of one update program key."""
        reads, writes = self.program_effects(key)
        return Effects(EffectSet(reads), EffectSet(writes))

    # -- expressions ---------------------------------------------------------

    def expr_effects(self, expr):
        """``(reads, writes)`` pattern sets of one body/request
        expression, with program call sites resolved."""
        reads, writes = set(), set()
        for conjunct in ast.conjuncts_of(expr):
            key = self.call_key(conjunct)
            if key is not None:
                callee_reads, callee_writes = self.program_effects(key)
                reads |= callee_reads
                writes |= callee_writes
                # Dispatch itself consults the called key (wildcard
                # dispatch enumerates the database's relation names).
                reads.add((key[0], key[1]))
                continue
            for pattern, written, _loc in collect_accesses(conjunct):
                normalized = _normalize(pattern)
                reads.add(normalized)
                if written:
                    writes.add(normalized)
        return reads, writes

    def request_footprint(self, statement):
        """:class:`Effects` of one update request (a signed query)."""
        reads, writes = self.expr_effects(statement.expr)
        return Effects(EffectSet(reads), EffectSet(writes))

    # -- view closure ---------------------------------------------------------

    def rules_needed(self, read_patterns):
        """The rules a query reading ``read_patterns`` must materialize.

        Transitive: a rule is needed when its head target could satisfy
        a needed pattern, and its own body references (positive *and*
        negative — negation still consults the referenced view) become
        needed in turn. The result is a dependency-downward-closed
        subset, so materializing exactly these rules yields the same
        derived facts for the read patterns as the full program. It is
        returned in program order, so it stratifies into the same SCC
        keys as the full program (see :func:`repro.core.stratify.stratify`).
        """
        needed_ids = set()
        frontier = [_terms(pattern) for pattern in read_patterns]
        changed = True
        while changed:
            changed = False
            for analyzed in self.program.rules:
                if id(analyzed) in needed_ids:
                    continue
                if any(
                    patterns_overlap(pattern, analyzed.target)
                    for pattern in frontier
                ):
                    needed_ids.add(id(analyzed))
                    frontier.append(analyzed.target)
                    frontier.extend(
                        pattern for pattern, _positive in analyzed.references
                    )
                    changed = True
        return [rule for rule in self.program.rules if id(rule) in needed_ids]

    def query_footprint(self, statement):
        """``(reads, needed_rules)`` of one query statement.

        ``reads`` is the :class:`EffectSet` closed through views — every
        base or derived pattern the answer can depend on; ``needed_rules``
        is the (dependency-closed) rule subset that must be materialized
        (shared between calls: do not mutate it).

        Memoized per statement for the life of this analysis: keyed by
        identity, with the statement pinned in the entry so a collected
        statement's id cannot serve another one, and LRU-bounded at
        :data:`FOOTPRINT_MEMO_LIMIT`. A repeated query text parses to
        the same statement (:func:`repro.core.parser.parse_program`), so
        it is analysed once per program version. Safe under concurrent
        callers: a footprint is computed under the memo's lock.
        """
        memo = self._footprints
        key = id(statement)
        with self._footprints_lock:
            cached = memo.get(key)
            if cached is not None and cached[0] is statement:
                memo.move_to_end(key)
                return cached[1]
            footprint = self._query_footprint(statement)
            memo[key] = (statement, footprint)
            memo.move_to_end(key)
            if len(memo) > FOOTPRINT_MEMO_LIMIT:
                memo.popitem(last=False)
        return footprint

    def _query_footprint(self, statement):
        direct, _writes = self.expr_effects(statement.expr)
        needed = self.rules_needed(direct)
        closed = set(direct)
        for analyzed in needed:
            closed.add(_normalize(analyzed.target))
            for pattern, _positive in analyzed.references:
                closed.add(_normalize(pattern))
        return EffectSet(closed), needed
