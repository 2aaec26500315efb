"""``idlcheck`` — whole-program static analysis of IDL programs.

The checker takes parsed statements (rules, update program clauses,
queries) plus an optional member :class:`~repro.analysis.catalog.Catalog`
and produces a :class:`~repro.analysis.diagnostics.DiagnosticReport`
instead of raising on the first problem. It promotes every check the
engine performs lazily at query/call time to *install time*:

* **safety** (IDL001) — every rule body, clause body and query must
  admit a safe evaluation order (range restriction), reusing
  :mod:`repro.core.safety` without executing anything;
* **name range restriction** (IDL002) — higher-order head variables
  must be produced in a *name position* by the body, or they may be
  bound to non-name values at run time;
* **structure** (IDL003, IDL041) — malformed heads/parameter lists and
  exact duplicate statements;
* **stratification** (IDL010) and **update-program nonrecursion**
  (IDL011) — whole-program, with the negative-cycle trace from
  :mod:`repro.core.stratify`; clauses are registered through
  :meth:`~repro.core.program.IdlProgram.add_update_clause`, so IDL011
  fires on the clause ``define_update`` would reject;
* **schema resolution** (IDL020, IDL021) — every ground ``.db.rel``
  reference must resolve against the member catalogs or a derived view
  target; constant attribute names are checked against catalog schemas;
* **update coverage** (IDL030, IDL031) — every program call site and
  every declared entry point (:class:`CallShape`) must be covered by a
  clause whose binding signature (:mod:`repro.core.binding`) accepts the
  call, promoting the call-time :class:`~repro.errors.BindingError` to
  install time;
* **liveness** (IDL040) — rules that can never derive a fact (their
  positive references have no producer, e.g. recursion without a base
  case) are flagged;
* **types** (IDL050, IDL051) — the type-signature lattice of
  :mod:`repro.analysis.types` is solved to a fixpoint across rules,
  clauses and queries; unification clashes (a variable forced to be
  both a number and a name/string) and unsatisfiable ground selections
  are flagged;
* **footprints** (IDL060) — for every required :class:`CallShape` that
  declares a ``writes`` footprint, the inferred write effect set
  (:mod:`repro.analysis.effects`) of the covering clauses must stay
  inside the declared databases.

Path references come from :func:`repro.core.rules.conjunct_references`
and call sites from :meth:`repro.core.program.IdlProgram.resolve_call`,
the same two decisions the engine and the update executor act on.
"""

from __future__ import annotations

from itertools import combinations

from repro.analysis.catalog import Catalog
from repro.analysis.diagnostics import DiagnosticReport
from repro.analysis.effects import EffectAnalysis
from repro.analysis.types import TypeInference
from repro.core import ast
from repro.core.binding import body_executable
from repro.core.parser import parse_program
from repro.core.pretty import to_source
from repro.core.program import Call, IdlProgram, analyze_clause
from repro.core.rules import analyze_rule, conjunct_references, patterns_overlap
from repro.core.safety import goal_order
from repro.core.stratify import stratify
from repro.core.terms import Const, Var
from repro.errors import (
    IdlSyntaxError,
    RecursionError_,
    SafetyError,
    SemanticError,
    StratificationError,
    UpdateError,
)


class CallShape:
    """A declared update entry point the program must cover.

    ``db`` / ``name`` / ``sign`` address the program (``name=None`` with
    a sign is the wildcard higher-order form); ``params`` is the set of
    parameter names a caller will supply; ``origin`` says who requires
    the shape (used in diagnostics); ``writes``, when not None, is the
    set of database names the program is *allowed* to write — its
    declared footprint, enforced by IDL060 against the inferred write
    effects (:mod:`repro.analysis.effects`).
    """

    __slots__ = ("db", "name", "sign", "params", "origin", "writes")

    def __init__(self, db, name, sign=None, params=(), origin=None,
                 writes=None):
        self.db = db
        self.name = name
        self.sign = sign
        self.params = frozenset(params)
        self.origin = origin
        self.writes = frozenset(writes) if writes is not None else None

    def describe(self):
        name = self.name if self.name is not None else "<REL>"
        params = ", ".join(sorted(self.params)) or "none"
        return f".{self.db}.{name}{self.sign or ''} (given: {params})"

    def __repr__(self):
        return f"<CallShape {self.describe()}>"


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def check_source(source, catalog=None, required=()):
    """Parse and check IDL source text; never raises on bad programs."""
    report = DiagnosticReport()
    try:
        statements = parse_program(source)
    except IdlSyntaxError as exc:
        loc = (exc.line, exc.column) if exc.line is not None else None
        report.add("IDL000", str(exc), loc=loc)
        return report
    return check_statements(
        statements, catalog=catalog, required=required, report=report
    )


def check_statements(statements, catalog=None, required=(), report=None):
    """Check a list of parsed statements."""
    checker = ProgramChecker(catalog=catalog, required=required)
    return checker.check(statements, report=report)


def check_engine(engine, catalog=None, required=()):
    """Check the program already loaded on an :class:`IdlEngine`.

    The catalog defaults to the engine's base universe, so every member
    snapshot the engine holds doubles as schema ground truth.
    """
    statements = [analyzed.rule for analyzed in engine.program.rules]
    for clause_list in engine.program.clauses.values():
        for clause in clause_list:
            if clause.clause_source is not None:
                statements.append(clause.clause_source)
    if catalog is None:
        catalog = Catalog.from_universe(engine.universe)
    return check_statements(statements, catalog=catalog, required=required)


# ---------------------------------------------------------------------------
# The checker
# ---------------------------------------------------------------------------


class ProgramChecker:
    """One whole-program analysis run."""

    def __init__(self, catalog=None, required=()):
        self.catalog = catalog
        self.required = list(required)
        self.program = IdlProgram()
        self.rules = []  # AnalyzedRule, in statement order
        self.rule_stmts = []  # the Rule statements, parallel to self.rules
        self.clauses = []  # (ProgramClause, UpdateClause statement)
        self.queries = []  # Query statements
        self._rules_with_unknown_refs = set()  # indices with an IDL020

    # -- drive ---------------------------------------------------------------

    def check(self, statements, report=None):
        report = report if report is not None else DiagnosticReport()
        self._collect(statements, report)
        self._check_stratification(report)
        self._check_name_restriction(report)
        self._check_clause_callability(report)
        self._check_schema(report)
        self._check_productivity(report)
        self._check_update_coverage(report)
        self._check_types(report)
        self._check_footprints(report)
        return report

    # -- phase 1: per-statement analysis ------------------------------------

    def _collect(self, statements, report):
        seen = {}
        for statement in statements:
            duplicate_of = seen.get(statement)
            if duplicate_of is not None:
                report.add(
                    "IDL041",
                    "statement exactly duplicates the one at "
                    + ast.format_loc(duplicate_of),
                    loc=statement.loc,
                    context=to_source(statement),
                )
            else:
                seen[statement] = statement.loc

            if isinstance(statement, ast.Rule):
                self._collect_rule(statement, report)
            elif isinstance(statement, ast.UpdateClause):
                self._collect_clause(statement, report)
            elif isinstance(statement, ast.Query):
                self._collect_query(statement, report)
            else:
                report.add(
                    "IDL003",
                    f"cannot analyze a {type(statement).__name__} statement",
                    loc=getattr(statement, "loc", None),
                )

    def _collect_rule(self, statement, report):
        try:
            analyzed = analyze_rule(statement)
        except SafetyError as exc:
            report.add(
                "IDL001", str(exc), loc=statement.loc,
                context=to_source(statement),
            )
            return
        except SemanticError as exc:
            report.add(
                "IDL003", str(exc), loc=statement.loc,
                context=to_source(statement),
            )
            return
        self.rules.append(analyzed)
        self.rule_stmts.append(statement)
        self.program.rules.append(analyzed)

    def _collect_clause(self, statement, report):
        """Register a clause as ``define_update`` would: one that closes
        a call cycle is reported (IDL011) and left out of the program,
        though its own body is still checked."""
        try:
            clause = self.program.add_update_clause(statement)
        except RecursionError_ as exc:
            report.add("IDL011", str(exc))
            clause = analyze_clause(statement)
        except SemanticError as exc:
            report.add(
                "IDL003", str(exc), loc=statement.loc,
                context=to_source(statement),
            )
            return
        self.clauses.append((clause, statement))

    def _collect_query(self, statement, report):
        self.queries.append(statement)
        try:
            goal_order(statement.expr, frozenset())
        except SafetyError as exc:
            report.add(
                "IDL001", str(exc), loc=statement.loc,
                context=to_source(statement),
            )

    # -- phase 2: whole-program checks ---------------------------------------

    def _check_stratification(self, report):
        try:
            stratify(self.rules)
        except StratificationError as exc:
            cycle = getattr(exc, "cycle", None)
            loc = cycle[0].rule.loc if cycle else None
            report.add("IDL010", str(exc), loc=loc)

    def _check_name_restriction(self, report):
        """IDL002: higher-order head variables must be enumeration-bound.

        A variable used as a relation/attribute name in the head must be
        *produced by enumeration* somewhere in the body — matched in a
        name position (``.member.S(...)``) or against stored values
        (``.stk=S``). A name variable that is only computed (e.g. bound
        by an arithmetic constraint) may range over non-name values.
        """
        for analyzed, statement in zip(self.rules, self.rule_stmts):
            if not analyzed.is_higher_order:
                continue
            name_vars = {
                term.name for term in analyzed.target if isinstance(term, Var)
            }
            enumerated = set()
            for node in analyzed.body.walk():
                if isinstance(node, ast.AttrStep) and isinstance(node.attr, Var):
                    enumerated.add(node.attr.name)
                elif (
                    isinstance(node, ast.AtomicExpr)
                    and node.op == "="
                    and node.sign is None
                    and isinstance(node.term, Var)
                ):
                    enumerated.add(node.term.name)
            for name in sorted(name_vars - enumerated):
                report.add(
                    "IDL002",
                    f"head variable {name} names a relation/attribute but "
                    "the body never produces it by enumeration (in a name "
                    "or value position); it may be bound to a non-name "
                    "value at run time",
                    loc=statement.loc,
                    context=to_source(statement),
                )

    def _check_clause_callability(self, report):
        """IDL031: a clause no binding can execute is dead weight."""
        for clause, statement in self.clauses:
            bound = {
                term.name
                for term in clause.param_terms.values()
                if isinstance(term, Var)
            }
            if not body_executable(clause.body, bound):
                report.add(
                    "IDL031",
                    "no call binding can execute this clause safely, even "
                    "with every parameter given",
                    loc=statement.loc,
                    context=to_source(statement),
                )

    # -- schema resolution ----------------------------------------------------

    def _known_sources(self):
        """Target patterns a reference may legally resolve against."""
        sources = [analyzed.target for analyzed in self.rules]
        if self.catalog is not None:
            for db, rel in self.catalog.paths():
                sources.append((Const(db), Const(rel)))
            for db in self.catalog.opaque:
                sources.append((Const(db),))
        return sources

    def _check_schema(self, report):
        if self.catalog is None:
            return
        sources = self._known_sources()
        for index, (analyzed, statement) in enumerate(
            zip(self.rules, self.rule_stmts)
        ):
            for conjunct, refs in zip(ast.conjuncts_of(analyzed.body),
                                      analyzed.conjunct_references):
                if self._check_conjunct_schema(
                    conjunct, refs, statement, sources, report
                ):
                    self._rules_with_unknown_refs.add(index)
        bodies = [(clause.body, statement) for clause, statement in self.clauses]
        bodies += [(statement.expr, statement) for statement in self.queries]
        for body, statement in bodies:
            for conjunct in ast.conjuncts_of(body):
                if isinstance(self.program.resolve_call(conjunct), Call):
                    continue  # program calls are not relation references
                self._check_conjunct_schema(
                    conjunct, conjunct_references(conjunct), statement,
                    sources, report,
                )

    def _check_conjunct_schema(self, conjunct, refs, statement, sources,
                               report):
        """IDL020/IDL021 for one top-level conjunct and its references;
        True if IDL020 fired."""
        fired = False
        for ref in refs:
            if ref.created:
                continue  # a '+' along the path may create the structure
            pattern = ref.pattern
            if any(not isinstance(term, Const) for term in pattern[:2]):
                continue  # higher-order reference: can match anything
            if any(patterns_overlap(pattern, source) for source in sources):
                continue
            db = pattern[0].value
            loc = conjunct.loc if conjunct.loc else statement.loc
            if not self.catalog.has_database(db) and not any(
                patterns_overlap((pattern[0],), source) for source in sources
            ):
                message = f"unknown database .{db}"
            else:
                message = (
                    f"unknown relation .{db}.{pattern[1].value}: not in the "
                    "member catalogs and no rule derives it"
                )
            report.add(
                "IDL020", message, loc=loc, context=to_source(statement)
            )
            fired = True
        self._check_attrs(conjunct, statement, report)
        return fired

    def _check_attrs(self, conjunct, statement, report):
        """IDL021: constant attributes must occur in catalog relations."""
        node = conjunct
        path = []
        while isinstance(node, ast.AttrStep) and isinstance(node.attr, Const):
            if node.sign is not None:
                return
            path.append(node.attr.value)
            node = node.expr
            while isinstance(node, ast.NegExpr):
                node = node.inner
            if len(path) == 2:
                break
        if len(path) != 2 or not isinstance(node, ast.SetExpr):
            return
        if node.sign == ast.PLUS:
            return  # inserts may introduce fresh attributes
        db, rel = path
        if self.catalog.is_opaque(db) or not self.catalog.has_relation(db, rel):
            return
        pattern = (Const(db), Const(rel))
        if any(
            patterns_overlap(pattern, analyzed.target)
            for analyzed in self.rules
        ):
            return  # also derived: the rule may add attributes
        attrs = self.catalog.attributes(db, rel)
        if attrs is None:
            return
        for item in ast.conjuncts_of(node.inner):
            if (
                isinstance(item, ast.AttrStep)
                and isinstance(item.attr, Const)
                and item.sign is None
                and item.attr.value not in attrs
            ):
                report.add(
                    "IDL021",
                    f"relation .{db}.{rel} has no attribute "
                    f"{item.attr.value!r}; this conjunct can never match",
                    loc=item.loc if item.loc else statement.loc,
                    context=to_source(statement),
                )

    # -- liveness -------------------------------------------------------------

    def _check_productivity(self, report):
        """IDL040: rules whose positive references have no producer."""
        if self.catalog is None:
            return
        base_sources = []
        for db, rel in self.catalog.paths():
            base_sources.append((Const(db), Const(rel)))
        for db in self.catalog.opaque:
            base_sources.append((Const(db),))

        productive = set()
        changed = True
        while changed:
            changed = False
            for index, analyzed in enumerate(self.rules):
                if index in productive:
                    continue
                if self._rule_feedable(analyzed, base_sources, productive):
                    productive.add(index)
                    changed = True
        for index, analyzed in enumerate(self.rules):
            if index in productive or index in self._rules_with_unknown_refs:
                continue
            report.add(
                "IDL040",
                "rule can never fire: a positive body reference has no "
                "producer (no catalog relation, and no productive rule, "
                "derives it)",
                loc=self.rule_stmts[index].loc,
                context=to_source(self.rule_stmts[index]),
            )

    def _rule_feedable(self, analyzed, base_sources, productive):
        for pattern, positive in analyzed.references:
            if not positive:
                continue
            if any(patterns_overlap(pattern, source) for source in base_sources):
                continue
            if any(
                patterns_overlap(pattern, self.rules[j].target)
                for j in productive
            ):
                continue
            return False
        return True

    # -- update coverage -------------------------------------------------------

    def _check_update_coverage(self, report):
        for clause, statement in self.clauses:
            for conjunct in ast.conjuncts_of(clause.body):
                self._check_call_site(conjunct, statement, report)
        for statement in self.queries:
            for conjunct in ast.conjuncts_of(statement.expr):
                self._check_call_site(conjunct, statement, report)
        for shape in self.required:
            self._check_required_shape(shape, report)

    def _check_call_site(self, conjunct, statement, report):
        call = self.program.resolve_call(conjunct)
        loc = conjunct.loc if conjunct.loc else statement.loc
        if isinstance(call, UpdateError):
            report.add("IDL030", str(call), loc=loc,
                       context=to_source(statement))
            return
        if call is None or call.args is None:
            return  # a plain access, or arguments the executor rejects
        given = [attr for attr, _term in call.args]
        if not self._covered(call.clauses, given):
            report.add(
                "IDL030",
                f"call {call.describe()} with bindings "
                f"({', '.join(sorted(given)) or 'none'}) is not covered by "
                "any clause; accepted signatures: "
                + self._signatures_hint(call.clauses),
                loc=loc,
                context=to_source(statement),
            )

    def _check_required_shape(self, shape, report):
        clauses, _ = self.program.clauses_for(shape.db, shape.name, shape.sign)
        origin = f" (required by {shape.origin})" if shape.origin else ""
        if not clauses:
            report.add(
                "IDL030",
                f"update entry point {shape.describe()} has no translator "
                f"clause{origin}",
            )
            return
        if not self._covered(clauses, shape.params):
            report.add(
                "IDL030",
                f"no clause covers the call shape {shape.describe()}"
                f"{origin}; accepted signatures: "
                + self._signatures_hint(clauses),
            )

    # -- types and effects ----------------------------------------------------

    def _check_types(self, report):
        """IDL050/IDL051: solve the type lattice over the whole program."""
        inference = TypeInference()
        for statement in self.rule_stmts:
            inference.add_rule(statement)
        for clause, statement in self.clauses:
            inference.add_clause(clause, origin=statement)
        for statement in self.queries:
            inference.add_query(statement)
        for finding in inference.run():
            statement = finding.origin
            loc = finding.loc
            if loc is None and statement is not None:
                loc = statement.loc
            report.add(
                finding.code,
                finding.message,
                loc=loc,
                context=to_source(statement) if statement is not None else None,
            )

    def _check_footprints(self, report):
        """IDL060: inferred writes must stay inside declared footprints."""
        shapes = [shape for shape in self.required if shape.writes is not None]
        if not shapes:
            return
        analysis = EffectAnalysis(self.program)
        stmt_of = {id(clause): stmt for clause, stmt in self.clauses}
        for shape in shapes:
            clauses, _ = self.program.clauses_for(
                shape.db, shape.name, shape.sign
            )
            for clause in clauses:
                self._check_clause_footprint(
                    analysis, shape, clause, stmt_of.get(id(clause)), report
                )

    def _check_clause_footprint(self, analysis, shape, clause, statement,
                                report):
        origin = f" (declared by {shape.origin})" if shape.origin else ""
        allowed = ", ".join(sorted(shape.writes)) or "none"
        context = to_source(statement) if statement is not None else None

        def offend(conjunct_loc, what):
            report.add(
                "IDL060",
                f"program {shape.describe()} writes {what}, outside its "
                f"declared footprint [{allowed}]{origin}",
                loc=conjunct_loc if conjunct_loc else getattr(
                    statement, "loc", None),
                context=context,
            )

        for conjunct in ast.conjuncts_of(clause.body):
            call = self.program.resolve_call(conjunct)
            if isinstance(call, Call):
                _reads, writes = analysis.program_effects(call.key)
                for db, rel in sorted(
                    writes, key=lambda p: (p[0] or "", p[1] or "")
                ):
                    if self._exempt_write(db, rel, shape.writes):
                        continue
                    target = (f".{db or '<DB>'}.{rel or '<REL>'}"
                              f" (via .{call.db}.{call.key[1] or '<REL>'})")
                    offend(conjunct.loc, target)
                continue
            for ref in conjunct_references(conjunct):
                if not ref.written:
                    continue
                pattern = ref.pattern
                db = (pattern[0].value
                      if pattern and isinstance(pattern[0], Const) else None)
                rel = (pattern[1].value
                       if len(pattern) > 1 and isinstance(pattern[1], Const)
                       else None)
                if self._exempt_write(db, rel, shape.writes):
                    continue
                offend(ref.loc, f".{db or '<DB>'}.{rel or '<REL>'}")

    def _exempt_write(self, db, rel, allowed):
        """Is a ``(db, rel)`` write inside the declared footprint?

        Derived view targets are exempt: a signed view reference routes
        through its view-update programs (checked at their own call
        sites, and by IDL030 when missing), not to a member database.
        """
        if db is None:
            return False  # symbolic database: unverifiable, report it
        if db in allowed:
            return True
        path = (Const(db),
                Const(rel) if rel is not None else Var("_"))
        return any(
            patterns_overlap(path, analyzed.target) for analyzed in self.rules
        )

    def _covered(self, clauses, given):
        """Does some clause accept a call giving exactly ``given`` params?"""
        given = set(given)
        for clause in clauses:
            if given - set(clause.param_terms):
                continue  # unknown argument names: the clause rejects
            bound = {
                clause.param_terms[attr].name
                for attr in given
                if isinstance(clause.param_terms.get(attr), Var)
            }
            relation_term = clause.param_terms.get("__relation__")
            if isinstance(relation_term, Var):
                bound.add(relation_term.name)
            if body_executable(clause.body, bound):
                return True
        return False

    def _signatures_hint(self, clauses):
        """Minimal acceptable parameter sets, in call-argument terms.

        Like :func:`repro.core.binding.minimal_signatures` but mapping
        each parameter's attribute name to the body variable it binds,
        which is what actually matters for safety.
        """
        rendered = set()
        for clause in clauses:
            var_of = {
                attr: term.name
                for attr, term in clause.param_terms.items()
                if attr != "__relation__" and isinstance(term, Var)
            }
            always = set()
            relation_term = clause.param_terms.get("__relation__")
            if isinstance(relation_term, Var):
                always.add(relation_term.name)
            attrs = tuple(sorted(var_of))
            minimal = []
            for size in range(len(attrs) + 1):
                for subset in combinations(attrs, size):
                    candidate = frozenset(subset)
                    if any(existing <= candidate for existing in minimal):
                        continue
                    bound = always | {var_of[attr] for attr in candidate}
                    if body_executable(clause.body, bound):
                        minimal.append(candidate)
            for signature in minimal:
                rendered.add(
                    "+".join(sorted(signature)) if signature else "(none)"
                )
        return ", ".join(sorted(rendered)) if rendered else "(none)"
