"""An interactive IDL console.

Reads IDL statements line by line and executes them against an
:class:`~repro.core.engine.IdlEngine`:

* ``?...``            — query (answers printed as a table) or update
                        request (result summary printed); program calls
                        are dispatched automatically;
* ``head <- body``    — define a view rule;
* ``head -> body``    — define an update program clause;
* ``:``-commands      — console controls (see ``:help``).

Designed to be driven programmatically (tests, scripted demos): pass
any iterable of lines and a writable stream.
"""

from __future__ import annotations

import sys

from repro.bench.harness import format_table
from repro.core import ast
from repro.core.engine import IdlEngine
from repro.core.explain import explain_query, profile_query
from repro.core.parser import parse_program
from repro.core.program import Call
from repro.errors import IdlError
from repro.obs import InMemoryCollector, Observability, QueryProfile
from repro.obs.profile import index_stats

HELP = """\
IDL console commands:
  ?<expr>              query, or update request (+/- or program calls)
  <head> <- <body>     define a view rule
  <head> -> <body>     define an update program clause
  :dbs                 list databases
  :rels <db>           list relations of a database
  :program             show loaded rules and update programs
  :explain ?<expr>     show the evaluation plan of a query
  :profile ?<expr>     evaluate with node-visit counters (including the
                       evaluator's index probe stats) and, when tracing
                       is on, the span tree of the run; an update
                       request reports the incremental-maintenance
                       summary (repaired/fallback strata) instead
  :metrics             show the engine's metrics registry (fixpoint
                       totals, fixpoint.maintain.* repair counters,
                       evaluator.index.* probe counters, ...)
  :top                 live per-operation/per-member table: request
                       count, rate/s, p50/p99 latency, SLO burn rate
  :slow                the slow-query log (the N worst root spans,
                       rendered trees included)
  :slo                 objectives and multi-window burn rates for every
                       tracked operation and member
  :health              per-member availability/health and the write-
                       ahead journal's status (federation consoles)
  :check [<path>]      run idlcheck over the loaded program (or a file);
                       federation consoles validate the full install
                       program, including update footprints (IDL060)
  :footprint ?<expr>   show the statically inferred read/write effect
                       sets of a request without executing it; the
                       reads drive member pruning (a flush stages the
                       members an update actually changed)
  :load <path>         load a program file (rules + clauses)
  :save <path>         persist the engine (data + program) to JSON
  :open <path>         replace the engine from a persisted JSON file
  :keys                list declared integrity constraints
  :help                this text
  :quit                leave
"""


class IdlRepl:
    """A scriptable read-eval-print loop over one engine.

    A console started without an engine gets one with observability
    enabled, so ``:profile`` renders span trees and ``:metrics`` has
    counters to show; a supplied engine keeps whatever (if any)
    observability it was built with.

    Pass a :class:`~repro.multidb.federation.Federation` as
    ``federation`` to drive a federation console: the engine defaults
    to the federation's, and ``:health`` reports member availability
    and journal status.
    """

    def __init__(self, engine=None, out=None, federation=None):
        self.federation = federation
        if engine is None and federation is not None:
            engine = federation.engine
        self.engine = (engine if engine is not None
                       else IdlEngine(obs=Observability()))
        self.out = out if out is not None else sys.stdout
        self.running = True

    # -- output ------------------------------------------------------------

    def write(self, text=""):
        self.out.write(text + "\n")

    # -- main loop -----------------------------------------------------------

    def run(self, lines):
        """Process an iterable of input lines until exhausted or :quit."""
        for line in lines:
            if not self.running:
                break
            self.handle(line)
        return self

    def handle(self, line):
        line = line.strip()
        if not line or line.startswith("%") or line.startswith("#"):
            return
        try:
            if line.startswith(":"):
                self._command(line)
            else:
                self._statement(line)
        except IdlError as exc:
            self.write(f"error: {exc}")
        except OSError as exc:
            self.write(f"error: {exc}")

    # -- commands ------------------------------------------------------------

    def _command(self, line):
        parts = line.split(None, 1)
        command = parts[0]
        argument = parts[1].strip() if len(parts) > 1 else ""

        if command in (":quit", ":q", ":exit"):
            self.running = False
            self.write("bye")
        elif command == ":help":
            self.write(HELP.rstrip())
        elif command == ":dbs":
            for name in self.engine.universe.database_names():
                self.write(f"  {name}")
        elif command == ":rels":
            if not argument:
                self.write("usage: :rels <db>")
                return
            for name in self.engine.universe.relation_names(argument):
                size = len(self.engine.universe.relation(argument, name))
                self.write(f"  {name} ({size} elements)")
        elif command == ":program":
            from repro.core.pretty import to_source

            if not self.engine.program.rules and not self.engine.program.clauses:
                self.write("  (empty)")
            for analyzed in self.engine.program.rules:
                suffix = (
                    f"   % merge on {', '.join(analyzed.merge_on)}"
                    if analyzed.merge_on
                    else ""
                )
                self.write(f"  {to_source(analyzed.rule)}{suffix}")
            for name in self.engine.program.program_names():
                self.write(f"  program {name}")
        elif command == ":explain":
            if not argument:
                self.write("usage: :explain ?<expr>")
                return
            self.write(explain_query(argument).render())
        elif command == ":profile":
            if not argument:
                self.write("usage: :profile ?<expr>")
                return
            self._profile(argument)
        elif command == ":metrics":
            obs = self.engine.obs
            if obs is None:
                self.write("(observability disabled)")
            else:
                self.write(obs.metrics.render())
        elif command == ":top":
            self._top()
        elif command == ":slow":
            self._slow()
        elif command == ":slo":
            self._slo()
        elif command == ":health":
            self._health()
        elif command == ":check":
            from repro.analysis import Catalog, check_engine, check_source

            if argument:
                with open(argument) as handle:
                    report = check_source(
                        handle.read(),
                        catalog=Catalog.from_universe(self.engine.universe),
                    )
            elif self.federation is not None:
                # The federation knows the required call shapes and
                # declared write footprints; checking through it wires
                # up coverage (IDL030) and footprint (IDL060) findings
                # a bare engine check cannot see.
                report = self.federation.validation_report()
            else:
                report = check_engine(self.engine)
            self.write(report.render())
        elif command == ":footprint":
            if not argument:
                self.write("usage: :footprint ?<expr>")
                return
            self._footprint(argument)
        elif command == ":load":
            with open(argument) as handle:
                self.engine.load(handle.read())
            self.write(f"loaded {argument}")
        elif command == ":save":
            from repro.io import save_engine

            save_engine(self.engine, argument)
            self.write(f"saved {argument}")
        elif command == ":open":
            from repro.io import load_engine

            self.engine = load_engine(argument)
            self.write(f"opened {argument}")
        elif command == ":keys":
            rendered = self.engine.constraints.as_relations()
            for row in rendered["keys"]:
                self.write(f"  key  .{row['db']}.{row['rel']} ({row['columns']})")
            for row in rendered["types"]:
                nullable = "" if row["nullable"] else " not null"
                self.write(
                    f"  type .{row['db']}.{row['rel']}.{row['attr']} "
                    f": {row['type']}{nullable}"
                )
            if not rendered["keys"] and not rendered["types"]:
                self.write("  (none)")
        else:
            self.write(f"unknown command {command}; try :help")

    def _slo_tracker(self):
        obs = self.engine.obs
        return getattr(obs, "slo", None) if obs is not None else None

    def _top(self):
        """Live per-operation / per-member summary table, slowest p99
        first (see docs/observability.md, "The :top walkthrough")."""
        tracker = self._slo_tracker()
        if tracker is None:
            self.write("(no SLO tracker; enable observability)")
            return
        self.write(tracker.render_top())

    def _slow(self):
        """The slow-query log: the worst root spans with their trees."""
        obs = self.engine.obs
        log = getattr(obs, "slow_log", None) if obs is not None else None
        if log is None:
            self.write("(no slow-query log; enable observability)")
            return
        self.write(log.render())

    def _slo(self):
        """Objectives and burn rates per tracked operation/member."""
        tracker = self._slo_tracker()
        if tracker is None:
            self.write("(no SLO tracker; enable observability)")
            return
        report = tracker.report()
        if not report["operations"] and not report["members"]:
            self.write("(nothing recorded yet)")
            return
        for section in ("operations", "members"):
            for name, status in sorted(report[section].items()):
                objective = status["objective"]
                target = f"{objective['availability'] * 100:g}%"
                if objective["latency_ms"] is not None:
                    target += (f" / p{int(objective['percentile'] * 100)}"
                               f" <= {objective['latency_ms']:g}ms")
                self.write(f"  {status['kind']}:{name}  target={target}")
                for window, stats in status["windows"].items():
                    availability = stats["availability"]
                    rendered = (f"{availability * 100:.3f}%"
                                if availability is not None else "-")
                    self.write(
                        f"    {window:>6}  n={stats['total']:<6} "
                        f"errors={stats['errors']:<4} "
                        f"availability={rendered:<9} "
                        f"burn={stats['burn_rate']:.2f}"
                    )

    def _health(self):
        """Render the federation's health report: one line per member,
        then the write-ahead journal's status."""
        if self.federation is None:
            self.write("(no federation attached; pass federation= to "
                       "IdlRepl)")
            return
        report = self.federation.health_report()
        journal = report.pop("journal")
        for name, entry in sorted(report.items()):
            error = f"  last_error={entry['last_error']}" \
                if entry["last_error"] else ""
            self.write(
                f"  {name:<10} {entry['status']:<12} "
                f"breaker={entry['breaker']:<9} "
                f"ok={entry['successes']} fail={entry['failures']} "
                f"retry={entry['retries']}{error}"
            )
        pending = ", ".join(str(uid) for uid in journal["pending"]) or "none"
        self.write(
            f"  journal    {journal['backend']}: "
            f"{journal['updates']} update(s), "
            f"{journal['committed']} committed, "
            f"{journal['aborted']} aborted, pending: {pending}"
        )
        if journal["truncated_tails"] or journal["dropped_records"]:
            self.write(
                f"             truncated_tails={journal['truncated_tails']} "
                f"dropped_records={journal['dropped_records']}"
            )

    def _footprint(self, argument):
        """Render the static read/write effect sets of one request.

        Nothing is evaluated: the effect analysis closes the request
        over the loaded views and update programs, so the read set is
        exactly what drives member pruning, and the write set bounds
        what the request may change (see docs/static_analysis.md)."""
        if self.federation is not None:
            effects = self.federation.write_footprint(argument)
        else:
            statement = self.engine._one_query(argument)
            effects = self.engine.effect_analysis().request_footprint(
                statement
            )
        self.write(f"  reads:  {effects.reads.describe()}")
        self.write(f"  writes: {effects.writes.describe()}")
        for label, effect_set in (("read", effects.reads),
                                  ("write", effects.writes)):
            if not effect_set.bounded:
                self.write(
                    f"  note: the {label} set is symbolic (a database "
                    f"name is run-time data); pruning treats it as "
                    f"unbounded"
                )

    def _profile(self, argument):
        """Evaluate once with profiling; with tracing on, one observed
        run yields the answers, the counters and the span tree. An
        update request is executed instead, reporting its counts and —
        when the materialization was repaired in place — the
        incremental-maintenance summary."""
        statements = parse_program(argument)
        statement = statements[0] if statements else None
        if (isinstance(statement, ast.Query)
                and self._is_update(statement)):
            self._profile_update(statement)
            return
        obs = self.engine.obs
        profile = None
        if obs is not None and obs.enabled:
            collector = InMemoryCollector()
            obs.add_exporter(collector)
            try:
                self.engine.query(argument)
            finally:
                obs.exporters.remove(collector)
            profile = QueryProfile(collector.last)
            answers = collector.last.attributes.get("answers", 0)
            counters, stats = profile.counters, profile.index_stats
        else:
            results, counters = profile_query(
                argument, self.engine.materialized_view()
            )
            answers, stats = len(results), index_stats(counters)
        self.write(f"answers: {answers}")
        for kind in sorted(counters):
            self.write(f"  {kind:<12} {counters[kind]}")
        self.write(self._index_summary(stats))
        if profile is not None:
            self.write(profile.render())

    def _profile_update(self, statement):
        """Run an update once, reporting what it changed and how the
        cached materialization coped (repaired in place vs rebuild)."""
        obs = self.engine.obs
        collector = None
        if obs is not None and obs.enabled:
            collector = InMemoryCollector()
            obs.add_exporter(collector)
        try:
            result = self.engine.update(statement)
        finally:
            if collector is not None:
                obs.exporters.remove(collector)
        status = "ok" if result.succeeded else "no match"
        self.write(
            f"{status}: +{result.inserted} -{result.deleted} "
            f"~{result.modified}"
        )
        if collector is None:
            self.write("(enable tracing for the maintenance summary)")
            return
        maintain = collector.find("fixpoint.maintain")
        if maintain is None:
            self.write("maintenance: (not attempted — no live "
                       "materialization or nothing dirtied)")
        else:
            attributes = maintain.attributes
            self.write(self._maintenance_summary(attributes))
            for name, event in maintain.events:
                if name == "stratum-fallback":
                    self.write(f"  fallback: {event.get('reason')}")
        update_root = collector.find("engine.update")
        if update_root is not None:
            self.write(update_root.render())

    @staticmethod
    def _maintenance_summary(attributes):
        """One line summarizing an in-place view repair (see
        docs/performance.md, "Incremental maintenance"): how many SCCs
        were repaired, by counting and by DRed, and how many fell back."""
        return (
            "maintenance: repaired={repaired}/{strata} "
            "fallbacks={fallbacks} seeded={seeded} "
            "overdeleted={overdeleted} rederived={rederived} "
            "counting={counting} dred={dred}".format(
                **{key: attributes.get(key, 0) for key in (
                    "repaired", "strata", "fallbacks", "seeded",
                    "overdeleted", "rederived", "counting", "dred")}
            )
        )

    @staticmethod
    def _index_summary(stats):
        """One line summarizing the selection-pushdown behavior of a
        profiled query (see docs/performance.md)."""
        if not any(stats.values()):
            return "index: (no set expressions probed)"
        rendered = " ".join(f"{kind}={count}" for kind, count in stats.items())
        return f"index: {rendered}"

    # -- statements ------------------------------------------------------------

    def _statement(self, line):
        statements = parse_program(line)
        for statement in statements:
            if isinstance(statement, ast.Rule):
                self.engine.define(statement)
                self.write("rule defined")
            elif isinstance(statement, ast.UpdateClause):
                self.engine.define_update(statement)
                self.write("update program defined")
            elif isinstance(statement, ast.Query):
                self._query_or_update(statement)
            else:  # pragma: no cover - parser yields only the above
                self.write(f"cannot execute {statement!r}")

    def _is_update(self, statement):
        return statement.is_update_request or any(
            isinstance(self.engine.program.resolve_call(conjunct), Call)
            for conjunct in ast.conjuncts_of(statement.expr)
        )

    def _query_or_update(self, statement):
        if self._is_update(statement):
            result = self.engine.update(statement)
            status = "ok" if result.succeeded else "no match"
            self.write(
                f"{status}: +{result.inserted} -{result.deleted} "
                f"~{result.modified}"
            )
            return
        answers = self.engine.query(statement)
        if not answers:
            names = sorted(statement.variables())
            self.write("false" if not names else "(no answers)")
            return
        names = sorted(answers[0].keys())
        if not names:
            self.write("true")
            return
        rows = [
            {name: answer[name] for name in names} for answer in answers
        ]
        self.write(format_table(names, rows))
        self.write(f"({len(rows)} answer{'s' if len(rows) != 1 else ''})")


def main(argv=None):  # pragma: no cover - thin CLI wrapper
    """Entry point: ``python -m repro.tools.repl [saved-engine.json]``."""
    argv = argv if argv is not None else sys.argv[1:]
    engine = None
    if argv:
        from repro.io import load_engine

        engine = load_engine(argv[0])
    repl = IdlRepl(engine=engine)
    repl.write("IDL console — :help for commands")
    try:
        while repl.running:
            repl.out.write("idl> ")
            repl.out.flush()
            line = sys.stdin.readline()
            if not line:
                break
            repl.handle(line)
    except KeyboardInterrupt:
        repl.write("")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
