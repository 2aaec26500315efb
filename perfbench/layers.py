"""Layer boundaries the traced run wraps, and the per-layer metrics
folded from the spans they record.

:data:`BOUNDARIES` lists every wrapped public callable as ``(layer,
label, owner, attribute, measure)``. The label names the span and is
what the coverage guard reports; the layer groups labels for self
time. :func:`install` patches them all for the duration of a ``with``
block. The executor boundary is special: ``MemberExecutor.map`` is
wrapped, and so is the ``fn`` of each task it is given, with the map's
span as the task span's parent even when the task runs on a worker
thread.

:data:`PER_LAYER` is the metric table ``BENCHMARK.json`` mirrors;
:func:`fold` computes it from the traced operations.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict

from repro.analysis.effects import EffectAnalysis
from repro.core import engine as engine_module
from repro.core import fixpoint
from repro.core.engine import IdlEngine
from repro.core.update_programs import UpdateExecutor
from repro.multidb import federation as federation_module
from repro.multidb import journal as journal_module
from repro.multidb.connectors import FaultyConnector, InMemoryConnector
from repro.multidb.executor import MemberExecutor, MemberTask
from repro.multidb.federation import Federation
from repro.multidb.journal import UpdateJournal
from repro.multidb.resilience import ResilientConnector

from perfbench.spans import Patches, self_times


def _facts(result):
    strata, _ = result
    return sum(fixpoint.count_overlay_facts(overlay)
               for _, _, overlay in strata)


def _rows(staged):
    return sum(len(rows) for rows in staged.values())


def body_bytes(line):
    """Bytes of a journal line's record body. The checksum envelope is
    left out: parallel applies journal member outcomes in the order they
    land, which pairs members with different sequence numbers from run
    to run and so changes the decimal width of their checksums."""
    return len(line.partition(',"rec":')[2]) - 1


BOUNDARIES = (
    ("parser", "engine.parse_program", engine_module, "parse_program", None),
    ("engine", "IdlEngine.query", IdlEngine, "query", None),
    ("engine", "IdlEngine.ask", IdlEngine, "ask", None),
    ("engine", "IdlEngine.update", IdlEngine, "update", None),
    ("federation", "Federation.query", Federation, "query", None),
    ("federation", "Federation.update", Federation, "update", None),
    ("federation", "Federation.call", Federation, "call", None),
    ("effects", "EffectAnalysis.query_footprint", EffectAnalysis,
     "query_footprint", None),
    ("effects", "EffectAnalysis.request_footprint", EffectAnalysis,
     "request_footprint", None),
    ("effects", "EffectAnalysis.program_footprint", EffectAnalysis,
     "program_footprint", None),
    ("fixpoint.materialize", "fixpoint.materialize_strata", fixpoint,
     "materialize_strata", _facts),
    ("fixpoint.maintain", "fixpoint.maintain_stratum", fixpoint,
     "maintain_stratum", None),
    ("evaluator", "engine.answers", engine_module, "answers", len),
    ("evaluator", "engine.holds", engine_module, "holds", None),
    ("update", "UpdateExecutor.execute_request", UpdateExecutor,
     "execute_request", None),
    ("staging", "federation.universe_rows", federation_module,
     "universe_rows", _rows),
    ("journal", "UpdateJournal.begin", UpdateJournal, "begin", None),
    ("journal", "UpdateJournal.record_member", UpdateJournal,
     "record_member", None),
    ("journal", "UpdateJournal.commit", UpdateJournal, "commit", None),
    ("journal", "journal.encode_record", journal_module, "encode_record",
     body_bytes),
    ("resilience", "ResilientConnector.scan", ResilientConnector, "scan",
     None),
    ("resilience", "ResilientConnector.apply", ResilientConnector, "apply",
     None),
    ("connector", "FaultyConnector.scan", FaultyConnector, "scan", None),
    ("connector", "FaultyConnector.apply", FaultyConnector, "apply", None),
    ("connector", "InMemoryConnector.scan", InMemoryConnector, "scan", None),
    ("connector", "InMemoryConnector.apply", InMemoryConnector, "apply",
     None),
)

MAP, TASK = "MemberExecutor.map", "MemberTask.fn"
OP_ROOT, SETUP_ROOT, CHECK_ROOT = "bench.op", "bench.setup", "bench.check"

LAYER_OF = {label: layer for layer, label, *_ in BOUNDARIES}
LAYER_OF.update({MAP: "executor", TASK: "executor", OP_ROOT: "bench"})

#: Every per-layer metric: (name, unit, better).
PER_LAYER = (
    ("parser.self_us_per_op", "us", "lower"),
    ("engine.self_us_per_op", "us", "lower"),
    ("federation.self_us_per_op", "us", "lower"),
    ("effects.self_us_per_op", "us", "lower"),
    ("prune.rules_used_ratio", "ratio", "lower"),
    ("fixpoint.materialize.self_ms_per_op", "ms", "lower"),
    ("fixpoint.materialize.calls_per_kop", "count", "lower"),
    ("fixpoint.materialize.facts_per_call", "count", "lower"),
    ("fixpoint.maintain.self_ms_per_update", "ms", "lower"),
    ("fixpoint.maintain.calls_per_update", "count", "lower"),
    ("fixpoint.maintain.repair_ratio", "ratio", "higher"),
    ("fixpoint.rebuild_after_update_ratio", "ratio", "lower"),
    ("evaluator.self_ms_per_query", "ms", "lower"),
    ("update.self_ms_per_update", "ms", "lower"),
    ("staging.self_ms_per_update", "ms", "lower"),
    ("staging.rows_per_update", "count", "lower"),
    ("journal.self_ms_per_update", "ms", "lower"),
    ("journal.bytes_per_update", "bytes", "lower"),
    ("journal.write_amplification", "ratio", "lower"),
    ("connector.self_ms_per_update", "ms", "lower"),
    ("connector.apply.calls_per_update", "count", "lower"),
    ("connector.apply.busy_ms_per_update", "ms", "lower"),
    ("connector.scan.busy_ms_setup", "ms", "lower"),
    ("resilience.self_us_per_call", "us", "lower"),
    ("executor.self_ms_per_update", "ms", "lower"),
    ("executor.map.wall_ms_per_update", "ms", "lower"),
    ("executor.queue_wait_ms_p50", "ms", "lower"),
    ("executor.parallelism", "ratio", "higher"),
    ("bench.self_us_per_op", "us", "lower"),
    ("bench.trace_overhead_pct", "%", "lower"),
)

#: Metrics that count work rather than time it: for one seed they must
#: repeat exactly from run to run.
COUNTS = (
    "fixpoint.materialize.calls_per_kop",
    "fixpoint.materialize.facts_per_call",
    "fixpoint.maintain.calls_per_update",
    "fixpoint.maintain.repair_ratio",
    "fixpoint.rebuild_after_update_ratio",
    "staging.rows_per_update",
    "journal.bytes_per_update",
    "journal.write_amplification",
    "connector.apply.calls_per_update",
    "prune.rules_used_ratio",
)


def install(recorder):
    """Patch every boundary to record into ``recorder``; use as a
    context manager, which restores the originals on exit."""
    patches = Patches()
    for _, label, owner, attr, measure in BOUNDARIES:
        patches.replace(owner, attr,
                        recorder.wrap(label, owner.__dict__[attr], measure))
    patches.replace(MemberExecutor, "map",
                    _traced_map(recorder, MemberExecutor.__dict__["map"]))
    return patches


def _traced_map(recorder, original):
    def map(self, tasks, label="scatter", fail_fast=False):
        span = recorder.open(MAP)

        def traced(fn):
            def run():
                task = recorder.open(TASK, parent=span)
                try:
                    value = fn()
                except BaseException:
                    recorder.close(task, ok=False)
                    raise
                recorder.close(task)
                return value
            return run

        try:
            result = original(
                self,
                [MemberTask(t.name, traced(t.fn), t.deadline, t.hedge)
                 for t in tasks],
                label, fail_fast,
            )
        except BaseException:
            recorder.close(span, ok=False)
            raise
        recorder.close(span)
        return result

    return map


def calls_by_label(roots):
    """How often each wrapped callable ran under ``roots``."""
    calls = Counter()
    for root in roots:
        for span in root.walk():
            calls[span.name] += 1
    return calls


def missing_callables(required, roots):
    calls = calls_by_label(roots)
    return [label for label in required if not calls[label]]


def _outermost(span, prefix):
    parent = span.parent
    return not (parent is not None and parent.name.startswith(prefix))


def fold(ops, setup_roots, prune_ratios, row_bytes, overhead_pct):
    """The per-layer metrics of one traced pass.

    ``ops`` is a list of ``(root span, op kind)``; ``setup_roots`` the spans
    recorded while building the workload; ``prune_ratios`` one
    rules-used share per query op; ``row_bytes`` the encoded size of
    each update's changed row. Returns ``(metrics, self_total,
    wall_total)``: the two totals must agree, since the fold splits
    every op's wall time among its spans.
    """
    n_ops = len(ops)
    n_updates = sum(1 for _, kind in ops if kind == "update")
    n_queries = n_ops - n_updates
    layer_self = defaultdict(float)
    calls = Counter()
    succeeded = Counter()
    values = defaultdict(float)
    busy = defaultdict(float)
    waits = []
    task_busy = map_wall = wall_total = 0.0
    for root, _ in ops:
        wall_total += root.duration
        for label, seconds in self_times(root).items():
            layer_self[LAYER_OF[label]] += seconds
        for span in root.walk():
            name = span.name
            calls[name] += 1
            succeeded[name] += span.ok
            if span.value is not None:
                values[name] += span.value
            if name.startswith(("FaultyConnector.", "InMemoryConnector.")) \
                    and _outermost(span, ("FaultyConnector.",
                                          "InMemoryConnector.")):
                kind = name.rsplit(".", 1)[1]
                busy[kind] += span.duration
                calls[f"connector.{kind}"] += 1
            elif name == TASK:
                waits.append(span.start - span.parent.start)
                task_busy += span.duration
            elif name == MAP:
                map_wall += span.duration
    setup_scan = sum(
        span.duration
        for root in setup_roots for span in root.walk()
        if span.name in ("FaultyConnector.scan", "InMemoryConnector.scan")
        and _outermost(span, ("FaultyConnector.", "InMemoryConnector."))
    )

    def per(total, count, scale=1.0):
        return total * scale / count if count else 0.0

    materialize = "fixpoint.materialize_strata"
    maintain = "fixpoint.maintain_stratum"
    journal_bytes = values["journal.encode_record"]
    resilience_calls = (calls["ResilientConnector.scan"]
                        + calls["ResilientConnector.apply"])
    metrics = {
        "parser.self_us_per_op": per(layer_self["parser"], n_ops, 1e6),
        "engine.self_us_per_op": per(layer_self["engine"], n_ops, 1e6),
        "federation.self_us_per_op": per(layer_self["federation"], n_ops,
                                         1e6),
        "effects.self_us_per_op": per(layer_self["effects"], n_ops, 1e6),
        "prune.rules_used_ratio": (statistics.fmean(prune_ratios)
                                   if prune_ratios else 0.0),
        "fixpoint.materialize.self_ms_per_op": per(
            layer_self["fixpoint.materialize"], n_ops, 1e3),
        "fixpoint.materialize.calls_per_kop": per(calls[materialize], n_ops,
                                                  1e3),
        "fixpoint.materialize.facts_per_call": per(values[materialize],
                                                   succeeded[materialize]),
        "fixpoint.maintain.self_ms_per_update": per(
            layer_self["fixpoint.maintain"], n_updates, 1e3),
        "fixpoint.maintain.calls_per_update": per(calls[maintain],
                                                  n_updates),
        "fixpoint.maintain.repair_ratio": per(succeeded[maintain],
                                              calls[maintain]),
        "fixpoint.rebuild_after_update_ratio": per(calls[materialize],
                                                   n_updates),
        "evaluator.self_ms_per_query": per(layer_self["evaluator"],
                                           n_queries, 1e3),
        "update.self_ms_per_update": per(layer_self["update"], n_updates,
                                         1e3),
        "staging.self_ms_per_update": per(layer_self["staging"], n_updates,
                                          1e3),
        "staging.rows_per_update": per(values["federation.universe_rows"],
                                       n_updates),
        "journal.self_ms_per_update": per(layer_self["journal"], n_updates,
                                          1e3),
        "journal.bytes_per_update": per(journal_bytes, n_updates),
        "journal.write_amplification": per(journal_bytes, sum(row_bytes)),
        "connector.self_ms_per_update": per(layer_self["connector"],
                                            n_updates, 1e3),
        "connector.apply.calls_per_update": per(calls["connector.apply"],
                                                n_updates),
        "connector.apply.busy_ms_per_update": per(busy["apply"], n_updates,
                                                  1e3),
        "connector.scan.busy_ms_setup": setup_scan * 1e3,
        "resilience.self_us_per_call": per(layer_self["resilience"],
                                           resilience_calls, 1e6),
        "executor.self_ms_per_update": per(layer_self["executor"],
                                           n_updates, 1e3),
        "executor.map.wall_ms_per_update": per(map_wall, n_updates, 1e3),
        "executor.queue_wait_ms_p50": (statistics.median(waits) * 1e3
                                       if waits else 0.0),
        "executor.parallelism": per(task_busy, map_wall),
        "bench.self_us_per_op": per(layer_self["bench"], n_ops, 1e6),
        "bench.trace_overhead_pct": overhead_pct,
    }
    return metrics, sum(layer_self.values()), wall_total
