"""B17 — incremental view maintenance vs full re-materialization.

Question: after a point update, the engine repairs the dirty view
strata in place — a non-recursive stratum (the join) by counting
derivations, a recursive one (the closure) by seeding one semi-naive
delta round for insertions and running DRed (over-delete, then
re-derive) for deletions — instead of rebuilding them.
What does that save across update shapes (point insert, point delete,
a 16-update batch), view shapes (a non-recursive join, a recursive
closure) and base sizes — and what does the capture/planning machinery
cost a workload whose every update falls back to the rebuild?

Guard tests (run by the CI bench-smoke job):

* a point insert into the non-recursive join view is >= 5x faster with
  in-place repair than with a forced full rebuild at the largest size;
* point updates on every other (view, op) pair still beat the rebuild
  (>= 1.5x — closure deletes pay DRed's re-derivation scans against
  the whole closure; join deletes are counted, with no re-derivation);
* an always-fallback workload (negation over the changed relation)
  pays < 5% for delta capture and repair planning (plus a small
  absolute epsilon for timer jitter);
* the repaired engine answers exactly like the rebuilt one.

The run also writes ``BENCH_b17.json`` (rows + check outcomes) for the
CI artifact.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from pathlib import Path

from repro.bench import Experiment
from repro.core.engine import IdlEngine

JOIN_SIZES = (250, 1000, 2500)
TC_CHAINS = (25, 50, 100)
POINT_OPS = 4
BATCH_OPS = 16
FALLBACK_ROUNDS = 12

#: Absolute slack (seconds) absorbing timer jitter on the overhead
#: check — run-to-run noise of a few percent needs an absolute floor
#: on top of the 5% ratio.
JITTER = 0.025

ARTIFACT = Path("BENCH_b17.json")


def build_join(n, maintain=True):
    """Non-recursive join view over an n-row relation."""
    engine = IdlEngine(maintain=maintain)
    engine.add_database("a", {"r": [{"x": i, "k": i % 20} for i in range(n)]})
    engine.add_database("b", {"s": [{"k": k, "y": k * 10} for k in range(20)]})
    engine.define(".v.j(.x=X, .y=Y) <- .a.r(.x=X, .k=K), .b.s(.k=K, .y=Y)")
    engine.materialized_view()
    return engine


def build_tc(chains, maintain=True):
    """Recursive closure over ``chains`` disjoint 4-edge chains (point
    deletes then cascade over one chain, not the whole graph)."""
    engine = IdlEngine(maintain=maintain)
    edges = []
    for chain in range(chains):
        base = chain * 10
        edges.extend(
            {"a": base + i, "b": base + i + 1} for i in range(4)
        )
    engine.add_database("g", {"edge": edges})
    engine.define(".g.tc(.a=X, .b=Y) <- .g.edge(.a=X, .b=Y)")
    engine.define(
        ".g.tc(.a=X, .b=Y) <- .g.tc(.a=X, .b=Z), .g.edge(.a=Z, .b=Y)"
    )
    engine.materialized_view()
    return engine


def join_requests(kind, count):
    if kind == "insert":
        return [f"?.a.r+(.x=n{i}, .k={i % 20})" for i in range(count)]
    return [f"?.a.r-(.x={i}, .k={i % 20})" for i in range(count)]


def tc_requests(kind, count):
    if kind == "insert":
        return [f"?.g.edge+(.a=p{i}, .b=q{i})" for i in range(count)]
    return [f"?.g.edge-(.a={i * 10}, .b={i * 10 + 1})" for i in range(count)]


def run_updates(engine, requests, force_rebuild):
    """Total seconds for the update schedule, re-querying the view
    after every request (the repair path does its work inside
    ``update``; the rebuild path pays in ``materialized_view``)."""
    start = time.perf_counter()
    for request in requests:
        engine.update(request)
        if force_rebuild:
            engine.invalidate()
        engine.materialized_view()
    return time.perf_counter() - start


VIEWS = (
    ("join", build_join, JOIN_SIZES, join_requests,
     "?.v.j(.x=X, .y=Y)"),
    ("closure", build_tc, TC_CHAINS, tc_requests,
     "?.g.tc(.a=X, .b=Y)"),
)


def measure():
    timings = {}
    consistent = True
    for label, builder, sizes, requests_for, probe in VIEWS:
        for size in sizes:
            for kind in ("insert", "delete"):
                requests = requests_for(kind, POINT_OPS)
                repaired = builder(size)
                rebuilt = builder(size, maintain=False)
                timings[(label, size, kind, "repair")] = run_updates(
                    repaired, requests, force_rebuild=False
                )
                timings[(label, size, kind, "rebuild")] = run_updates(
                    rebuilt, requests, force_rebuild=True
                )
                lhs = {tuple(sorted(a.items()))
                       for a in repaired.query(probe)}
                rhs = {tuple(sorted(a.items()))
                       for a in rebuilt.query(probe)}
                consistent = consistent and lhs == rhs
    # Batch: many inserts, one final re-query for the rebuild path.
    size = JOIN_SIZES[-1]
    requests = join_requests("insert", BATCH_OPS)
    timings[("join", size, "batch", "repair")] = run_updates(
        build_join(size), requests, force_rebuild=False
    )
    rebuilt = build_join(size, maintain=False)
    start = time.perf_counter()
    for request in requests:
        rebuilt.update(request)
    rebuilt.invalidate()
    rebuilt.materialized_view()
    timings[("join", size, "batch", "rebuild")] = (
        time.perf_counter() - start
    )
    return timings, consistent, measure_fallback()


def measure_fallback():
    """Update latency when every repair is refused (negation over the
    changed relation): maintain=True pays capture + planning and then
    rebuilds anyway — that overhead must stay marginal."""

    def build(maintain):
        engine = IdlEngine(maintain=maintain)
        engine.add_database("a", {"r": [{"x": i} for i in range(200)]})
        engine.add_database("b", {"z": [{"y": 999}]})
        engine.define(".v.p(.x=X) <- .a.r(.x=X), .b.z~(.y=X)")
        engine.materialized_view()
        return engine

    gc.collect()  # don't let earlier scenarios' garbage land mid-loop
    engines = {True: build(True), False: build(False)}
    for maintain, engine in engines.items():  # warm both pipelines once
        engine.update("?.b.z+(.y=warm)")
        engine.materialized_view()
    rounds = {True: [], False: []}
    for index in range(FALLBACK_ROUNDS):
        for maintain, engine in engines.items():  # interleave the modes
            start = time.perf_counter()
            engine.update(f"?.b.z+(.y=f{index})")
            engine.materialized_view()
            rounds[maintain].append(time.perf_counter() - start)
    # Medians: one allocator/GC hiccup must not decide the check.
    return {maintain: statistics.median(times) * FALLBACK_ROUNDS
            for maintain, times in rounds.items()}


def test_b17_incremental_maintenance(benchmark):
    timings, consistent, fallback = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    experiment = Experiment(
        "B17",
        "incremental view maintenance vs full re-materialization",
        "a point update repairs only the dirty strata from its concrete "
        "delta; the rebuild's cost scales with the whole view instead",
    )
    for (label, size, kind, mode) in sorted(timings):
        if mode != "repair":
            continue
        repair = timings[(label, size, kind, "repair")]
        rebuild = timings[(label, size, kind, "rebuild")]
        experiment.add_row(
            view=label, size=size, op=kind,
            repair_ms=round(repair * 1000, 1),
            rebuild_ms=round(rebuild * 1000, 1),
            speedup=f"{rebuild / repair:.1f}x" if repair > 0 else "n/a",
        )
    checks = []
    headline = experiment.check(
        timings[("join", JOIN_SIZES[-1], "insert", "rebuild")]
        >= 5.0 * timings[("join", JOIN_SIZES[-1], "insert", "repair")],
        "point insert into the join view repairs >= 5x faster than "
        "the rebuild at the largest size",
    )
    checks.append(headline)
    for label, _, sizes, _, _ in VIEWS:
        for kind in ("insert", "delete"):
            checks.append(experiment.check(
                timings[(label, sizes[-1], kind, "rebuild")]
                >= 1.5 * timings[(label, sizes[-1], kind, "repair")],
                f"{label} point {kind} beats the rebuild (>= 1.5x) at "
                f"the largest size",
            ))
    experiment.add_row(
        view="fallback", op="insert",
        repair_ms=round(fallback[True] * 1000, 1),
        rebuild_ms=round(fallback[False] * 1000, 1),
    )
    checks.append(experiment.check(
        fallback[True] <= fallback[False] * 1.05 + JITTER,
        "always-fallback workload pays < 5% for capture + planning",
    ))
    checks.append(experiment.check(
        consistent, "repaired views answer exactly like rebuilt ones"
    ))
    experiment.report()
    ARTIFACT.write_text(json.dumps({
        "experiment": "B17",
        "rows": experiment.rows,
        "passed": all(checks),
    }, indent=2, default=str))
    assert all(checks)
