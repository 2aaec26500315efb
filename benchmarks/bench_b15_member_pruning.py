"""B15 — static member pruning on the federation query path.

Question: the effect analysis (``src/repro/analysis/effects.py``) closes
a query over the view rules it can actually reach, and the engine
materializes only those rules (``FederationConfig(prune="on")``, the
default). On a 16-member federation, what does that save a query that
touches one member — and what does the analysis cost a query that
genuinely needs every member?

Guard tests (run by the CI bench-smoke job):

* a single-member query is >= 2x faster with pruning than without at
  16 members (it skips the other 15 members' share of the fixpoint);
* the unified-view query — where nothing can be pruned and the
  analysis is pure overhead — costs < 5% extra (plus a small absolute
  epsilon for timer jitter).
"""

from __future__ import annotations

import time

from repro.bench import Experiment
from repro.multidb import Federation, FederationConfig, InMemoryConnector
from repro.workloads.stocks import StockWorkload

N_MEMBERS = 16
N_STOCKS, N_DAYS = 6, 8
ROUNDS = 8
STYLES = ("euter", "chwab", "ource")

#: Absolute slack (seconds) absorbing timer jitter on the overhead
#: check — the unified totals are ~200ms, so run-to-run noise of a few
#: percent needs an absolute floor on top of the 5% ratio.
JITTER = 0.025


def build_federation(prune, seed=1991):
    """16 members cycling the three schematic styles."""
    workload = StockWorkload(n_stocks=N_STOCKS, n_days=N_DAYS, seed=seed)
    federation = Federation.from_config(FederationConfig(prune=prune))
    for index in range(N_MEMBERS):
        style = STYLES[index % len(STYLES)]
        federation.add_member(
            f"m{index:02d}", style,
            connector=InMemoryConnector(workload.relations_for(style)),
        )
    federation.install()
    return federation, workload


MEMBER = "m03"  # euter-style: relation r(stkCode, date, clsPrice)


def queries(workload):
    symbol = workload.symbols[0]
    member = f"?.{MEMBER}.r(.stkCode={symbol}, .date=D, .clsPrice=P)"
    unified = "?.dbI.p(.date=D, .stk=S, .price=P)"
    return member, unified


def measure():
    """Cold-cache query time per (mode, query) over ``ROUNDS`` rounds.

    Each timed query runs against an invalidated engine, so the cost
    includes the materialization the query forces — that is exactly
    what pruning avoids. Modes are interleaved within one loop so
    machine drift is shared instead of being attributed to whichever
    mode runs last.
    """
    modes = {}
    for prune in ("on", "off"):
        federation, workload = build_federation(prune)
        modes[prune] = federation
    member_q, unified_q = queries(workload)
    for federation in modes.values():  # warm every pipeline once
        federation.query(member_q)
        federation.query(unified_q)
    totals = {(prune, kind): 0.0
              for prune in modes for kind in ("member", "unified")}
    for _ in range(ROUNDS):
        for prune, federation in modes.items():
            for kind, source in (("member", member_q),
                                 ("unified", unified_q)):
                federation.engine.invalidate()
                start = time.perf_counter()
                federation.query(source)
                totals[(prune, kind)] += time.perf_counter() - start
    return totals


def test_b15_member_pruning(benchmark):
    totals = benchmark.pedantic(measure, rounds=1, iterations=1)
    experiment = Experiment(
        "B15",
        "static member pruning on a 16-member federation",
        "the inferred read set lets a single-member query skip the "
        "other members' share of the fixpoint; a query that needs "
        "everyone must not pay for the analysis",
    )
    for kind in ("member", "unified"):
        on, off = totals[("on", kind)], totals[("off", kind)]
        experiment.add_row(
            query=kind,
            prune_on_ms=on * 1000 / ROUNDS,
            prune_off_ms=off * 1000 / ROUNDS,
            speedup=f"{off / on:.2f}x" if on > 0 else "n/a",
        )
    fast = experiment.check(
        totals[("off", "member")] >= 2.0 * totals[("on", "member")],
        "single-member query is >= 2x faster with pruning at 16 members",
    )
    cheap = experiment.check(
        totals[("on", "unified")]
        <= totals[("off", "unified")] * 1.05 + JITTER,
        "unpruneable unified query pays < 5% for the analysis",
    )
    experiment.report()
    assert fast and cheap


def test_b15_single_member_query_latency(benchmark):
    federation, workload = build_federation("on")
    member_q, _ = queries(workload)

    def cold_query():
        federation.engine.invalidate()
        federation.query(member_q)

    benchmark(cold_query)
