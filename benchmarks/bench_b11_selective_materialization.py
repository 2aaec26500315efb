"""B11 — selective re-materialization vs full rebuild.

Question: after a base update, the engine rebuilds only the view strata
whose inputs were touched. How much does that save in a federation with
several independent member/view families, as the untouched fraction
grows?
"""

from __future__ import annotations

import pytest

from repro.bench import Experiment, time_call
from repro.core.engine import IdlEngine
from repro.workloads.stocks import StockWorkload

FAMILY_COUNTS = (2, 4, 8)


def build(n_families, n_stocks=6, n_days=6, maintain=True):
    """n_families independent (member, view) pairs on one engine."""
    workload = StockWorkload(n_stocks=n_stocks, n_days=n_days, seed=21)
    engine = IdlEngine(maintain=maintain)
    for index in range(n_families):
        member = f"m{index}"
        engine.add_database(member, workload.euter_relations())
        engine.define(
            f".v{index}.p(.date=D, .stk=S, .price=P) <- "
            f".{member}.r(.date=D, .stkCode=S, .clsPrice=P)"
        )
    engine.materialized_view()
    return engine


@pytest.mark.parametrize("selective", (True, False))
def test_update_then_query(benchmark, selective):
    engine = build(4)
    counter = [0]

    def step():
        counter[0] += 1
        engine.update(f"?.m0.r+(.date=z{counter[0]}, .stkCode=hp, .clsPrice=1)")
        if not selective:
            engine.invalidate()
        engine.materialized_view()

    benchmark(step)


def test_b11_scaling_table(benchmark):
    def measure():
        rows = []
        for n_families in FAMILY_COUNTS:
            # Selective rebuild, not in-place repair, is what this table
            # measures: a dirty stratum is dropped and rebuilt.
            engine = build(n_families, maintain=False)
            counter = [0]

            def selective_step():
                counter[0] += 1
                engine.update(
                    f"?.m0.r+(.date=s{counter[0]}, .stkCode=hp, .clsPrice=1)"
                )
                engine.materialized_view()

            def full_step():
                counter[0] += 1
                engine.update(
                    f"?.m0.r+(.date=f{counter[0]}, .stkCode=hp, .clsPrice=1)"
                )
                engine.invalidate()
                engine.materialized_view()

            selective_s, _ = time_call(selective_step, repeat=3)
            # reused_strata accumulates over the live materialization's
            # runs, so read what one more step adds.
            before = engine.fixpoint_stats.reused_strata
            selective_step()
            reused = engine.fixpoint_stats.reused_strata - before
            full_s, _ = time_call(full_step, repeat=3)
            rows.append(
                {
                    "view_families": n_families,
                    "full_rebuild_ms": full_s * 1000,
                    "selective_ms": selective_s * 1000,
                    "speedup": full_s / selective_s if selective_s else float("inf"),
                    "strata_reused": reused,
                }
            )
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    experiment = Experiment(
        "B11",
        "re-materialization after one base insert (6 stocks x 6 days/family)",
        "only strata reading the touched (db, rel) rebuild; the saving "
        "grows with the untouched fraction of the view set",
    )
    for row in rows:
        experiment.add_row(**row)
    experiment.report()
    assert all(row["strata_reused"] == row["view_families"] - 1 for row in rows)
    assert rows[-1]["speedup"] > 1.0
