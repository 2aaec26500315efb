"""B12 — update throughput under injected transient connector faults.

How much does the resilience layer cost when nothing fails, and how
gracefully does throughput degrade when the member connector fails 5%
or 20% of the time? Faults are injected with a seeded RNG and all
backoff waits run on a FakeClock, so runs are deterministic and never
actually sleep.

Quick mode (default) benchmarks one flaky member; the ``slow``-marked
variants scale members and volume — deselect them with ``-m "not
slow"`` to keep a CI pass fast.
"""

from __future__ import annotations

import pytest

from repro.multidb import (
    FakeClock,
    FaultyConnector,
    Federation,
    InMemoryConnector,
    ResiliencePolicy,
)
from repro.workloads.stocks import StockWorkload

FAILURE_RATES = (0.0, 0.05, 0.20)
SEED = 13


def build_federation(rate, n_members=1, n_stocks=4, n_days=3):
    """A federation whose euter-style members sit behind flaky
    connectors failing ``rate`` of operations (transiently)."""
    workload = StockWorkload(n_stocks=n_stocks, n_days=n_days, seed=SEED)
    clock = FakeClock()
    federation = Federation()
    for index in range(n_members):
        connector = FaultyConnector(
            InMemoryConnector(workload.euter_relations()),
            failure_rate=rate,
            seed=SEED + index,
        )
        # Attempts sized so a whole-operation failure is vanishingly
        # unlikely (0.2**12); the breaker never opens mid-benchmark.
        policy = ResiliencePolicy(
            max_attempts=12, base_delay=0.001, jitter=0.0,
            failure_threshold=10_000, seed=SEED,
        )
        federation.add_member(f"m{index}", "euter", connector=connector,
                              policy=policy, clock=clock)
    federation.add_member("ource", "ource", workload.ource_relations())
    federation.install()
    return federation


def churn_one_quote(federation):
    """One write round-trip: insert a quote, then delete it again (the
    working set stays constant across benchmark iterations)."""
    federation.insert_quote("bmrk", "9/9/99", 1.0)
    federation.delete_quote("bmrk", "9/9/99")


@pytest.mark.parametrize("rate", FAILURE_RATES)
def test_update_throughput_under_faults(benchmark, rate):
    federation = build_federation(rate)
    benchmark(churn_one_quote, federation)
    health = federation.connectors["m0"].health
    assert health.successes > 0
    if rate == 0.0:
        assert health.retries == 0


@pytest.mark.parametrize("rate", FAILURE_RATES)
def test_partial_query_overhead_under_faults(benchmark, rate):
    federation = build_federation(rate)
    result = benchmark(
        federation.query, "?.dbI.p(.date=D, .stk=S, .price=P)",
        on_unavailable="partial",
    )
    assert result and result.complete


@pytest.mark.slow
@pytest.mark.parametrize("rate", FAILURE_RATES)
def test_update_throughput_under_faults_scaled(benchmark, rate):
    federation = build_federation(rate, n_members=4, n_stocks=8, n_days=5)
    benchmark(churn_one_quote, federation)
    assert all(
        federation.connectors[f"m{i}"].health.successes > 0 for i in range(4)
    )
