"""A write the policy rejects is rolled back before any view is
maintained, so the live view cache survives it."""

from __future__ import annotations

import pytest

from repro import IdlEngine
from repro.errors import AuthorizationError
from repro.multidb.authz import AccessPolicy, AuthorizedSession
from repro.obs import Observability
from repro.workloads.stocks import paper_universe
from tests.conftest import UNIFIED_VIEW_RULES, answers_set

QUOTES = "?.dbI.p(.date=D, .stk=S, .price=P)"


def build():
    obs = Observability(enabled=False)  # metrics stay on regardless
    engine = IdlEngine(universe=paper_universe(), obs=obs)
    engine.define(UNIFIED_VIEW_RULES)
    engine.materialized_view()
    policy = AccessPolicy()
    policy.grant("quant", "euter", actions=("read", "write"))
    return engine, obs, AuthorizedSession(engine, "quant", policy)


def test_rejected_write_keeps_the_view_cache():
    engine, obs, session = build()
    overlay = engine.overlay
    quotes = answers_set(engine.query(QUOTES), "D", "S", "P")
    runs = obs.metrics.counter_value("fixpoint.runs")
    maintained = obs.metrics.counter_value("fixpoint.maintain.runs")

    with pytest.raises(AuthorizationError):
        session.update("?.euter.r+(.date=9/9/99, .stkCode=hp, "
                       ".clsPrice=1), .chwab.r+(.date=9/9/99, .hp=1)")

    assert engine.overlay is overlay
    assert answers_set(engine.query(QUOTES), "D", "S", "P") == quotes
    assert not engine.ask("?.euter.r(.date=9/9/99)")
    assert obs.metrics.counter_value("fixpoint.runs") == runs
    assert obs.metrics.counter_value("fixpoint.maintain.runs") == maintained


def test_granted_write_is_maintained_in_place():
    engine, obs, session = build()
    overlay = engine.overlay
    runs = obs.metrics.counter_value("fixpoint.runs")
    session.update("?.euter.r+(.date=9/9/99, .stkCode=hp, .clsPrice=1)")
    assert engine.overlay is overlay
    assert engine.ask("?.dbI.p(.date=9/9/99, .stk=hp, .price=1)")
    assert obs.metrics.counter_value("fixpoint.runs") == runs
