"""Shared fixtures: the paper's stock universe and configured engines."""

from __future__ import annotations

import os

import pytest

from repro import IdlEngine
from repro.workloads.stocks import StockWorkload, paper_universe

UNIFIED_VIEW_RULES = """
.dbI.p(.date=D, .stk=S, .price=P) <- .euter.r(.date=D, .stkCode=S, .clsPrice=P)
.dbI.p(.date=D, .stk=S, .price=P) <- .chwab.r(.date=D, .S=P), S != date
.dbI.p(.date=D, .stk=S, .price=P) <- .ource.S(.date=D, .clsPrice=P)
"""

CUSTOMIZED_VIEW_RULES = """
.dbE.r(.date=D, .stkCode=S, .clsPrice=P) <- .dbI.p(.date=D, .stk=S, .price=P)
.dbO.S(.date=D, .clsPrice=P) <- .dbI.p(.date=D, .stk=S, .price=P)
"""

DBC_VIEW_RULE = ".dbC.r(.date=D, .S=P) <- .dbI.p(.date=D, .stk=S, .price=P)"

UPDATE_PROGRAMS = """
.dbU.delStk(.stk=S, .date=D) -> .euter.r-(.stkCode=S, .date=D)
.dbU.delStk(.stk=S, .date=D) -> .chwab.r(.S-=X, .date=D)
.dbU.delStk(.stk=S, .date=D) -> .ource.S-(.date=D)
.dbU.rmStk(.stk=S) -> .euter.r-(.stkCode=S)
.dbU.rmStk(.stk=S) -> .chwab.r(-.S)
.dbU.rmStk(.stk=S) -> .ource-.S
.dbU.insStk(.stk=S, .date=D, .price=P) -> .euter.r+(.date=D, .stkCode=S, .clsPrice=P)
.dbU.insStk(.stk=S, .date=D, .price=P) -> .chwab.r(.date=D, +.S=P)
.dbU.insStk(.stk=S, .date=D, .price=P) -> ~.chwab.r(.date=D), .chwab.r+(.date=D, .S=P)
.dbU.insStk(.stk=S, .date=D, .price=P) -> .ource.S+(.date=D, .clsPrice=P)
.dbU.insStk(.stk=S, .date=D, .price=P) -> ~.ource.S, .ource+.S(.date=D, .clsPrice=P)
"""

VIEW_UPDATE_PROGRAMS = """
.dbE.r+(.date=D, .stkCode=S, .clsPrice=P) -> .dbU.insStk(.stk=S, .date=D, .price=P)
.dbE.r-(.date=D, .stkCode=S) -> .dbU.delStk(.stk=S, .date=D)
.dbO.S+(.date=D, .clsPrice=P) -> .dbU.insStk(.stk=S, .date=D, .price=P)
.dbO.S-(.date=D) -> .dbU.delStk(.stk=S, .date=D)
"""


@pytest.fixture
def universe():
    """The paper's tiny hand-written universe (two stocks, two days)."""
    return paper_universe()


@pytest.fixture
def engine(universe):
    """An engine over the paper universe, no program loaded."""
    return IdlEngine(universe=universe)


@pytest.fixture
def unified_engine(universe):
    """Engine with the Figure 1 two-level mapping installed."""
    built = IdlEngine(universe=universe)
    built.universe.add_database("dbU")
    built.define(UNIFIED_VIEW_RULES)
    built.define(CUSTOMIZED_VIEW_RULES)
    built.define(DBC_VIEW_RULE, merge_on=("date",))
    built.define_update(UPDATE_PROGRAMS)
    built.define_update(VIEW_UPDATE_PROGRAMS)
    return built


@pytest.fixture
def workload():
    """A small seeded stock workload (5 stocks, 4 days)."""
    return StockWorkload(n_stocks=5, n_days=4, seed=42)


def answers_set(results, *names):
    """Render engine answers as a set of tuples for order-free asserts."""
    if len(names) == 1:
        return {answer[names[0]] for answer in results}
    return {tuple(answer[name] for name in names) for answer in results}


_TESTS_DIR = os.path.dirname(os.path.abspath(__file__))


def pytest_collection_modifyitems(config, items):
    """A bare run leaves out this directory's ``slow`` tests (the full
    crash-explorer product); any ``-m`` expression (``-m slow``,
    ``-m chaos``) decides for itself."""
    if config.option.markexpr:
        return
    slow = [
        item for item in items
        if "slow" in item.keywords
        and os.path.abspath(str(item.fspath)).startswith(_TESTS_DIR)
    ]
    if slow:
        config.hook.pytest_deselected(items=slow)
        items[:] = [item for item in items if item not in slow]
