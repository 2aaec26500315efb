"""The update transaction's undo log.

``IdlEngine.update`` keeps no snapshot of the universe: the request's
change log (:class:`~repro.core.updates.UpdateDelta`) is replayed in
reverse when an atomic request fails. These tests pin down what that
replay must restore — every row, its iteration order, the value keys of
every set, and the live view cache — including when an in-place edit
collapses two elements into one.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import IdlEngine
from repro.errors import UpdateError
from repro.objects import to_python
from repro.obs import Observability
from repro.workloads.stocks import StockWorkload

FAIL = ".euter.r+=5"  # an atomic plus on a set: fails at run time


def assert_keys_match_values(obj):
    """Every set in ``obj`` stores each element under its current value."""
    if obj.is_set:
        for element in obj:
            assert obj.lookup(element.value_key()) is element
            assert_keys_match_values(element)
    elif obj.is_tuple:
        for name in obj.attr_names():
            assert_keys_match_values(obj.get(name))


def fixpoint_runs(engine):
    return engine.obs.metrics.counter_value("fixpoint.runs")


def view_keys(engine):
    return sorted(answer["K"] for answer in engine.query("?.w.p(.k=K)"))


class TestValueCollapse:
    @pytest.fixture
    def engine(self):
        built = IdlEngine()
        built.add_database("d", {"r": [{"k": 1, "v": 1}, {"k": 2, "v": 1}]})
        built.define(".w.p(.k=K) <- .d.r(.k=K)")
        assert view_keys(built) == [1, 2]
        return built

    def test_rollback_restores_the_displaced_row(self, engine):
        before = to_python(engine.universe)
        with pytest.raises(UpdateError):
            # (k=2, v=1) becomes (k=1, v=1) and displaces the row that
            # already held that value; then the request fails.
            engine.update("?.d.r(.k=2, .k+=1), .d.r+=5")
        assert to_python(engine.universe) == before
        assert_keys_match_values(engine.universe)
        assert view_keys(engine) == [1, 2]

    def test_collapse_is_one_net_delete(self, engine):
        result = engine.update("?.d.r(.k=2, .k+=1)")
        assert to_python(engine.universe.relation("d", "r")) == [
            {"k": 1, "v": 1}
        ]
        assert_keys_match_values(engine.universe)
        inserts, deletes, symbolic = result.delta.fold()
        assert inserts == {} and symbolic == set()
        [(path, lost)] = deletes.items()
        assert path == ("d", "r")
        assert [element.to_python() for element in lost.values()] == [
            {"k": 2, "v": 1}
        ]
        assert view_keys(engine) == [1]

    def test_nested_collapse_rolls_back(self):
        # Collapses inside each group, then between the groups (see
        # test_updates_internals::test_update_inside_nested_set).
        engine = IdlEngine()
        engine.add_database("d", {"r": [[{"x": 1}, {"x": 2}], [{"x": 3}]]})
        before = to_python(engine.universe)
        with pytest.raises(UpdateError):
            engine.update("?.d.r((.x-=C)), .d.r+=5")
        assert to_python(engine.universe) == before
        assert_keys_match_values(engine.universe)


class TestInterruptedEdit:
    """An error in the middle of an element's in-place edit, before the
    element is re-keyed in its set."""

    REQUEST = "?.d.r(.k=1, .k+=5, .v(+.z=1))"  # the second edit fails

    @pytest.fixture
    def engine(self):
        built = IdlEngine()
        built.add_database("d", {"r": [{"k": 1, "v": 10}, {"k": 2, "v": 20}]})
        return built

    def test_atomic_undoes_inside_the_element(self, engine):
        before = to_python(engine.universe)
        with pytest.raises(UpdateError):
            engine.update(self.REQUEST)
        assert to_python(engine.universe) == before
        assert_keys_match_values(engine.universe)

    def test_non_atomic_keeps_the_edit_and_rekeys(self, engine):
        with pytest.raises(UpdateError):
            engine.update(self.REQUEST, atomic=False)
        assert to_python(engine.universe.relation("d", "r")) == [
            {"k": 5, "v": 10}, {"k": 2, "v": 20}
        ]
        assert_keys_match_values(engine.universe)
        assert engine.ask("?.d.r(.k=5)")


class TestRollbackKeepsLiveViews:
    def test_failed_update_rematerializes_nothing(self):
        engine = IdlEngine(obs=Observability())
        engine.add_database("d", {"r": [{"k": 1, "v": 10}, {"k": 2, "v": 20}]})
        engine.define(".w.p(.k=K) <- .d.r(.k=K)")
        engine.define(".w.q(.k=K) <- .w.p(.k=K), .d.r(.k=K, .v=20)")
        before = to_python(engine.universe)
        answers = engine.query("?.w.q(.k=K)")
        runs = fixpoint_runs(engine)
        overlay = engine.overlay
        with pytest.raises(UpdateError):
            engine.update("?.d.r-(.k=2), .d.r+(.k=3, .v=20), .d.r+=5")
        assert fixpoint_runs(engine) == runs
        assert engine.overlay is overlay
        assert engine.query("?.w.q(.k=K)") == answers
        assert fixpoint_runs(engine) == runs  # the query rebuilt nothing
        assert to_python(engine.universe) == before


# -- property: a failing request leaves the universe exactly as it was -------

WORKLOAD = StockWorkload(n_stocks=3, n_days=3, seed=2)
STOCKS = WORKLOAD.symbols
DATES = WORKLOAD.days

UNIFIED = (
    ".u.p(.date=D, .stk=S, .price=P) <- "
    ".euter.r(.date=D, .stkCode=S, .clsPrice=P)",
    ".u.p(.date=D, .stk=S, .price=P) <- .chwab.r(.date=D, .S=P), S != date",
    ".u.p(.date=D, .stk=S, .price=P) <- .ource.S(.date=D, .clsPrice=P)",
)

stock = st.sampled_from(list(STOCKS) + ["zz"])
day = st.sampled_from(list(DATES) + ["9/9/99"])
price = st.integers(min_value=1, max_value=3)

requests = st.one_of(
    # Row inserts and deletes.
    st.builds(".euter.r+(.date='{}', .stkCode='{}', .clsPrice={})".format,
              day, stock, price),
    st.builds(".euter.r-(.stkCode='{}')".format, stock),
    st.builds(".ource.{}-(.date='{}')".format, stock, day),
    # chwab in-place edits of a date row.
    st.builds(".chwab.r(.date='{}', .{}+={})".format, day, stock, price),
    st.builds(".chwab.r(.{}-=X, .date='{}')".format, stock, day),
    # In-place edits that collapse rows: every row of a stock into one,
    # or one row onto a row that may already hold its new value.
    st.builds(".euter.r(.stkCode='{}', .clsPrice+={}, .date+='{}')".format,
              stock, price, day),
    st.builds(".euter.r(.stkCode='{}', .date='{}', .date+='{}', "
              ".clsPrice+={})".format, stock, day, day, price),
    # A new (or replaced) relation by tuple plus; tuple minus.
    st.builds(".ource+.{}(.date='{}', .clsPrice={})".format,
              stock, day, price),
    st.builds(".ource-.{}".format, stock),
    st.builds(".chwab.r(-.{})".format, stock),
)


def stock_engine():
    engine = IdlEngine(obs=Observability())
    for style in ("euter", "chwab", "ource"):
        engine.add_database(style, WORKLOAD.relations_for(style))
    for rule in UNIFIED:
        engine.define(rule)
    engine.materialized_view()  # every SCC live
    return engine


def unified(engine):
    return sorted(
        (answer["D"], answer["S"], answer["P"])
        for answer in engine.query("?.u.p(.date=D, .stk=S, .price=P)")
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(requests, min_size=1, max_size=4))
def test_failing_request_restores_the_universe(schedule):
    engine = stock_engine()
    for request in schedule:
        before = to_python(engine.universe)
        view_before = unified(engine)
        runs = fixpoint_runs(engine)
        try:
            result = engine.update(f"?{request}, {FAIL}")
        except UpdateError:
            pass
        else:
            # The request's own selection failed before the failing
            # conjunct: it found nothing to change.
            assert not result.succeeded and not result.changed
        assert to_python(engine.universe) == before
        assert_keys_match_values(engine.universe)
        assert unified(engine) == view_before
        assert fixpoint_runs(engine) == runs

        result = engine.update(f"?{request}")
        assert_keys_match_values(engine.universe)
        # Every database whose contents changed is named by the change
        # log: a flush stages exactly these members.
        after = to_python(engine.universe)
        changed = {name for name in set(before) | set(after)
                   if before.get(name) != after.get(name)}
        assert changed <= {prefix[0] for prefix in result.touched}
        rebuilt = IdlEngine(engine.universe.snapshot())
        for rule in UNIFIED:
            rebuilt.define(rule)
        assert unified(engine) == unified(rebuilt)
