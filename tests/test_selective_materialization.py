"""Tests for selective re-materialization (touched-path invalidation)
and the SCC-keyed overlay cache shared by pruned and full queries."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import IdlEngine
from repro.obs import Observability
from tests.conftest import answers_set


def build_engine(maintain=True, prune=False):
    engine = IdlEngine(maintain=maintain, prune=prune,
                       obs=Observability(enabled=False))
    engine.add_database("a", {"r": [{"x": 1}, {"x": 2}]})
    engine.add_database("b", {"s": [{"y": 10}]})
    engine.define(".va.p(.x=X) <- .a.r(.x=X)")
    engine.define(".vb.q(.y=Y) <- .b.s(.y=Y)")
    engine.define(".vc.j(.x=X, .y=Y) <- .va.p(.x=X), .vb.q(.y=Y)")
    return engine


def count(engine, name):
    """A cumulative counter of the engine's metrics registry."""
    return engine.obs.metrics.counter(name).value


class TestTouchedPaths:
    def test_update_reports_touched(self):
        engine = build_engine()
        result = engine.update("?.a.r+(.x=3)")
        assert result.touched == {("a", "r")}

    def test_program_calls_accumulate_touched(self):
        engine = build_engine()
        engine.universe.add_database("u")
        engine.invalidate()
        engine.define_update(
            ".u.both(.v=V) -> .a.r+(.x=V)\n.u.both(.v=V) -> .b.s+(.y=V)"
        )
        result = engine.call("u", "both", v=99)
        assert result.touched == {("a", "r"), ("b", "s")}

    def test_metadata_updates_report_touched(self):
        engine = build_engine()
        result = engine.update("?.a-.r")
        assert result.touched == {("a", "r")}

    def test_no_match_touches_nothing(self):
        engine = build_engine()
        result = engine.update("?.a.r(.x=999, .x-=C)")
        assert result.touched == set()


class TestSelectiveRebuild:
    def test_untouched_stratum_is_reused(self):
        engine = build_engine(maintain=False)
        engine.materialized_view()
        engine.update("?.b.s+(.y=20)")
        engine.materialized_view()
        # va's stratum (reading only a.r) must have been reused.
        assert engine.fixpoint_stats.reused_strata >= 1
        assert answers_set(engine.query("?.vb.q(.y=Y)"), "Y") == {10, 20}

    def test_maintained_stratum_is_repaired_in_place(self):
        engine = build_engine()
        engine.materialized_view()
        overlay = engine.overlay
        repairs = count(engine, "fixpoint.maintain.runs")
        fallbacks = count(engine, "fixpoint.maintain.fallbacks")
        engine.update("?.b.s+(.y=20)")
        engine.materialized_view()
        # With maintenance on, the update repairs the live materialization:
        # no stratum is rebuilt at all, and the overlay stays live.
        assert count(engine, "fixpoint.maintain.runs") == repairs + 1
        assert count(engine, "fixpoint.maintain.fallbacks") == fallbacks
        assert engine.overlay is overlay
        assert answers_set(engine.query("?.vb.q(.y=Y)"), "Y") == {10, 20}

    def test_dependent_strata_are_rebuilt(self):
        engine = build_engine(maintain=False)
        engine.materialized_view()
        engine.update("?.a.r+(.x=3)")
        # vc depends on va depends on a.r: both rebuilt, vb reused.
        assert answers_set(engine.query("?.vc.j(.x=X, .y=Y)"), "X", "Y") == {
            (1, 10), (2, 10), (3, 10),
        }
        assert engine.fixpoint_stats.reused_strata == 1

    def test_deletes_propagate(self):
        engine = build_engine()
        engine.materialized_view()
        engine.update("?.a.r-(.x=1)")
        assert answers_set(engine.query("?.va.p(.x=X)"), "X") == {2}
        assert answers_set(engine.query("?.vc.j(.x=X, .y=Y)"), "X", "Y") == {
            (2, 10),
        }

    def test_unchanged_request_keeps_cache(self):
        engine = build_engine()
        engine.materialized_view()
        first = engine.overlay
        engine.update("?.a.r-(.x=999)")  # matches nothing
        assert engine.overlay is first

    def test_define_fully_invalidates(self):
        engine = build_engine()
        engine.materialized_view()
        engine.define(".vd.k(.x=X) <- .a.r(.x=X)")
        engine.materialized_view()
        assert engine.fixpoint_stats.reused_strata == 0

    def test_higher_order_views_track_touched_families(self):
        engine = IdlEngine(maintain=False)
        engine.add_database("euter", {"r": [
            {"date": "d1", "stkCode": "hp", "clsPrice": 50},
        ]})
        engine.add_database("other", {"t": [{"z": 1}]})
        engine.define(".dbO.S(.date=D, .p=P) <- .euter.r(.date=D, .stkCode=S, .clsPrice=P)")
        engine.define(".vz.w(.z=Z) <- .other.t(.z=Z)")
        engine.materialized_view()
        engine.update("?.euter.r+(.date=d2, .stkCode=sun, .clsPrice=9)")
        assert sorted(engine.overlay.get("dbO").attr_names()) == ["hp", "sun"]
        assert engine.fixpoint_stats.reused_strata == 1


class TestInvalidateEdgeCases:
    def test_empty_touched_prefix_forces_full_invalidate(self):
        engine = build_engine(prune=True)
        engine.query("?.va.p(.x=X)")
        engine.materialized_view()
        first = engine.overlay
        # An empty prefix means "somewhere unknown": everything goes,
        # including what the pruned query materialized.
        engine._selective_invalidate({()})
        runs = count(engine, "fixpoint.runs")
        engine.query("?.va.p(.x=X)")
        assert count(engine, "fixpoint.runs") == runs + 1
        assert engine.last_fixpoint_stats.reused_strata == 0
        assert engine.overlay is not first

    def test_derived_target_only_touch_dirties_view(self):
        # A touch landing on a path that is only a view's *target* (not
        # read by any rule body) still dirties that view — and
        # transitively its readers — while unrelated strata survive.
        engine = build_engine(maintain=False)
        engine.materialized_view()
        engine._selective_invalidate({("va", "p")})
        # va is dirty (target touched), vc is dirty (reads va.p); only
        # vb's stratum is reused by the next materialization.
        runs = count(engine, "fixpoint.runs")
        engine.materialized_view()
        assert count(engine, "fixpoint.runs") == runs + 1
        assert engine.fixpoint_stats.reused_strata == 1

    def test_transitive_stratum_dirtying(self):
        # v2 never reads a.r, but depends on v1 which does: an update to
        # a.r must dirty both, while the unrelated v3 stays reusable.
        engine = IdlEngine(maintain=False, obs=Observability(enabled=False))
        engine.add_database("a", {"r": [{"x": 1}]})
        engine.add_database("b", {"s": [{"z": 7}]})
        engine.define(".v1.p(.x=X) <- .a.r(.x=X)")
        engine.define(".v2.q(.x=X) <- .v1.p(.x=X)")
        engine.define(".v3.w(.z=Z) <- .b.s(.z=Z)")
        engine.materialized_view()
        engine.update("?.a.r+(.x=2)")
        runs = count(engine, "fixpoint.runs")
        engine.materialized_view()
        assert count(engine, "fixpoint.runs") == runs + 1
        assert engine.fixpoint_stats.reused_strata == 1  # only v3's
        assert answers_set(engine.query("?.v2.q(.x=X)"), "X") == {1, 2}


class TestPrunedCacheRetention:
    def build(self, maintain=True):
        engine = IdlEngine(prune=True, maintain=maintain,
                           obs=Observability(enabled=False))
        engine.add_database("a", {"r": [{"x": 1}, {"x": 2}]})
        engine.add_database("b", {"s": [{"y": 10}]})
        engine.define(".va.p(.x=X) <- .a.r(.x=X)")
        engine.define(".vb.q(.y=Y) <- .b.s(.y=Y)")
        return engine

    def test_pruned_overlay_survives_unrelated_update(self):
        engine = self.build()
        assert answers_set(engine.query("?.va.p(.x=X)"), "X") == {1, 2}
        runs = count(engine, "fixpoint.runs")
        # b.s feeds only vb: what the pruned query materialized reads
        # clean inputs exclusively and must survive the update.
        engine.update("?.b.s+(.y=20)")
        assert answers_set(engine.query("?.va.p(.x=X)"), "X") == {1, 2}
        assert count(engine, "fixpoint.runs") == runs

    def test_pruned_overlay_dropped_when_input_changes(self):
        engine = self.build(maintain=False)
        engine.query("?.va.p(.x=X)")
        runs = count(engine, "fixpoint.runs")
        engine.update("?.a.r+(.x=3)")
        assert answers_set(engine.query("?.va.p(.x=X)"), "X") == {1, 2, 3}
        assert count(engine, "fixpoint.runs") == runs + 1


class TestSharedSccCache:
    """Pruned and full queries share one cache of SCC overlays, and
    maintenance repairs whatever is live."""

    def test_pruned_query_after_repair_materializes_nothing(self):
        engine = build_engine(prune=True)
        assert answers_set(engine.query("?.va.p(.x=X)"), "X") == {1, 2}
        runs = count(engine, "fixpoint.runs")
        repairs = count(engine, "fixpoint.maintain.runs")
        engine.update("?.a.r+(.x=3)")
        assert answers_set(engine.query("?.va.p(.x=X)"), "X") == {1, 2, 3}
        assert engine.last_prune.reason == "pruned"
        assert count(engine, "fixpoint.runs") == runs
        assert count(engine, "fixpoint.maintain.runs") == repairs + 1

    def test_full_query_reuses_the_pruned_query_sccs(self):
        engine = build_engine(prune=True)
        engine.query("?.va.p(.x=X)")
        assert engine.last_prune.reason == "pruned"
        assert answers_set(
            engine.query("?.vc.j(.x=X, .y=Y)"), "X", "Y"
        ) == {(1, 10), (2, 10)}
        assert engine.last_prune.reason == "full"
        assert engine.last_fixpoint_stats.reused_strata >= 1

    def test_base_only_query_reads_no_derived_stats(self):
        engine = build_engine(prune=True)
        engine.materialized_view()
        runs = count(engine, "fixpoint.runs")
        assert answers_set(engine.query("?.a.r(.x=X)"), "X") == {1, 2}
        assert engine.last_prune.rules_used == 0
        assert engine.last_fixpoint_stats is None
        assert count(engine, "fixpoint.runs") == runs

    def test_fallback_keeps_unrelated_sccs_and_delta_capture(self):
        # A merge rule always falls back; dropping its SCC must leave
        # the unrelated vb SCC live, so the next update still captures
        # its delta and repairs vb in place.
        engine = IdlEngine(prune=True, obs=Observability(enabled=False))
        engine.add_database("a", {"r": [{"k": 1, "v": 1}]})
        engine.add_database("b", {"s": [{"y": 10}]})
        engine.define(".vm.m(.k=K, .v=V) <- .a.r(.k=K, .v=V)",
                      merge_on=("k",))
        engine.define(".vb.q(.y=Y) <- .b.s(.y=Y)")
        engine.materialized_view()
        engine.update("?.a.r+(.k=2, .v=2)")
        assert count(engine, "fixpoint.maintain.fallbacks") == 1
        runs = count(engine, "fixpoint.runs")
        repairs = count(engine, "fixpoint.maintain.runs")
        engine.update("?.b.s+(.y=20)")
        assert count(engine, "fixpoint.maintain.runs") == repairs + 1
        assert answers_set(engine.query("?.vb.q(.y=Y)"), "Y") == {10, 20}
        assert count(engine, "fixpoint.runs") == runs
        assert answers_set(
            engine.query("?.vm.m(.k=K, .v=V)"), "K", "V"
        ) == {(1, 1), (2, 2)}
        assert count(engine, "fixpoint.runs") == runs + 1

    def test_aborted_repair_leaves_no_stale_facts(self):
        # Cutting a 40-edge chain in the middle cascades through far
        # more closure facts than the over-deletion budget allows, so
        # the repair aborts halfway and the SCC is dropped. The facts
        # it had already over-deleted must leave the combined overlay
        # too, not only those still in the half-repaired SCC overlay.
        def build(maintain):
            engine = IdlEngine(maintain=maintain,
                               obs=Observability(enabled=False))
            engine.add_database("g", {
                "edge": [{"a": i, "b": i + 1} for i in range(40)],
            })
            engine.define(".g.tc(.a=X, .b=Y) <- .g.edge(.a=X, .b=Y)")
            engine.define(".g.tc(.a=X, .b=Y) <- "
                          ".g.tc(.a=X, .b=Z), .g.edge(.a=Z, .b=Y)")
            return engine

        engine = build(maintain=True)
        assert engine.ask("?.g.tc(.a=20, .b=22)")
        engine.update("?.g.edge-(.a=20, .b=21)")
        assert count(engine, "fixpoint.maintain.fallbacks") == 1
        assert not engine.ask("?.g.tc(.a=20, .b=22)")
        reference = build(maintain=False)
        reference.update("?.g.edge-(.a=20, .b=21)")
        source = "?.g.tc(.a=X, .b=Y)"
        assert answers_set(engine.query(source), "X", "Y") == \
            answers_set(reference.query(source), "X", "Y")


# -- property: selective == full rebuild --------------------------------------

VIEW_QUERIES = ("?.va.p(.x=X)", "?.vb.q(.y=Y)", "?.vc.j(.x=X, .y=Y)")

ops = st.lists(
    st.tuples(
        st.sampled_from(("insert_a", "delete_a", "insert_b")),
        st.integers(0, 5),
        st.sampled_from(VIEW_QUERIES),
    ),
    max_size=12,
)


def rendered(results):
    return {tuple(sorted(answer.items())) for answer in results}


@given(ops, st.booleans(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_selective_equals_full_rebuild(sequence, prune, maintain):
    """Whatever mix of pruned and full queries made SCCs live, and
    whether updates repair or drop them, answers match a from-scratch
    rebuild after every update."""
    selective = build_engine(maintain=maintain, prune=prune)
    reference = build_engine()
    for op, value, source in sequence:
        if op == "insert_a":
            request = f"?.a.r+(.x={value})"
        elif op == "delete_a":
            request = f"?.a.r-(.x={value})"
        else:
            request = f"?.b.s+(.y={value})"
        selective.update(request)
        reference.update(request)
        reference.invalidate()  # force full rebuild
        assert rendered(selective.query(source)) == \
            rendered(reference.query(source)), source
    for source in VIEW_QUERIES:
        assert rendered(selective.query(source)) == \
            rendered(reference.query(source)), source
