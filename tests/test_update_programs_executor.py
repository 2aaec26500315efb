"""Unit tests for the update-program executor beyond the paper examples."""

from __future__ import annotations

import pytest

from repro import IdlEngine
from repro.errors import BindingError, UpdateError
from tests.conftest import answers_set


@pytest.fixture
def engine():
    built = IdlEngine()
    built.add_database(
        "d", {"r": [{"k": 1, "v": 10}, {"k": 2, "v": 20}], "log": []}
    )
    built.add_database("u", {})
    return built


class TestDispatch:
    def test_query_conjuncts_still_work_in_requests(self, engine):
        # Atomic plus REPLACES the value: v becomes V+1 (Section 5.2).
        engine.define_update(".u.bump(.k=K) -> .d.r(.k=K, .v=V), .d.r(.k=K, .v+=V+1)")
        engine.call("u", "bump", k=1)
        assert engine.ask("?.d.r(.k=1, .v=11)")

    def test_same_shape_without_registration_is_plain_query(self, engine):
        # .d.r(.k=1) looks like a call but no program exists: plain query.
        result = engine.update("?.d.r(.k=1, .v=V), .d.log+(.saw=V)")
        assert result.succeeded
        assert engine.ask("?.d.log(.saw=10)")

    def test_call_failure_drops_the_branch(self, engine):
        engine.define_update(".u.del(.k=K) -> .d.r(.k=K, .v=V), .d.r-(.k=K, .v=V)")
        # k=3 matches nothing: the clause body fails, so the call fails.
        result = engine.update("?.u.del(.k=3)")
        assert not result.succeeded

    def test_call_per_substitution(self, engine):
        engine.define_update(".u.del(.k=K) -> .d.r-(.k=K)")
        result = engine.update("?.d.r(.k=K), .u.del(.k=K)")
        assert result.succeeded
        assert not engine.ask("?.d.r(.k=K)")

    def test_programs_bind_nothing_outward(self, engine):
        engine.define_update(".u.peek(.k=K) -> .d.r(.k=K, .v=V)")
        result = engine.update("?.u.peek(.k=1)")
        [subst] = result.substitutions
        assert subst.lookup("V") is None

    def test_unknown_argument_name_rejected(self, engine):
        engine.define_update(".u.del(.k=K) -> .d.r-(.k=K)")
        with pytest.raises(BindingError):
            engine.update("?.u.del(.zzz=1)")

    def test_malformed_argument_item_rejected(self, engine):
        engine.define_update(".u.del(.k=K) -> .d.r-(.k=K)")
        with pytest.raises(UpdateError):
            engine.update("?.u.del(.k>1)")

    def test_update_request_queries_see_base_only(self, engine):
        """Documented limitation (semantics_notes.md §10): derived views
        are not visible to query conjuncts inside update requests."""
        engine.define(".v.p(.k=K) <- .d.r(.k=K)")
        assert engine.ask("?.v.p(.k=1)")
        result = engine.update("?.v.p(.k=K), .d.log+(.saw=K)")
        assert not result.succeeded  # the view is invisible mid-request
        # The supported pattern: bind outside, pass in.
        [answer] = engine.query("?.v.p(.k=K)", K=1)
        result = engine.update("?.d.log+(.saw=K)", K=1)
        assert result.succeeded and engine.ask("?.d.log(.saw=1)")


class TestClauseSelection:
    def test_constant_params_select_clauses(self, engine):
        engine.define_update(
            ".u.route(.dir=up, .k=K) -> .d.log+(.event=up, .k=K)\n"
            ".u.route(.dir=down, .k=K) -> .d.log+(.event=down, .k=K)"
        )
        engine.update("?.u.route(.dir=up, .k=1)")
        results = engine.query("?.d.log(.event=E, .k=1)")
        assert answers_set(results, "E") == {"up"}

    def test_no_matching_constant_raises_binding_error(self, engine):
        engine.define_update(".u.route(.dir=up) -> .d.log+(.event=up)")
        with pytest.raises(BindingError):
            engine.update("?.u.route(.dir=sideways)")

    def test_signature_incompatible_clauses_are_skipped(self, engine):
        engine.define_update(
            # Clause A needs v (a plus); clause B only needs k.
            ".u.set(.k=K, .v=V) -> .d.r(.k=K, .v+=V)\n"
            ".u.set(.k=K, .v=V) -> .d.log+(.touched=K)"
        )
        result = engine.update("?.u.set(.k=1)")  # v not given
        assert result.succeeded
        assert engine.ask("?.d.log(.touched=1)")
        assert engine.ask("?.d.r(.k=1, .v=10)")  # clause A skipped

    def test_all_compatible_clauses_execute(self, engine):
        engine.define_update(
            ".u.twice(.k=K) -> .d.log+(.a=K)\n.u.twice(.k=K) -> .d.log+(.b=K)"
        )
        engine.update("?.u.twice(.k=1)")
        assert engine.ask("?.d.log(.a=1)") and engine.ask("?.d.log(.b=1)")


class TestViewUpdateDispatch:
    def test_view_plus_requires_program(self, engine):
        engine.define(".v.big(.k=K) <- .d.r(.k=K, .v>15)")
        with pytest.raises(UpdateError):
            engine.update("?.v.big+(.k=9)")

    def test_view_minus_requires_program(self, engine):
        engine.define(".v.big(.k=K) <- .d.r(.k=K, .v>15)")
        with pytest.raises(UpdateError):
            engine.update("?.v.big-(.k=2)")

    def test_registered_program_intercepts(self, engine):
        engine.define(".v.big(.k=K) <- .d.r(.k=K, .v>15)")
        engine.define_update(".v.big-(.k=K) -> .d.r-(.k=K)")
        result = engine.update("?.v.big-(.k=2)")
        assert result.succeeded
        assert not engine.ask("?.v.big(.k=2)")
        assert not engine.ask("?.d.r(.k=2)")

    def test_self_guarding_base_program_is_recursive(self, engine):
        # A '+' program on a base relation whose body performs the same
        # '+' would dispatch to itself: rejected by the nonrecursion
        # check. Guarding base updates needs a differently-named program.
        from repro.errors import RecursionError_

        with pytest.raises(RecursionError_):
            engine.define_update(
                ".d.r+(.k=K, .v=V) -> .d.r+(.k=K, .v=V), .d.log+(.ins=K)"
            )

    def test_wildcard_binds_relation_name(self, engine):
        engine.add_database("views", {})
        engine.define(".views.S(.k=K) <- .d.r(.k=K, .v=V), S = mirror")
        engine.define_update(
            ".views.S-(.k=K) -> .d.r-(.k=K), .d.log+(.via=S)"
        )
        result = engine.update("?.views.mirror-(.k=1)")
        assert result.succeeded
        assert engine.ask("?.d.log(.via=mirror)")


class TestNameVariableCalls:
    """``.db.S±(...)`` with a name variable dispatches through the
    database's wildcard program, as its effect analysis says."""

    @staticmethod
    def member_rows(text):
        from repro.bench import stock_federation
        from repro.multidb.adapters import universe_rows

        federation, _workload = stock_federation(3, 3)
        result = federation.update(text)
        rows = {
            member: universe_rows(federation.engine.universe, member)
            for member in ("euter", "chwab", "ource")
        }
        return result, rows

    def test_bound_name_dispatches_like_the_constant_form(self):
        result, rows = self.member_rows(
            "?.euter.r(.stkCode=S, .date=3/1/85), S=hp, "
            ".dbO.S+(.date=9/8/99, .clsPrice=2)"
        )
        constant, constant_rows = self.member_rows(
            "?.dbO.hp+(.date=9/8/99, .clsPrice=2)"
        )
        assert result.succeeded and result.inserted == constant.inserted > 0
        assert rows == constant_rows

    def test_unbound_name_raises(self, engine):
        engine.add_database("views", {})
        engine.define(".views.S(.k=K) <- .d.r(.k=K, .v=V), S = mirror")
        engine.define_update(".views.S-(.k=K) -> .d.r-(.k=K)")
        with pytest.raises(BindingError, match=r"\.views\.S-"):
            engine.update("?.views.S-(.k=1)")

    def test_recursion_through_a_name_variable_is_rejected(self, engine):
        from repro.errors import RecursionError_

        engine.define_update(".u.ins(.s=S, .k=K) -> .views.S+(.k=K)")
        with pytest.raises(RecursionError_):
            engine.define_update(".views.S+(.k=K) -> .u.ins(.s=S, .k=K)")
        assert engine.program.program_names() == [".u.ins"]


class TestRejectedDefinitions:
    def test_rejected_recursive_clause_leaves_the_program_as_it_was(
            self, engine):
        from repro.errors import RecursionError_

        with pytest.raises(RecursionError_):
            engine.define_update(".u.a(.x=X) -> .u.a(.x=X)")
        assert engine.program.program_names() == []
        engine.define_update(".u.b(.k=K) -> .d.r-(.k=K)")
        assert engine.program.program_names() == [".u.b"]

    def test_a_text_is_all_or_nothing(self, engine):
        from repro.errors import RecursionError_

        with pytest.raises(RecursionError_):
            engine.define_update(
                ".u.a(.x=X) -> .u.b(.x=X)\n"
                ".u.b(.x=X) -> .u.a(.x=X)"
            )
        assert engine.program.program_names() == []
