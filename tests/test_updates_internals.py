"""Further update-evaluator coverage: constructors, nested updates,
result accounting and error paths."""

from __future__ import annotations

import pytest

from repro.core.parser import parse_expression, parse_query
from repro.core.substitution import Substitution
from repro.core.updates import UpdateResult, apply_request, build_object
from repro.errors import UpdateError
from repro.objects import Atom, Universe, from_python, to_python


class TestBuildObject:
    def ground(self, source, **bindings):
        expr = parse_expression("?" + source)
        if len(expr.conjuncts) == 1:
            expr = expr.conjuncts[0]
        subst = Substitution.of(
            {name: Atom(value) for name, value in bindings.items()}
        )
        return build_object(expr, subst)

    def test_flat_tuple(self):
        built = self.ground(".a=1, .b=x")
        assert to_python(built) == {"a": 1, "b": "x"}

    def test_nested_path(self):
        built = self.ground(".a.b=1")
        assert to_python(built) == {"a": {"b": 1}}

    def test_nested_set(self):
        built = self.ground(".a(.b=1)")
        assert to_python(built) == {"a": [{"b": 1}]}

    def test_variables_resolved(self):
        built = self.ground(".k=K, .v=V", K="key", V=7)
        assert to_python(built) == {"k": "key", "v": 7}

    def test_bound_atoms_are_copied(self):
        # Atoms are mutable in place (``.a-=X`` nulls one), so a built
        # object must not share the atom it was bound from.
        bound = Atom(7)
        built = build_object(parse_expression("?.v=V").conjuncts[0],
                             Substitution.of({"V": bound}))
        bound.value = None
        assert to_python(built) == {"v": 7}

    def test_atom_minus_on_one_member_spares_the_other(self):
        # One program call inserts the same bound price into two
        # relations; nulling it in one must leave the other intact.
        from repro import IdlEngine

        engine = IdlEngine()
        engine.add_database("e", {"r": []})
        engine.add_database("c", {"r": []})
        engine.add_database("u")
        engine.define_update(
            ".u.ins(.d=D, .p=P) -> .e.r+(.d=D, .p=P)\n"
            ".u.ins(.d=D, .p=P) -> .c.r+(.d=D, .p=P)"
        )
        engine.call("u", "ins", d="d1", p=5)
        engine.update("?.c.r(.d=d1, .p-=X)")
        assert engine.query("?.e.r(.d=d1, .p=P)") == [{"P": 5}]

    def test_higher_order_attribute_name(self):
        built = self.ground(".S=P", S="hp", P=50)
        assert to_python(built) == {"hp": 50}

    def test_arithmetic_in_constructor(self):
        built = self.ground(".v=C+10", C=50)
        assert to_python(built) == {"v": 60}

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(UpdateError):
            self.ground(".a=1, .a=2")

    def test_unbound_variable_rejected(self):
        from repro.errors import SafetyError

        with pytest.raises((UpdateError, SafetyError)):
            self.ground(".a=X")

    def test_inequality_rejected(self):
        with pytest.raises(UpdateError):
            self.ground(".a>1")


class TestNestedUpdates:
    def test_update_inside_nested_set(self):
        universe = Universe.from_python(
            {"d": {"r": [[{"x": 1}, {"x": 2}], [{"x": 3}]]}}
        )
        result = apply_request(parse_query("?.d.r((.x-=C))"), universe)
        assert result.modified == 3
        # Value-based set semantics: the nulled tuples become equal and
        # collapse, inside the groups and then between the groups.
        nested = to_python(universe.relation("d", "r"))
        assert nested == [[{"x": None}]]

    def test_update_nested_tuple_attribute(self):
        universe = Universe.from_python(
            {"d": {"r": [{"name": "a", "meta": {"tag": "old"}}]}}
        )
        result = apply_request(
            parse_query("?.d.r(.name=a, .meta.tag+=new)"), universe
        )
        assert result.modified == 1
        [row] = to_python(universe.relation("d", "r"))
        assert row["meta"]["tag"] == "new"

    def test_insert_nested_element(self):
        universe = Universe.from_python({"d": {"r": []}})
        apply_request(
            parse_query("?.d.r+(.name=a, .hist(.y=1990, .v=7))"), universe
        )
        [row] = to_python(universe.relation("d", "r"))
        assert row == {"name": "a", "hist": [{"y": 1990, "v": 7}]}


class TestAccounting:
    def test_update_result_properties(self):
        result = UpdateResult([Substitution.empty()], 1, 2, 3)
        assert result.succeeded and result.changed
        empty = UpdateResult([], 0, 0, 0)
        assert not empty.succeeded and not empty.changed
        assert "inserted=1" in repr(result)

    def test_ground_set_minus_yields_once(self):
        universe = Universe.from_python(
            {"d": {"r": [{"k": 1}, {"k": 1, "x": 2}]}}
        )
        result = apply_request(parse_query("?.d.r-(.k=1)"), universe)
        assert len(result.substitutions) == 1
        assert result.deleted == 2

    def test_open_set_minus_yields_per_match(self):
        universe = Universe.from_python(
            {"d": {"r": [{"k": 1}, {"k": 2}, {"k": 3}]}}
        )
        result = apply_request(parse_query("?.d.r-(.k=K)"), universe)
        assert len(result.substitutions) == 3
        assert {s.lookup("K").value for s in result.substitutions} == {1, 2, 3}

    def test_counts_compose_across_conjuncts(self):
        universe = Universe.from_python({"d": {"r": [{"k": 1}]}})
        result = apply_request(
            parse_query("?.d.r-(.k=1), .d.r+(.k=2), .d.r+(.k=3)"), universe
        )
        assert (result.inserted, result.deleted) == (2, 1)


class TestErrorPaths:
    def test_update_on_missing_relation_fails_quietly(self):
        universe = Universe.from_python({"d": {"r": []}})
        result = apply_request(parse_query("?.d.zzz-(.k=1)"), universe)
        assert not result.succeeded  # conjunct found nothing to navigate

    def test_plus_on_missing_relation_is_error(self):
        universe = Universe.from_python({"d": {}})
        result = apply_request(parse_query("?.d.zzz+(.k=1)"), universe)
        # Navigation to a missing attribute fails the conjunct.
        assert not result.succeeded

    def test_wrong_category_raises(self):
        universe = Universe.from_python({"d": {"r": [{"k": 1}]}})
        with pytest.raises(UpdateError):
            apply_request(parse_query("?.d.r(.k(+.x=1))"), universe)

    def test_tuple_plus_unbound_attr_name(self):
        universe = Universe.from_python({"d": {"r": [{"k": 1}]}})
        from repro.errors import SafetyError

        with pytest.raises(SafetyError):
            apply_request(parse_query("?.d.r(+.S=1)"), universe)

    def test_updates_never_touch_merged_objects(self):
        from repro.objects.merged import MergedTuple
        from repro.objects import TupleObject

        base = Universe.from_python({"d": {"r": [{"k": 1}]}})
        merged = MergedTuple(base, TupleObject())
        with pytest.raises(UpdateError):
            apply_request(parse_query("?.d.r(+.x=1)"), merged)
