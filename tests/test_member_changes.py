"""Member changes: splitting an update's change log by member, the one
apply semantics both connectors share, torn writes of a change, and
the journal record versions recovery accepts."""

from __future__ import annotations

import copy
import json

import pytest

from repro import IdlEngine
from repro.errors import JournalError
from repro.multidb import (
    CrashInjector,
    CrashPoint,
    FaultyConnector,
    Federation,
    FederationConfig,
    InMemoryConnector,
    InMemoryJournal,
    StorageConnector,
)
from repro.multidb.adapters import infer_schema, universe_rows
from repro.multidb.changes import (
    VERSION,
    MemberChange,
    apply_change,
    full_change,
    member_changes,
    torn_change,
)
from repro.multidb.journal import encode_record
from repro.storage.database import StorageDatabase
from repro.workloads.stocks import StockWorkload

STYLES = ("euter", "chwab", "ource")


def canon(relations):
    """Order-insensitive form of ``{rel: rows}``, null columns left out
    (a storage member fills a row's missing columns with null)."""
    return {
        rel: sorted(
            json.dumps({k: v for k, v in row.items() if v is not None},
                       sort_keys=True)
            for row in rows
        )
        for rel, rows in relations.items()
    }


def split(source, members=("d",), data=None):
    """The per-member changes of one engine update."""
    engine = IdlEngine()
    for name, relations in (data or {"d": {"r": [{"k": 1, "v": "a"},
                                                  {"k": 2, "v": "b"}],
                                           "s": [{"x": 1}]}}).items():
        engine.add_database(name, relations)
    result = engine.update(source)
    return member_changes(
        result.delta, members,
        lambda name, relations: universe_rows(engine.universe, name,
                                              relations),
    )


class TestSplit:
    def test_row_inserts_and_deletes_become_plus_and_minus_rows(self):
        (change,) = split("?.d.r+(.k=3, .v=c), .d.r-(.k=1)").values()
        assert change == {"insert": {"r": [{"k": 3, "v": "c"}]},
                          "delete": {"r": [{"k": 1, "v": "a"}]}}

    def test_in_place_edit_is_a_delete_and_an_insert(self):
        (change,) = split("?.d.r(.k=2, .v-=X, .v+=z)").values()
        assert change == {"delete": {"r": [{"k": 2, "v": "b"}]},
                          "insert": {"r": [{"k": 2, "v": "z"}]}}

    def test_insert_then_delete_of_one_row_cancels(self):
        (change,) = split("?.d.r+(.k=3, .v=c), .d.r-(.k=3)").values()
        assert change == {}

    def test_symbolic_relation_change_replaces_the_relation(self):
        changes = split("?.d+.t(.y=1)")
        assert changes == {"d": {"replace": {"t": [{"y": 1}]}}}

    def test_dropped_relation_is_replaced_by_nothing(self):
        assert split("?.d-.s") == {"d": {"replace": {"s": None}}}

    def test_symbolic_change_at_the_database_restages_the_member(self):
        # A tuple plus on the universe replaces the whole database.
        assert split("?+.d.q(.y=1)") == {
            "d": {"full": True, "replace": {"q": [{"y": 1}]}}}

    def test_only_the_named_members_are_split(self):
        data = {"d": {"r": [{"k": 1}]}, "e": {"r": [{"k": 1}]}}
        changes = split("?.d.r+(.k=2), .e.r+(.k=2)", members=("e",),
                        data=data)
        assert changes == {"e": {"insert": {"r": [{"k": 2}]}}}


STATE = {
    "r": [{"k": 1, "v": "a"}, {"k": 2, "v": "b"}],
    "s": [{"x": 1}],
    "gone": [{"y": 0}],
}

#: A sequence of changes every connector must apply alike.
CHANGES = [
    MemberChange(insert={"r": [{"k": 3, "v": "c"}, {"k": 1, "v": "a"}]}),
    MemberChange(delete={"r": [{"k": 2, "v": "b"}, {"k": 9, "v": "z"}]}),
    MemberChange(delete={"r": [{"k": 3, "v": "c"}]},
                 insert={"r": [{"k": 3, "v": "c", "w": 1.5}]}),
    MemberChange(replace={"s": [{"x": 2}, {"x": 3}], "gone": None}),
    MemberChange(insert={"fresh": [{"z": "new"}]}),
    MemberChange(delete={"r": [{"k": 3, "v": "c", "w": 1.5}]}),
    full_change({"r": [{"k": 7, "v": "q"}], "t": [{"u": 1}]}),
]


def storage_member(state):
    storage = StorageDatabase("m")
    storage.replace_contents(copy.deepcopy(state), infer_schema)
    return StorageConnector(storage)


class TestApplySemantics:
    def test_storage_and_in_memory_connectors_agree(self):
        memory = InMemoryConnector(STATE)
        storage = storage_member(STATE)
        reference = copy.deepcopy(STATE)
        for change in CHANGES:
            memory.apply(change)
            storage.apply(change)
            apply_change(reference, copy.deepcopy(change))
            assert canon(memory.scan()) == canon(reference)
            assert canon(storage.scan()) == canon(reference), change

    @pytest.mark.parametrize("make", [InMemoryConnector, storage_member])
    def test_applying_a_change_twice_is_applying_it_once(self, make):
        connector = make(STATE)
        for change in CHANGES:
            connector.apply(change)
            once = canon(connector.scan())
            connector.apply(change)
            assert canon(connector.scan()) == once, change

    def test_a_plain_state_is_the_full_change(self):
        connector = InMemoryConnector(STATE)
        connector.apply({"r": [{"k": 5}]})
        assert connector.scan() == {"r": [{"k": 5}]}

    def test_storage_delete_matches_a_row_by_its_stored_columns(self):
        # The stored row carries the relation's other columns as null.
        storage = storage_member({"r": [{"k": 1, "v": "a"}]})
        storage.apply(MemberChange(insert={"r": [{"k": 2}]}))
        assert {"k": 2, "v": None} in storage.scan()["r"]
        storage.apply(MemberChange(delete={"r": [{"k": 2}]}))
        assert storage.scan()["r"] == [{"k": 1, "v": "a"}]


class TestTornChange:
    def test_half_of_the_row_operations_land(self):
        change = MemberChange(delete={"r": [{"k": 1}, {"k": 2}]},
                              insert={"r": [{"k": 3}, {"k": 4}]})
        assert torn_change(change) == {"delete": {"r": [{"k": 1},
                                                        {"k": 2}]}}

    def test_relation_steps_always_land(self):
        change = full_change({"r": [{"k": 1}, {"k": 2}], "s": [{"x": 1}]})
        change["replace"]["gone"] = None
        assert torn_change(change) == {
            "full": True,
            "replace": {"r": [{"k": 1}], "s": [], "gone": None},
        }

    def test_faulty_connector_writes_the_torn_part_then_fails(self):
        inner = InMemoryConnector({"r": [{"k": 1}, {"k": 2}]})
        faulty = FaultyConnector(inner, torn_writes=True, outage=True)
        change = MemberChange(delete={"r": [{"k": 1}]},
                              insert={"r": [{"k": 5}]})
        with pytest.raises(Exception):
            faulty.apply(change)
        assert inner.scan() == {"r": [{"k": 2}]}


class TestJournalRecordVersions:
    """Recovery accepts the intents it knows how to read and refuses
    any other loudly, before anything is delivered."""

    def setup_method(self):
        self.workload = StockWorkload(n_stocks=2, n_days=2, seed=13)

    def connectors(self):
        return {style: InMemoryConnector(self.workload.relations_for(style))
                for style in STYLES}

    def restart(self, connectors, buffer):
        federation = Federation.from_config(
            FederationConfig(journal=InMemoryJournal(buffer=buffer)))
        for style in STYLES:
            federation.add_member(style, style, connector=connectors[style])
        federation.install()
        return federation

    def test_intents_record_their_version(self):
        connectors = self.connectors()
        federation = self.restart(connectors, [])
        federation.insert_quote("nova", "9/9/99", 7.0)
        (intent,) = [record for record in federation.journal.records()
                     if record["type"] == "intent"]
        assert intent["version"] == VERSION

    def test_versionless_intent_recovers_as_exact_full_states(self):
        # An intent journaled before changes were: full member states.
        connectors = self.connectors()
        desired = {
            "euter": {"r": [{"date": "1/1/01", "stkCode": "x",
                             "clsPrice": 1.0}]},
            "chwab": {"r": [{"date": "1/1/01", "x": 1.0}]},
        }
        buffer = [encode_record({"type": "intent", "update": 1, "seq": 1,
                                 "origin": "update", "members": desired})]
        ource = connectors["ource"].scan()
        federation = self.restart(connectors, buffer)
        assert federation.recover() == {1: ["chwab", "euter"]}
        for style, state in desired.items():
            assert connectors[style].scan() == state
            assert canon(universe_rows(federation.engine.universe,
                                       style)) == canon(state)
        assert connectors["ource"].scan() == ource
        assert federation.journal.pending() == []

    def test_unknown_version_is_refused_and_nothing_is_delivered(self):
        connectors = self.connectors()
        before = {style: connectors[style].scan() for style in STYLES}
        buffer = []
        crash = CrashInjector().arm(1)  # the intent is durable
        federation = Federation.from_config(FederationConfig(
            journal=InMemoryJournal(buffer=buffer), crash=crash))
        for style in STYLES:
            federation.add_member(style, style, connector=connectors[style])
        federation.install()
        with pytest.raises(CrashPoint):
            federation.insert_quote("nova", "9/9/99", 7.0)
        (line,) = buffer
        record = json.loads(line)["rec"]
        record["version"] = 99
        buffer[:] = [encode_record(record)]
        with pytest.raises(JournalError, match="version 99"):
            self.restart(connectors, buffer)
        assert {style: connectors[style].scan()
                for style in STYLES} == before
