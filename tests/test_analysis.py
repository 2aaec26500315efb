"""Golden tests for ``idlcheck`` (src/repro/analysis).

Every diagnostic code gets at least one firing (positive) and one
non-firing (negative) fixture, plus integration tests for the three
wiring layers: ``Federation.install(validate=...)``, the REPL's
``:check`` command, and the ``python -m repro.tools.lint`` CLI
(including the sweep over ``examples/``).
"""

from __future__ import annotations

import glob
import io
import os

import pytest

from repro.analysis import (
    CODES,
    CallShape,
    Catalog,
    check_engine,
    check_source,
)
from repro.core.engine import IdlEngine
from repro.errors import ValidationError
from repro.multidb.connectors import FaultyConnector, InMemoryConnector
from repro.multidb.federation import Federation
from repro.tools import lint
from repro.tools.repl import IdlRepl
from repro.workloads.stocks import StockWorkload

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")


def catalog():
    return (
        Catalog()
        .add_relation("euter", "r", ["date", "stkCode", "clsPrice"])
        .add_relation("dbU", "stkNames", ["stk"])
    )


def codes_of(source, **kwargs):
    kwargs.setdefault("catalog", catalog())
    return check_source(source, **kwargs).codes


# ---------------------------------------------------------------------------
# IDL000 syntax-error
# ---------------------------------------------------------------------------


def test_idl000_fires_on_syntax_error():
    report = check_source("?.euter.r(.stkCode=S")
    assert report.codes == ["IDL000"]
    assert report.has_errors
    diagnostic = report.by_code("IDL000")[0]
    assert diagnostic.loc is not None  # points at the offending token


def test_idl000_quiet_on_valid_source():
    assert "IDL000" not in codes_of("?.euter.r(.stkCode=S)")


# ---------------------------------------------------------------------------
# IDL001 unsafe-variable
# ---------------------------------------------------------------------------


def test_idl001_fires_on_unsafe_rule():
    source = ".dbV.big(.s=S) <- .euter.r(.date=D), S > 10"
    report = check_source(source, catalog=catalog())
    assert "IDL001" in report.codes
    diagnostic = report.by_code("IDL001")[0]
    assert "S" in diagnostic.message
    assert diagnostic.loc == (1, 1)
    assert ".dbV.big" in diagnostic.context


def test_idl001_fires_on_unsafe_query():
    assert "IDL001" in codes_of("? X > 3")


def test_idl001_quiet_on_safe_rule():
    source = ".dbV.big(.s=S) <- .euter.r(.stkCode=S, .clsPrice>10)"
    assert "IDL001" not in codes_of(source)


# ---------------------------------------------------------------------------
# IDL002 unrestricted-name-variable
# ---------------------------------------------------------------------------


def test_idl002_fires_on_computed_name_variable():
    source = ".dbV.R(.a=1) <- .euter.r(.clsPrice=X), R = 2*X"
    assert "IDL002" in codes_of(source)


def test_idl002_quiet_on_enumerated_name_variable():
    # The paper's Figure 1 ource view: S is enumerated from stored
    # values, which is a legitimate name producer.
    source = ".dbO.S(.date=D, .clsPrice=P) <- .euter.r(.date=D, .stkCode=S, .clsPrice=P)"
    assert "IDL002" not in codes_of(source)


# ---------------------------------------------------------------------------
# IDL003 malformed-statement
# ---------------------------------------------------------------------------


def test_idl003_fires_on_bad_program_head():
    # An update program head must name a program or relation.
    source = ".dbU(.x=X) -> .euter.r-(.stkCode=X)"
    assert "IDL003" in codes_of(source)


def test_idl003_quiet_on_valid_clause():
    source = ".dbU.drop(.stk=S) -> .euter.r-(.stkCode=S)"
    assert "IDL003" not in codes_of(source)


# ---------------------------------------------------------------------------
# IDL010 unstratifiable
# ---------------------------------------------------------------------------


def test_idl010_fires_with_cycle_trace():
    source = "\n".join([
        ".dbV.p(.s=S) <- .dbU.stkNames(.stk=S), ~.dbV.q(.s=S)",
        ".dbV.q(.s=S) <- .dbV.p(.s=S)",
    ])
    report = check_source(source, catalog=catalog())
    assert "IDL010" in report.codes
    message = report.by_code("IDL010")[0].message
    # The trace names both rules of the negative cycle.
    assert ".dbV.p" in message and ".dbV.q" in message
    assert "--~-->" in message


def test_idl010_quiet_on_stratified_negation():
    source = "\n".join([
        ".dbV.q(.s=S) <- .dbU.stkNames(.stk=S)",
        ".dbV.p(.s=S) <- .dbU.stkNames(.stk=S), ~.dbV.q(.s=S)",
    ])
    assert "IDL010" not in codes_of(source)


# ---------------------------------------------------------------------------
# IDL011 recursive-update-program
# ---------------------------------------------------------------------------


def test_idl011_fires_on_mutual_program_recursion():
    source = "\n".join([
        ".dbU.a(.x=X) -> .dbU.b(.x=X)",
        ".dbU.b(.x=X) -> .dbU.a(.x=X)",
    ])
    assert "IDL011" in codes_of(source)


def test_idl011_fires_on_recursion_through_a_name_variable():
    # ``.dbO.S+(...)`` with S bound dispatches through the wildcard
    # program, so this pair calls itself.
    source = "\n".join([
        ".dbO.S+(.date=D) -> .dbU.ins(.stk=S, .date=D)",
        ".dbU.ins(.stk=S, .date=D) -> .dbO.S+(.date=D)",
    ])
    assert "IDL011" in codes_of(source)


def test_idl011_quiet_on_acyclic_calls():
    source = "\n".join([
        ".dbU.a(.x=X) -> .dbU.b(.x=X)",
        ".dbU.b(.x=X) -> .euter.r-(.stkCode=X)",
    ])
    assert "IDL011" not in codes_of(source)


# ---------------------------------------------------------------------------
# IDL020 unknown-relation
# ---------------------------------------------------------------------------


def test_idl020_fires_on_unknown_relation():
    report = check_source(
        ".dbV.v(.s=S) <- .euter.quotes(.stkCode=S)", catalog=catalog()
    )
    assert "IDL020" in report.codes
    diagnostic = report.by_code("IDL020")[0]
    assert ".euter.quotes" in diagnostic.message
    assert diagnostic.loc == (1, 17)  # the conjunct, not just the rule


def test_idl020_fires_on_unknown_database():
    report = check_source("?.nowhere.r(.x=X)", catalog=catalog())
    assert "IDL020" in report.codes
    assert "database" in report.by_code("IDL020")[0].message


def test_idl020_quiet_on_catalog_derived_opaque_and_created():
    source = "\n".join([
        # catalog relation
        ".dbV.a(.s=S) <- .euter.r(.stkCode=S)",
        # derived relation
        ".dbV.b(.s=S) <- .dbV.a(.s=S)",
        # opaque database
        ".dbV.c(.s=S) <- .mystery.rel(.s=S)",
        # a '+' along the path may create the relation
        ".dbU.mk(.s=S) -> .euter+.fresh(.stk=S)",
    ])
    cat = catalog().mark_opaque("mystery")
    assert "IDL020" not in codes_of(source, catalog=cat)


def test_idl020_skipped_without_catalog():
    assert "IDL020" not in codes_of(
        "?.nowhere.r(.x=X)", catalog=None
    )


# ---------------------------------------------------------------------------
# IDL021 unknown-attribute
# ---------------------------------------------------------------------------


def test_idl021_fires_on_unknown_attribute():
    report = check_source("?.euter.r(.ticker=S)", catalog=catalog())
    assert "IDL021" in report.codes
    assert "ticker" in report.by_code("IDL021")[0].message
    assert not report.has_errors  # a warning, not an error


def test_idl021_quiet_on_known_variable_and_inserted_attributes():
    source = "\n".join([
        "?.euter.r(.stkCode=S)",  # known attribute
        "?.euter.r(.A=V), A != date",  # higher-order attribute
        "?.euter.r+(.date=d1, .stkCode=hp, .clsPrice=9, .volume=3)",  # insert
    ])
    assert "IDL021" not in codes_of(source)


# ---------------------------------------------------------------------------
# IDL030 uncovered-view-update
# ---------------------------------------------------------------------------


def test_idl030_fires_on_missing_entry_point():
    report = check_source(
        "", required=[CallShape("dbU", "insStk", None, ["stk"],
                                origin="test")]
    )
    assert report.codes == ["IDL030"]
    assert "test" in report.by_code("IDL030")[0].message


def test_idl030_fires_on_uncovered_binding():
    # insStk needs stk+date+price for its '+' expression; a declared
    # call shape giving only stk is not covered.
    source = (
        ".dbU.insStk(.stk=S, .date=D, .price=P) -> "
        ".euter.r+(.stkCode=S, .date=D, .clsPrice=P)"
    )
    report = check_source(
        source, catalog=catalog(),
        required=[CallShape("dbU", "insStk", None, ["stk"])],
    )
    assert "IDL030" in report.codes
    assert "date+price+stk" in report.by_code("IDL030")[0].message


def test_idl030_fires_on_underbound_call_site():
    source = "\n".join([
        ".dbU.insStk(.stk=S, .date=D, .price=P) -> "
        ".euter.r+(.stkCode=S, .date=D, .clsPrice=P)",
        # This call site gives only stk — statically uncovered.
        ".dbU.touch(.stk=S) -> .dbU.insStk(.stk=S)",
    ])
    assert "IDL030" in codes_of(source)


def test_idl030_fires_on_signed_access_inside_a_view():
    # The engine rejects this update; the checker reports the same error.
    source = "\n".join([
        ".dbV.p(.k=K, .x=X) <- .euter.r(.stkCode=K, .clsPrice=X)",
        "?.dbV.p(.k=hp, .x+=2)",
    ])
    report = check_source(source)
    assert report.codes == ["IDL030"]
    assert "extensional" in report.by_code("IDL030")[0].message


def test_idl030_quiet_on_covered_shape():
    source = (
        ".dbU.insStk(.stk=S, .date=D, .price=P) -> "
        ".euter.r+(.stkCode=S, .date=D, .clsPrice=P)"
    )
    report = check_source(
        source, catalog=catalog(),
        required=[CallShape("dbU", "insStk", None, ["stk", "date", "price"])],
    )
    assert "IDL030" not in report.codes


# ---------------------------------------------------------------------------
# IDL031 uncallable-clause
# ---------------------------------------------------------------------------


def test_idl031_fires_on_uncallable_clause():
    # W is not a parameter and not produced: no binding can run this.
    source = ".dbU.p(.x=X) -> .euter.r(.stkCode=Y), Y > W"
    assert "IDL031" in codes_of(source)


def test_idl031_quiet_on_callable_clause():
    source = ".dbU.p(.x=X) -> .euter.r-(.stkCode=X)"
    assert "IDL031" not in codes_of(source)


# ---------------------------------------------------------------------------
# IDL040 dead-rule
# ---------------------------------------------------------------------------


def test_idl040_fires_on_recursion_without_base_case():
    source = ".dbV.loop(.x=X) <- .dbV.loop(.x=X)"
    report = check_source(source, catalog=catalog())
    assert "IDL040" in report.codes


def test_idl040_quiet_on_recursion_with_base_case():
    source = "\n".join([
        ".dbV.tc(.s=S) <- .euter.r(.stkCode=S)",
        ".dbV.tc(.s=S) <- .dbV.tc(.s=S)",
    ])
    assert "IDL040" not in codes_of(source)


def test_idl040_suppressed_when_reference_is_unknown():
    # The unknown reference already fired IDL020; a dead-rule warning
    # on top would be noise.
    source = ".dbV.v(.s=S) <- .euter.quotes(.stkCode=S)"
    report = check_source(source, catalog=catalog())
    assert "IDL020" in report.codes
    assert "IDL040" not in report.codes


# ---------------------------------------------------------------------------
# IDL041 shadowed-clause
# ---------------------------------------------------------------------------


def test_idl041_fires_on_duplicate_rule_and_clause():
    source = "\n".join([
        ".dbV.v(.s=S) <- .euter.r(.stkCode=S)",
        ".dbV.v(.s=S) <- .euter.r(.stkCode=S)",
        ".dbU.p(.x=X) -> .euter.r-(.stkCode=X)",
        ".dbU.p(.x=X) -> .euter.r-(.stkCode=X)",
    ])
    report = check_source(source, catalog=catalog())
    assert len(report.by_code("IDL041")) == 2
    # Each duplicate names the statement it shadows.
    assert "1:1" in report.by_code("IDL041")[0].message


def test_idl041_quiet_on_distinct_statements():
    source = "\n".join([
        ".dbV.v(.s=S) <- .euter.r(.stkCode=S)",
        ".dbV.v(.s=S) <- .dbU.stkNames(.stk=S)",
    ])
    assert "IDL041" not in codes_of(source)


# ---------------------------------------------------------------------------
# IDL050 type-clash
# ---------------------------------------------------------------------------


def test_idl050_fires_on_name_variable_in_arithmetic():
    source = ".dbV.R(.a=1) <- .euter.r(.clsPrice=X), R = 2*X"
    report = check_source(source, catalog=catalog())
    assert "IDL050" in report.codes
    diagnostic = report.by_code("IDL050")[0]
    assert "R" in diagnostic.message
    assert "name" in diagnostic.message and "num" in diagnostic.message


def test_idl050_fires_across_discrepant_schemata():
    # The inferred signature of the unified view types price as num;
    # using a price value as an attribute *name* in the chwab style is
    # the paper's canonical data/metadata clash.
    source = "\n".join([
        ".dbI.p(.stk=S, .price=P) <- "
        ".euter.r(.stkCode=S, .clsPrice=Q), P = 2*Q",
        "?.dbI.p(.stk=S, .price=P), .chwab.r(.date=d1, .P=V)",
    ])
    report = check_source(source, catalog=catalog())
    assert "IDL050" in report.codes
    assert "P" in report.by_code("IDL050")[0].message


def test_idl050_in_program_body_carries_the_clause_position():
    # Golden: findings inside update-program bodies point at the
    # offending conjunct, not at the statement head.
    source = "\n".join([
        ".dbU.setP(.stk=S) -> .euter.r+(.stkCode=S)",
        ".dbU.bad(.stk=S) -> .chwab.r(.date=D, .S=P), X = 2*S",
    ])
    report = check_source(source, catalog=catalog())
    diagnostic = report.by_code("IDL050")[0]
    assert diagnostic.loc == (2, 46)  # the `X = 2*S` conjunct
    assert ".dbU.bad" in diagnostic.context


def test_idl050_quiet_on_consistent_types():
    source = "\n".join([
        ".dbI.p(.stk=S, .price=P) <- "
        ".euter.r(.stkCode=S, .clsPrice=Q), P = 2*Q",
        "?.dbI.p(.stk=S, .price=P), P > 100",
    ])
    assert "IDL050" not in codes_of(source)


# ---------------------------------------------------------------------------
# IDL051 unsatisfiable-selection
# ---------------------------------------------------------------------------


def test_idl051_fires_on_distinct_constants():
    source = "?.euter.r(.stkCode=S, .stkCode=7, .stkCode=9)"
    report = check_source(source, catalog=catalog())
    assert "IDL051" in report.codes
    assert not report.has_errors  # a warning: the query is legal, empty


def test_idl051_fires_on_contradictory_range():
    source = "?.euter.r(.clsPrice=P, .clsPrice>100, .clsPrice<50)"
    assert "IDL051" in codes_of(source)


def test_idl051_quiet_on_satisfiable_range():
    source = "?.euter.r(.clsPrice=P, .clsPrice>50, .clsPrice<100)"
    assert "IDL051" not in codes_of(source)


def test_idl051_quiet_across_separate_tuples():
    # Different tuples may of course carry different constants.
    source = "?.euter.r(.stkCode=ibm), .euter.r(.stkCode=dec)"
    assert "IDL051" not in codes_of(source)


# ---------------------------------------------------------------------------
# IDL060 write-outside-footprint
# ---------------------------------------------------------------------------


ROGUE_PROGRAM = (
    ".dbU.ins(.stk=S) -> .euter.r+(.stkCode=S), .rogue.log+(.who=S)"
)


def test_idl060_fires_on_write_outside_declared_footprint():
    shape = CallShape("dbU", "ins", None, params=("stk",),
                      writes={"euter"})
    report = check_source(ROGUE_PROGRAM, catalog=catalog(),
                          required=[shape])
    assert "IDL060" in report.codes
    diagnostic = report.by_code("IDL060")[0]
    assert ".rogue.log" in diagnostic.message
    assert "euter" in diagnostic.message  # names the allowed footprint
    assert diagnostic.loc is not None


def test_idl060_fires_through_a_transitive_call():
    source = "\n".join([
        ".dbU.inner(.stk=S) -> .rogue.log+(.who=S)",
        ".dbU.ins(.stk=S) -> .euter.r+(.stkCode=S), .dbU.inner(.stk=S)",
    ])
    shapes = [CallShape("dbU", "ins", None, params=("stk",),
                        writes={"euter"})]
    report = check_source(source, catalog=catalog(), required=shapes)
    assert "IDL060" in report.codes
    assert "via .dbU.inner" in report.by_code("IDL060")[0].message


def test_idl060_quiet_when_footprint_covers_the_writes():
    shape = CallShape("dbU", "ins", None, params=("stk",),
                      writes={"euter", "rogue"})
    report = check_source(ROGUE_PROGRAM, catalog=catalog(),
                          required=[shape])
    assert "IDL060" not in report.codes


def test_idl060_skipped_without_declared_footprints():
    # A shape with writes=None declares nothing; no IDL060 can fire.
    shape = CallShape("dbU", "ins", None, params=("stk",))
    report = check_source(ROGUE_PROGRAM, catalog=catalog(),
                          required=[shape])
    assert "IDL060" not in report.codes


# ---------------------------------------------------------------------------
# Report mechanics
# ---------------------------------------------------------------------------


def test_every_code_is_documented():
    assert len(CODES) >= 12
    for code, (slug, severity, description) in CODES.items():
        assert code.startswith("IDL") and len(code) == 6
        assert slug and description
        assert severity in ("error", "warning")


def test_report_renders_sorted_errors_first():
    source = "\n".join([
        "?.euter.r(.ticker=S)",  # warning on line 1
        "?.euter.quotes(.x=X)",  # error on line 2
    ])
    report = check_source(source, catalog=catalog())
    rendered = report.render()
    assert rendered.index("IDL020") < rendered.index("IDL021")
    assert rendered.rstrip().endswith("1 error, 1 warning")


def test_clean_report_renders_ok():
    assert check_source("?.euter.r(.stkCode=S)").render() == "ok: no diagnostics"


# ---------------------------------------------------------------------------
# check_engine
# ---------------------------------------------------------------------------


def test_check_engine_uses_universe_as_catalog():
    engine = IdlEngine()
    engine.add_database("d", {"r": [{"x": 1}]})
    engine.define(".dbV.v(.a=X) <- .d.r(.x=X)")
    assert check_engine(engine).codes == []

    engine.define(".dbV.bad(.a=X) <- .d.missing(.x=X)")
    assert "IDL020" in check_engine(engine).codes


def test_check_engine_sees_update_clauses():
    engine = IdlEngine()
    engine.add_database("d", {"r": [{"x": 1}]})
    engine.define_update(".dbU.p(.x=X) -> .d.r-(.x=X)")
    engine.define_update(".dbU.q(.x=X) -> .d.gone-(.x=X)")
    report = check_engine(engine)
    assert "IDL020" in report.codes


# ---------------------------------------------------------------------------
# Federation.install(validate=...)
# ---------------------------------------------------------------------------


def stock_federation(connectors=False):
    workload = StockWorkload(n_stocks=4, n_days=3, seed=1991)
    federation = Federation()
    for name in ("euter", "chwab", "ource"):
        relations = workload.relations_for(name)
        if connectors:
            federation.add_member(
                name, style=name, connector=InMemoryConnector(relations)
            )
        else:
            federation.add_member(name, relations=relations)
    federation.add_user_view("dbE", "euter")
    federation.add_user_view("dbC", "chwab")
    federation.add_user_view("dbO", "ource")
    return federation


def test_strict_install_accepts_healthy_federation():
    federation = stock_federation()
    assert federation.install(validate="strict") is federation
    assert federation.last_validation is not None
    assert len(federation.last_validation) == 0
    assert len(federation.unified_quotes()) == 12


def test_strict_install_rejects_before_attaching_members():
    federation = stock_federation(connectors=True)
    federation.engine.define(".dbV.bad(.x=X) <- .euter.quotes(.x=X)")
    with pytest.raises(ValidationError) as excinfo:
        federation.install(validate="strict")
    report = excinfo.value.report
    assert "IDL020" in report.codes
    diagnostic = report.by_code("IDL020")[0]
    assert ".euter.quotes" in diagnostic.message
    assert diagnostic.loc is not None
    assert ".dbV.bad" in diagnostic.context
    # Nothing was attached or installed.
    assert federation._attached == set()
    assert not federation._installed


def test_warn_install_returns_report_but_installs():
    federation = stock_federation(connectors=True)
    federation.engine.define(".dbV.bad(.x=X) <- .euter.quotes(.x=X)")
    report = federation.install(validate="warn")
    assert report.has_errors
    assert federation._installed
    assert len(federation.unified_quotes()) == 12


def test_default_install_skips_validation():
    federation = stock_federation()
    assert federation.install() is federation
    assert federation.last_validation is None


def test_install_rejects_unknown_validate_mode():
    from repro.errors import FederationError

    with pytest.raises(FederationError):
        stock_federation().install(validate="maybe")


def test_validation_scans_each_connector_once():
    workload = StockWorkload(n_stocks=4, n_days=3, seed=1991)
    federation = Federation()
    faulty = FaultyConnector(InMemoryConnector(workload.euter_relations()))
    federation.add_member("euter", style="euter", connector=faulty)
    federation.install(validate="strict")
    assert faulty.calls == 1  # validation's snapshot is reused by attach


def test_validation_marks_unreachable_members_opaque():
    workload = StockWorkload(n_stocks=4, n_days=3, seed=1991)
    federation = Federation()
    federation.add_member(
        "euter", style="euter",
        connector=InMemoryConnector(workload.euter_relations()),
    )
    down = FaultyConnector(
        InMemoryConnector(workload.chwab_relations()), outage=True
    )
    federation.add_member("chwab", style="chwab", connector=down)
    # A rule into the unreachable member must not be called unknown.
    federation.engine.define(".dbV.v(.p=P) <- .chwab.r(.date=P)")
    report = federation.validation_report()
    assert "IDL020" not in report.codes


def test_post_install_validation_report_is_clean():
    federation = stock_federation()
    federation.install()
    assert federation.validation_report().codes == []


# ---------------------------------------------------------------------------
# REPL :check
# ---------------------------------------------------------------------------


def test_repl_check_command():
    out = io.StringIO()
    repl = IdlRepl(out=out)
    repl.engine.add_database("d", {"r": [{"x": 1}]})
    repl.run([
        ".dbV.v(.a=X) <- .d.r(.x=X)",
        ":check",
        ".dbV.bad(.a=X) <- .d.missing(.x=X)",
        ":check",
    ])
    text = out.getvalue()
    assert "ok: no diagnostics" in text
    assert "IDL020" in text


def test_repl_check_file(tmp_path):
    path = tmp_path / "program.idl"
    path.write_text(".dbV.v(.a=X) <- .d.missing(.x=X)\n")
    out = io.StringIO()
    repl = IdlRepl(out=out)
    repl.engine.add_database("d", {"r": [{"x": 1}]})
    repl.run([f":check {path}"])
    assert "IDL020" in out.getvalue()


# ---------------------------------------------------------------------------
# Lint CLI
# ---------------------------------------------------------------------------


def test_lint_cli_clean_and_failing_files(tmp_path, capsys):
    good = tmp_path / "good.idl"
    good.write_text("?.d.r(.x=X)\n")
    bad = tmp_path / "bad.idl"
    bad.write_text("? X > 3\n")

    assert lint.main([str(good)]) == 0
    assert lint.main([str(bad)]) == 1
    output = capsys.readouterr().out
    assert "ok" in output and "IDL001" in output


def test_lint_cli_strict_fails_on_warnings(tmp_path):
    source = "\n".join([
        ".dbV.v(.s=S) <- .d.r(.x=S)",
        ".dbV.v(.s=S) <- .d.r(.x=S)",  # IDL041, a warning
    ])
    path = tmp_path / "dup.idl"
    path.write_text(source + "\n")
    assert lint.main([str(path)]) == 0
    assert lint.main(["--strict", str(path)]) == 1


def test_lint_cli_missing_file():
    assert lint.main(["/no/such/file.idl"]) == 2


def test_lint_cli_json_format(tmp_path, capsys):
    import json

    path = tmp_path / "bad.idl"
    path.write_text("? X > 3\n?.d.r(.x=X, .x=1, .x=2)\n")
    assert lint.main(["--format=json", str(path)]) == 1
    lines = [line for line in capsys.readouterr().out.splitlines() if line]
    records = [json.loads(line) for line in lines]
    assert len(records) == 2
    # Errors sort first, then source order; every record is flat.
    first, second = records
    assert first["code"] == "IDL001" and first["severity"] == "error"
    assert second["code"] == "IDL051" and second["severity"] == "warning"
    for record in records:
        assert sorted(record) == [
            "code", "col", "line", "message", "path", "severity",
        ]
        assert record["path"] == str(path)
        assert isinstance(record["line"], int)
        assert isinstance(record["col"], int)


def test_lint_cli_json_clean_file_emits_nothing(tmp_path, capsys):
    path = tmp_path / "good.idl"
    path.write_text("?.d.r(.x=X)\n")
    assert lint.main(["--format=json", str(path)]) == 0
    assert capsys.readouterr().out.strip() == ""


def test_lint_cli_human_format_is_the_default(tmp_path, capsys):
    path = tmp_path / "bad.idl"
    path.write_text("? X > 3\n")
    lint.main([str(path)])
    output = capsys.readouterr().out
    assert f"== {path} ==" in output  # grouped report, not JSON lines
    assert "{" not in output


def test_lint_python_extracts_idl_literals(tmp_path):
    script = tmp_path / "script.py"
    script.write_text(
        'QUERY = "? X > 3"\n'
        'PROSE = "not idl at all"\n'
        'FRAGMENT = ".date"\n'
    )
    report = lint.lint_path(str(script))
    assert report.codes == ["IDL001"]
    # The diagnostic points at the embedding line in the Python file.
    assert report.by_code("IDL001")[0].loc == (1, 1)


def test_looks_like_idl_gate():
    assert lint.looks_like_idl("?.d.r(.x=X)")
    assert lint.looks_like_idl(".a.b(.x=X) <- .c.d(.x=X)\n% comment")
    assert not lint.looks_like_idl("hello world")
    assert not lint.looks_like_idl(":check")
    assert not lint.looks_like_idl("")


def test_repl_footprint_command():
    out = io.StringIO()
    repl = IdlRepl(out=out)
    repl.engine.add_database("d", {"r": [{"x": 1}]})
    repl.run([
        ":footprint",
        ":footprint ?.d.r+(.x=5)",
    ])
    text = out.getvalue()
    assert "usage: :footprint" in text
    assert "reads:  .d.r" in text
    assert "writes: .d.r" in text


def test_repl_footprint_on_a_federation():
    workload = StockWorkload(n_stocks=2, n_days=2, seed=3)
    federation = Federation()
    federation.add_member("euter", "euter", workload.euter_relations())
    federation.add_member("chwab", "chwab", workload.chwab_relations())
    federation.add_member("ource", "ource", workload.ource_relations())
    federation.install()
    out = io.StringIO()
    repl = IdlRepl(out=out, federation=federation)
    repl.run([":footprint ?.dbU.insStk(.stk=zzz)"])
    text = out.getvalue()
    # The control program fans out to every member style.
    for member in ("euter", "chwab", "ource"):
        assert member in text


def test_repl_check_uses_the_federation_validation_report():
    workload = StockWorkload(n_stocks=2, n_days=2, seed=3)
    federation = Federation()
    federation.add_member("euter", "euter", workload.euter_relations())
    federation.add_member("chwab", "chwab", workload.chwab_relations())
    federation.add_member("ource", "ource", workload.ource_relations())
    federation.install()
    out = io.StringIO()
    repl = IdlRepl(out=out, federation=federation)
    repl.run([":check"])
    assert "ok: no diagnostics" in out.getvalue()


@pytest.mark.lint
@pytest.mark.parametrize(
    "path",
    sorted(glob.glob(os.path.join(EXAMPLES_DIR, "*.py"))),
    ids=os.path.basename,
)
def test_examples_are_lint_clean(path):
    """Every IDL program embedded in examples/ passes idlcheck."""
    report = lint.lint_path(path)
    assert not report.has_errors, report.render()


# Test files legitimately embed *failing* IDL — they are the fixtures
# the analyzer's golden tests check against. The baseline names the
# error codes each file is allowed to embed; any new error code in a
# tests/ IDL literal fails the gate, same as examples/ (warnings do
# not gate, matching the non-strict CLI).
TESTS_LINT_BASELINE = {
    "test_analysis.py": {"IDL001", "IDL003", "IDL050"},
    "test_explain_repl.py": {"IDL001"},
    "test_failure_injection.py": {"IDL001"},
    "test_paper_section5.py": {"IDL001"},
    "test_paper_section6.py": {"IDL003"},
    "test_paper_section7.py": {"IDL011"},
    "test_parser.py": {"IDL001"},
    "test_program_binding.py": {"IDL003", "IDL011"},
    "test_rules_stratify.py": {"IDL001", "IDL010"},
    "test_safety.py": {"IDL001"},
    "test_update_programs_executor.py": {"IDL001", "IDL011"},
    "test_updates_internals.py": {"IDL001"},
}

TESTS_DIR = os.path.dirname(__file__)


@pytest.mark.lint
@pytest.mark.parametrize(
    "path",
    sorted(glob.glob(os.path.join(TESTS_DIR, "test_*.py"))),
    ids=os.path.basename,
)
def test_tests_embedded_idl_matches_lint_baseline(path):
    """IDL literals embedded in tests/ stay within the error baseline."""
    report = lint.lint_path(path)
    allowed = TESTS_LINT_BASELINE.get(os.path.basename(path), set())
    unexpected = [
        diagnostic for diagnostic in report
        if diagnostic.is_error and diagnostic.code not in allowed
    ]
    assert not unexpected, "\n".join(
        diagnostic.render() for diagnostic in unexpected
    )
