"""The benchmark's contract: metric tables, oracles, the coverage guard,
repeatable counts and the refusal to run without the program."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import layers, run
from perfbench.workloads import WORKLOADS, Op

ROOT = run.ROOT


def test_benchmark_json_mirrors_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [
        name for name, _ in run.END_TO_END]
    assert [m["unit"] for m in spec["end_to_end"]] == [
        unit for _, unit in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(layers.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_oracles_reject_a_wrong_answer(name):
    built = WORKLOADS[name].build(11)
    try:
        kinds = set()
        for _ in range(60):
            op = built.next_op()
            result = op.run()
            assert op.check(result) is None, op.label
            if op.kind == "query" and op.label not in kinds:
                kinds.add(op.label)
                if isinstance(result, bool):
                    wrong = not result
                elif result:
                    wrong = list(result)[:-1]
                else:
                    wrong = [{"D": "?", "P": -1.0, "S": "?", "Y": -1}]
                assert op.check(wrong) is not None, op.label
            built.after_op(op)
        assert built.final_check() == []
    finally:
        built.close()


class _TinySpec:
    """A two-op workload over a bare engine, for the guard and fold."""

    name = "tiny"
    why = "unit test"
    weights = {"reach": 1}
    kinds = ("query",)
    trace_ops = 4

    def __init__(self, required):
        self.required = required

    def params(self):
        return {}

    def build(self, seed):
        from repro.core.engine import IdlEngine

        spec = self

        class Tiny:
            engine = IdlEngine()
            engine.add_database("g", {"edge": [{"a": 1, "b": 2}]})

            def next_op(self):
                return Op("query", "edge",
                          lambda: self.engine.query("?.g.edge(.a=X, .b=Y)"),
                          lambda answers: None if len(answers) == 1
                          else "wrong")

            def after_op(self, op):
                pass

            def final_check(self):
                return []

            def close(self):
                spec.closed = True

        return Tiny()


def test_traced_run_folds_every_op_into_its_root(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SPANS_DIR", tmp_path)
    record, result = run.traced(
        _TinySpec(("IdlEngine.query", "engine.answers")), seed=1)
    assert result["correct"] and result["attempted"] == 4
    assert record["self_time_total_s"] == pytest.approx(
        record["op_wall_total_s"])
    assert record["calls"]["engine.parse_program"] == 4
    assert set(result["metrics"]) == {name for name, _, _ in
                                      layers.PER_LAYER}
    assert (tmp_path / "tiny-seed1.spans.jsonl").is_file()


def test_traced_run_names_a_callable_that_never_ran(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SPANS_DIR", tmp_path)
    with pytest.raises(SystemExit, match="fixpoint.maintain_stratum"):
        run.traced(_TinySpec(("IdlEngine.query",
                              "fixpoint.maintain_stratum")), seed=1)


def test_windows_hold_whole_query_counts_and_report_the_fast_end():
    # 25 windows of 200 queries; window i's queries take (i + 1) ms and
    # each window also holds one 1 s update.
    timed = []
    for index in range(25):
        timed.append(("update", 1.0))
        timed += [("query", (index + 1) / 1e3)] * 200
    timed.append(("query", 0.5))  # the remainder joins the last window
    windows = run._windows(timed)
    assert len(windows) == 25
    assert windows[0]["query_p95_ms"] == pytest.approx(1.0)
    assert windows[-1]["query_p95_ms"] == pytest.approx(25.0)
    assert run._best(windows, "query_p50_ms") == pytest.approx(3.0)
    assert run._best(windows, "ops_per_s") == windows[2]["ops_per_s"]


def test_a_run_with_few_windows_is_one_window():
    timed = [("query", 0.001)] * (run.WINDOW_QUERIES * 3) + [("update", 1.0)]
    (window,) = run._windows(timed)
    assert window["update_p50_ms"] == pytest.approx(1000.0)
    assert window["ops_per_s"] == pytest.approx(len(timed) / 1.6)


def test_read_mix_deals_the_same_mix_for_every_seed():
    spec = WORKLOADS["read-mix"]
    for seed in (1, 2):
        built = spec.build(seed)
        try:
            labels = [built.next_op().label for _ in range(100)]
            assert {label: labels.count(label) for label in spec.weights} \
                == spec.weights
            assert len(built.cuts) == spec.n_stocks * spec.n_days + 1
        finally:
            built.close()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "read-mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


@pytest.mark.slow
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_counts_repeat_exactly_for_one_seed(name):
    counts = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", name,
             "--seed", "5", "--trace", "1"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=170,
            check=True)
        metrics = json.loads(done.stdout.splitlines()[-1])["metrics"]
        counts.append({key: metrics[key]["value"] for key in layers.COUNTS})
    assert counts[0] == counts[1]
