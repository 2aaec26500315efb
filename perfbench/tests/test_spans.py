"""The self-time fold and the span recorder."""

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from perfbench.spans import Patches, Recorder, Span, self_times


def _span(name, start, end, parent=None):
    span = Span(name, start, parent)
    span.end = end
    if parent is not None:
        parent.children.append(span)
    return span


def test_nested_tree_self_times_sum_to_root_duration():
    root = _span("root", 0.0, 10.0)
    a = _span("a", 1.0, 4.0, root)
    _span("a1", 2.0, 3.0, a)
    mapped = _span("map", 5.0, 9.0, root)
    # Two tasks on worker threads overlap during [6, 8].
    t1 = _span("task", 5.0, 8.0, mapped)
    _span("leaf", 5.0, 6.0, t1)
    _span("task", 6.0, 9.0, mapped)

    folded = self_times(root)

    assert sum(folded.values()) == pytest.approx(root.duration)
    assert folded["root"] == pytest.approx(3.0)
    assert folded["a"] == pytest.approx(2.0)
    assert folded["a1"] == pytest.approx(1.0)
    assert folded["map"] == pytest.approx(0.0)
    # Each task covers 3 s but shares [6, 8] with the other: 2 s of the
    # map's wall time each, split over their own subtree.
    assert folded["task"] == pytest.approx(4 / 3 + 2.0)
    assert folded["leaf"] == pytest.approx(2 / 3)


def test_children_are_clipped_to_their_parent():
    root = _span("root", 0.0, 2.0)
    _span("late", 1.5, 3.0, root)  # outlives the root: only 0.5 s counts
    folded = self_times(root)
    assert folded["late"] == pytest.approx(0.5)
    assert sum(folded.values()) == pytest.approx(2.0)


def test_recorder_parents_worker_spans_to_the_submitting_span():
    recorder = Recorder()
    with recorder.span("root") as root:
        with recorder.span("map") as mapped:
            def work():
                with recorder.span("task", parent=mapped):
                    with recorder.span("inner"):
                        return threading.get_ident()

            with ThreadPoolExecutor(max_workers=3) as pool:
                idents = [f.result() for f in
                          [pool.submit(work) for _ in range(6)]]

    assert recorder.roots == [root]
    assert [child.name for child in mapped.children] == ["task"] * 6
    assert all(task.children[0].name == "inner" for task in mapped.children)
    assert {task.thread for task in mapped.children} == set(idents)
    assert sum(self_times(root).values()) == pytest.approx(root.duration)


def test_wrap_records_failures_and_measures_results():
    recorder = Recorder()

    def rows(n):
        if n < 0:
            raise ValueError(n)
        return list(range(n))

    wrapped = recorder.wrap("rows", rows, measure=len)
    with recorder.span("root") as root:
        assert wrapped(3) == [0, 1, 2]
        with pytest.raises(ValueError):
            wrapped(-1)
    ok, failed = root.children
    assert (ok.ok, ok.value) == (True, 3)
    assert (failed.ok, failed.value) == (False, None)
    assert recorder.current() is None


def test_patches_are_undone_on_exit():
    class Target:
        def call(self):
            return "original"

    recorder = Recorder()
    with Patches() as patches:
        patches.replace(Target, "call",
                        recorder.wrap("Target.call", Target.__dict__["call"]))
        assert Target().call() == "original"
        assert recorder.roots[0].name == "Target.call"
    assert Target.__dict__["call"].__name__ == "call"
    assert not hasattr(Target.__dict__["call"], "__wrapped__")


def test_dump_writes_one_line_per_span(tmp_path):
    recorder = Recorder()
    with recorder.span("root"):
        with recorder.span("child"):
            pass
    path = tmp_path / "spans.jsonl"
    assert recorder.dump(path) == 2
    lines = path.read_text().splitlines()
    assert '"name": "root"' in lines[0] and '"parent": null' in lines[0]
    assert '"name": "child"' in lines[1] and '"parent": 0' in lines[1]
