"""Run one workload of the IDL federation benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload read-mix --seed 1 --seconds 10 \
        --trace 0

``--trace 0`` is the clean end-to-end run: the program's own tracing is
off, the workload is set up several times (the median is ``setup_s``),
then one client drives a closed loop for ``--seconds`` seconds (longer
if needed to collect enough samples of every operation kind), checking
every answer against the workload's oracle outside the timed region.
Latencies and throughput are taken per window of consecutive ops and
reported from the fast end of the windows (see ``WINDOW_QUERIES``); the
record line keeps the whole-run figures too.

``--trace 1`` is the traced run: the benchmark wraps each layer's public
callables (see ``layers.py``), runs a fixed number of operations from a
fresh set-up, folds the recorded spans into per-layer self time and
counts, writes the spans to ``.perfbench/``, then replays the same
operations untraced on another fresh set-up to report the tracing
overhead. It fails, naming the callable, when a callable of one of the
workload's main layers never ran.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the run (sizes, weights, seed, versions, and the metrics not
in the contract, such as update latency and the failed share).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Set-ups per end-to-end run: at least this many, and at least
#: ``SETUP_BUDGET_S`` seconds of them (at most ``SETUP_MAX``);
#: ``setup_s`` is their median.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 5, 25, 3.0
#: Every end-to-end run holds at least this many samples of each
#: operation kind its workload has.
MIN_SAMPLES = 200
#: The closed loop never runs longer than this past ``--seconds``.
MAX_EXTENSION_S = 90.0
#: The timed ops are cut into consecutive windows of this many queries
#: (the last window takes the remainder). Each latency is the
#: ``BEST_SHARE`` quantile of its per-window values, counted from the
#: fastest window, and ``ops_per_s`` likewise from the highest: a
#: co-tenant slows a shared host for a second or more at a time, and the
#: quiet stretches of a run repeat far better than the whole run does.
#: A run with fewer than ``MIN_WINDOWS`` windows (ops of tens of
#: milliseconds, where a window outlasts the slow stretches) is one
#: window.
WINDOW_QUERIES = 200
MIN_WINDOWS = 20
BEST_SHARE = 0.1
#: Where the traced run writes its spans.
SPANS_DIR = ROOT / ".perfbench"

END_TO_END = (
    ("query_p50_ms", "ms"),
    ("query_p95_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _percentile(samples, fraction):
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def _ms(samples, fraction):
    return _percentile(samples, fraction) * 1e3 if samples else None


def _windows(timed):
    """``timed`` is the run's ``(kind, seconds)`` in order. Returns one
    dict per window: query and update p50/p95 and ops per busy second."""
    ends = [index + 1 for index, (kind, _) in enumerate(timed)
            if kind == "query"][WINDOW_QUERIES - 1::WINDOW_QUERIES]
    if len(ends) < MIN_WINDOWS:
        ends = []
    ends[-1:] = [len(timed)]
    windows = []
    for start, end in zip([0] + ends[:-1], ends):
        part = timed[start:end]
        queries = [s for kind, s in part if kind == "query"]
        updates = [s for kind, s in part if kind == "update"]
        windows.append({
            "query_p50_ms": _ms(queries, 0.50),
            "query_p95_ms": _ms(queries, 0.95),
            "update_p50_ms": _ms(updates, 0.50),
            "update_p95_ms": _ms(updates, 0.95),
            "ops_per_s": len(part) / sum(s for _, s in part),
        })
    return windows


def _best(windows, name):
    values = sorted((w[name] for w in windows if w[name] is not None),
                    reverse=name == "ops_per_s")
    if not values:
        return None
    return values[int(BEST_SHARE * (len(values) - 1))]


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _record(spec, seed, mode, extra):
    return {
        "workload": spec.name,
        "why": spec.why,
        "mode": mode,
        "seed": seed,
        "params": spec.params(),
        "weights": spec.weights,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "src_sha256": _source_digest(),
        **extra,
    }


def _run_op(op, problems, root=None):
    """Run ``op``; returns ``(seconds, ok)``. With ``root`` (a recorder
    and span name) the op runs inside that root span. Checking the
    result happens after the clock stops and the span closes."""
    span = root[0].open(root[1]) if root is not None else None
    started = time.perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # a failed op is counted, not fatal
        elapsed = time.perf_counter() - started
        if span is not None:
            root[0].close(span, ok=False)
        problems.append(f"{op.label}: {type(exc).__name__}: {exc}")
        return elapsed, False
    elapsed = time.perf_counter() - started
    if span is not None:
        root[0].close(span)
    message = op.check(result)
    if message is not None:
        problems.append(f"{op.label}: {message}")
        return elapsed, False
    return elapsed, True


def end_to_end(spec, seed, seconds):
    setups = []
    run = None
    while len(setups) < SETUP_MIN or (sum(setups) < SETUP_BUDGET_S
                                      and len(setups) < SETUP_MAX):
        if run is not None:
            run.close()
        gc.collect()
        started = time.perf_counter()
        run = spec.build(seed)
        setups.append(time.perf_counter() - started)
    gc.collect()

    samples = {kind: 0 for kind in spec.kinds}
    timed = []  # (op kind, seconds), in the order the ops ran
    problems = []
    attempted = failed = 0
    loop_start = time.perf_counter()
    deadline = loop_start + seconds
    hard_deadline = deadline + MAX_EXTENSION_S
    while True:
        now = time.perf_counter()
        if now >= hard_deadline or (now >= deadline and all(
                count >= MIN_SAMPLES for count in samples.values())):
            break
        op = run.next_op()
        elapsed, ok = _run_op(op, problems)
        attempted += 1
        failed += not ok
        samples[op.kind] += 1
        timed.append((op.kind, elapsed))
        run.after_op(op)
    final_problems = run.final_check()
    run.close()

    windows = _windows(timed)
    metrics = {
        "query_p50_ms": _best(windows, "query_p50_ms"),
        "query_p95_ms": _best(windows, "query_p95_ms"),
        "ops_per_s": _best(windows, "ops_per_s"),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    queries = [s for kind, s in timed if kind == "query"]
    updates = [s for kind, s in timed if kind == "update"]
    extra = {
        "samples": samples,
        "windows": len(windows),
        "whole_run": {
            "query_p50_ms": _ms(queries, 0.50),
            "query_p95_ms": _ms(queries, 0.95),
            "update_p50_ms": _ms(updates, 0.50),
            "update_p95_ms": _ms(updates, 0.95),
            "ops_per_s": attempted / sum(s for _, s in timed),
        },
        "setup_s_all": setups,
        "failed_op_share": failed / attempted,
        "problems": (problems + final_problems)[:10],
    }
    if updates:
        extra["update_p50_ms"] = _best(windows, "update_p50_ms")
        extra["update_p95_ms"] = _best(windows, "update_p95_ms")
    correct = failed == 0 and not final_problems
    return _record(spec, seed, "end-to-end", extra), {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in END_TO_END},
    }


def traced(spec, seed):
    from perfbench import layers
    from perfbench.spans import Recorder

    # The untraced replay of the same ops runs first, on its own fresh
    # set-up, and is dropped before the traced pass, so both passes see
    # the same heap.
    gc.collect()
    replay = spec.build(seed)
    untraced_s = 0.0
    for _ in range(spec.trace_ops):
        op = replay.next_op()
        elapsed, _ = _run_op(op, [])
        untraced_s += elapsed
        replay.after_op(op)
    replay.close()
    del replay, op
    gc.collect()

    recorder = Recorder()
    problems = []
    ops = []  # (root span, op kind)
    prune_ratios = []
    row_bytes = []
    encode = layers.journal_module.encode_record
    failed = 0
    with layers.install(recorder):
        with recorder.span(layers.SETUP_ROOT):
            run = spec.build(seed)
        setup_roots = list(recorder.roots)
        gc.collect()
        for _ in range(spec.trace_ops):
            op = run.next_op()
            _, ok = _run_op(op, problems, (recorder, layers.OP_ROOT))
            failed += not ok
            ops.append((recorder.roots[-1], op.kind))
            if op.kind == "query":
                decision = run.engine.last_prune
                if decision is not None and decision.rules_total:
                    prune_ratios.append(
                        decision.rules_used / decision.rules_total)
            else:
                row_bytes.append(layers.body_bytes(encode(op.row)))
            run.after_op(op)
        with recorder.span(layers.CHECK_ROOT):
            final_problems = run.final_check()
        run.close()
    traced_s = sum(root.duration for root, _ in ops)
    overhead_pct = (traced_s / untraced_s - 1.0) * 100.0

    missing = layers.missing_callables(
        spec.required, setup_roots + [root for root, _ in ops])
    if missing:
        raise SystemExit(
            f"{spec.name}: wrapped callable(s) never called: "
            f"{', '.join(missing)} (renamed or no longer on this path?)")

    metrics, self_total, wall_total = layers.fold(
        ops, setup_roots, prune_ratios, row_bytes, overhead_pct)
    if abs(self_total - wall_total) > 1e-9 * max(1, len(ops)):
        raise SystemExit(
            f"self times sum to {self_total!r} s but the op roots span "
            f"{wall_total!r} s")

    SPANS_DIR.mkdir(exist_ok=True)
    spans_path = SPANS_DIR / f"{spec.name}-seed{seed}.spans.jsonl"
    written = recorder.dump(spans_path)

    extra = {
        "trace_ops": spec.trace_ops,
        "traced_ops_per_s": len(ops) / traced_s,
        "untraced_ops_per_s": len(ops) / untraced_s,
        "self_time_total_s": self_total,
        "op_wall_total_s": wall_total,
        "spans": written,
        "spans_file": os.path.relpath(spans_path, ROOT),
        "calls": dict(sorted(layers.calls_by_label(
            [root for root, _ in ops]).items())),
        "problems": (problems + final_problems)[:10],
    }
    return _record(spec, seed, "traced", extra), {
        "correct": failed == 0 and not final_problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit, _ in layers.PER_LAYER},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    spec = WORKLOADS.get(args.workload)
    if spec is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.trace:
        record, result = traced(spec, args.seed)
    else:
        record, result = end_to_end(spec, args.seed, args.seconds)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
