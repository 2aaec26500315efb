"""The three seeded workloads: set-up, operation stream and oracles.

Each workload class describes itself (sizes, weights, the reason it was
chosen, the wrapped callables its main layers must reach) and builds
fresh runs with :meth:`build`. A run hands out one :class:`Op` at a time
from a stream seeded by the benchmark's ``--seed``; the program only
ever sees the generated IDL text and call arguments. Every op carries
its own oracle, computed by the benchmark from ground truth it keeps
itself: ``StockWorkload.prices`` (read-mix), a quote ledger (write-mix)
or a BFS over the edge set (closure-maintain).
"""

from __future__ import annotations

import math
import os
import random
from collections import deque

from repro.core.engine import IdlEngine
from repro.multidb import (
    FaultyConnector,
    Federation,
    FederationConfig,
    InMemoryConnector,
)
from repro.multidb.resilience import MonotonicClock
from repro.obs import Observability
from repro.workloads.stocks import StockWorkload

STYLES = ("euter", "chwab", "ource")
USERS = (("dbE", "euter"), ("dbC", "chwab"), ("dbO", "ource"))

#: Names a generated ticker must not take: the attribute and relation
#: names of the three schema styles and of the unified view.
RESERVED_NAMES = {"date", "stkCode", "clsPrice", "r", "p", "stk", "price"}

#: The federation's worker pool: at most two threads, never more than
#: the machine's processors.
MAX_WORKERS = max(1, min(2, os.cpu_count() or 1))


class Op:
    """One operation. ``run()`` calls the program; ``check(result)``
    returns None when the result matches the oracle, else a message.
    ``row`` is the user's changed row of an update (for the journal's
    write amplification)."""

    __slots__ = ("kind", "label", "run", "check", "row")

    def __init__(self, kind, label, run, check, row=None):
        self.kind = kind
        self.label = label
        self.run = run
        self.check = check
        self.row = row


def _stock_data(seed, n_stocks, n_days):
    """The seed's quote universe; a seed whose generated tickers would
    shadow a schema name moves to the next data seed, deterministically."""
    data_seed = seed
    while True:
        data = StockWorkload(n_stocks=n_stocks, n_days=n_days, seed=data_seed)
        if not RESERVED_NAMES.intersection(data.symbols):
            return data
        data_seed += 1_000_003


def _pick(rng, weights):
    """One key of ``weights``, drawn with probability proportional to
    its value."""
    return rng.choices(list(weights), weights=list(weights.values()))[0]


def _deck(weights):
    """One op kind per entry, each key repeated in proportion to its
    weight (divided by their greatest common divisor)."""
    unit = math.gcd(*weights.values())
    return [kind for kind, weight in weights.items()
            for _ in range(weight // unit)]


def _zipf_cum_weights(n, exponent):
    total = 0.0
    cum = []
    for rank in range(n):
        total += 1.0 / (rank + 1) ** exponent
        cum.append(total)
    return cum


def _pairs(answers, *names):
    """The answers as a set of tuples, or None when they hold a
    duplicate (a set-valued view must not repeat an answer)."""
    rows = [tuple(answer[name] for name in names) for answer in answers]
    found = set(rows)
    return found if len(found) == len(rows) else None


def _expect_set(expected, *names):
    def check(answers):
        got = _pairs(answers, *names)
        if got != expected:
            return f"expected {sorted(expected)!r}, got {answers!r}"
        return None
    return check


def _style_quotes(style, relations):
    """``{(day, stock): price}`` held by one member's rows, skipping the
    null cells a chwab/ource delete leaves behind."""
    quotes = {}
    if style == "euter":
        for row in relations.get("r", []):
            quotes[(row["date"], row["stkCode"])] = row["clsPrice"]
    elif style == "chwab":
        for row in relations.get("r", []):
            for name, value in row.items():
                if name != "date":
                    quotes[(row["date"], name)] = value
    else:
        for stock, rows in relations.items():
            for row in rows:
                quotes[(row["date"], stock)] = row["clsPrice"]
    return {key: price for key, price in quotes.items() if price is not None}


def _build_federation(data, n_members, connector_for):
    federation = Federation.from_config(FederationConfig(
        obs=Observability(enabled=False), max_workers=MAX_WORKERS,
    ))
    for index in range(n_members):
        style = STYLES[index % len(STYLES)]
        federation.add_member(
            f"m{index:02d}", style,
            connector=connector_for(index, data.relations_for(style)),
        )
    for user, style in USERS:
        federation.add_user_view(user, style)
    federation.install()
    federation.engine.materialized_view()
    return federation


# -- read-mix ----------------------------------------------------------------


class ReadMix:
    name = "read-mix"
    why = ("Reads dominate federation use: parser, effect analysis and "
           "pruning, and the evaluator's probes and scans carry the load.")
    n_members = 16
    n_stocks = 12
    n_days = 16
    zipf_exponent = 1.1
    weights = {"member-point": 40, "unified": 25, "above": 20,
               "dbO": 10, "ask": 5}
    kinds = ("query",)
    trace_ops = 2000
    required = (
        "engine.parse_program", "IdlEngine.query", "IdlEngine.ask",
        "EffectAnalysis.query_footprint", "fixpoint.materialize_strata",
        "engine.answers", "engine.holds",
    )

    def params(self):
        return {"members": self.n_members, "stocks": self.n_stocks,
                "days": self.n_days, "connector": "in-memory",
                "prune": "on", "users": [u for u, _ in USERS],
                "zipf_exponent": self.zipf_exponent,
                "mix": "shuffled deck per 20 ops",
                "above_thresholds": "between consecutive quotes, uniform",
                "max_workers": MAX_WORKERS}

    def build(self, seed):
        return _ReadRun(self, seed)


class _ReadRun:
    def __init__(self, spec, seed):
        self.spec = spec
        data = _stock_data(seed, spec.n_stocks, spec.n_days)
        self.data = data
        self.federation = _build_federation(
            data, spec.n_members,
            lambda index, relations: InMemoryConnector(relations),
        )
        self.engine = self.federation.engine
        self.rng = random.Random(f"{seed}/read-mix")
        self.cum = _zipf_cum_weights(spec.n_members, spec.zipf_exponent)
        prices = data.prices
        self.series = {
            symbol: {(day, prices[(day, symbol)]) for day in data.days}
            for symbol in data.symbols
        }
        self.highest = {
            symbol: max(prices[(day, symbol)] for day in data.days)
            for symbol in data.symbols
        }
        self.low = int(min(prices.values()))
        self.high = int(max(prices.values()))
        # "closed above T" thresholds sit between consecutive quotes, so
        # the number of rows above T (which sets the query's cost) is
        # uniform over 0..quotes whatever the seed's prices.
        quotes = sorted(prices.values())
        self.cuts = [round(cut, 2) for cut in (
            [quotes[0] - 1] + [(lower + upper) / 2
                               for lower, upper in zip(quotes, quotes[1:])]
            + [quotes[-1] + 1])]
        self.deck = []
        for kind in spec.weights:  # warm every pruned overlay a read uses
            self._op(kind).run()

    def _member(self):
        index = self.rng.choices(range(self.spec.n_members),
                                 cum_weights=self.cum)[0]
        return f"m{index:02d}", STYLES[index % len(STYLES)]

    def next_op(self):
        # Kinds are dealt from a shuffled deck holding each kind in
        # proportion to its weight, so every seed has the same mix.
        if not self.deck:
            self.deck = _deck(self.spec.weights)
            self.rng.shuffle(self.deck)
        return self._op(self.deck.pop())

    def _op(self, kind):
        rng, federation = self.rng, self.federation
        symbol = rng.choice(self.data.symbols)
        if kind == "member-point":
            member, style = self._member()
            text = {
                "euter": f"?.{member}.r(.stkCode={symbol}, .date=D, "
                         f".clsPrice=P)",
                "chwab": f"?.{member}.r(.date=D, .{symbol}=P)",
                "ource": f"?.{member}.{symbol}(.date=D, .clsPrice=P)",
            }[style]
            return Op("query", kind, lambda: federation.query(text),
                      _expect_set(self.series[symbol], "D", "P"))
        if kind == "unified":
            text = f"?.dbI.p(.stk={symbol}, .date=D, .price=P)"
            return Op("query", kind, lambda: federation.query(text),
                      _expect_set(self.series[symbol], "D", "P"))
        if kind == "dbO":
            text = f"?.dbO.{symbol}(.date=D, .clsPrice=P)"
            return Op("query", kind, lambda: federation.query(text),
                      _expect_set(self.series[symbol], "D", "P"))
        if kind == "above":
            threshold = rng.choice(self.cuts)
            member, style = self._member()
            text = {
                "euter": f"?.{member}.r(.stkCode=S, .clsPrice>{threshold})",
                "chwab": f"?.{member}.r(.S>{threshold}), S != date",
                "ource": f"?.{member}.S(.clsPrice>{threshold})",
            }[style]
            expected = {(s,) for s, top in self.highest.items()
                        if top > threshold}
            return Op("query", kind, lambda: federation.query(text),
                      _expect_set(expected, "S"))
        threshold = rng.randint(self.low, self.high)
        text = f"?.dbE.r(.stkCode={symbol}, .clsPrice>{threshold})"
        expected = self.highest[symbol] > threshold

        def check(result):
            return None if result is expected else (
                f"ask expected {expected}, got {result!r}")
        return Op("query", kind, lambda: federation.ask(text), check)

    def after_op(self, op):
        pass

    def final_check(self):
        return []

    def close(self):
        self.federation.executor.shutdown()


# -- write-mix ---------------------------------------------------------------


class WriteMix:
    name = "write-mix"
    why = ("Writes beside reads: update executor, maintenance, staging, "
           "journal, executor fan-out and connector applies carry the load.")
    n_members = 16
    n_stocks = 6
    n_days = 8
    latency = 0.002
    #: One write, then three reads, repeating: a fixed cycle rather
    #: than a random draw, so every seed has the same share of writes
    #: and of reads that follow a write.
    weights = {"write": 1, "read": 3}
    #: The three reads after a write all take one shape, which changes
    #: every two cycles (writes alternate insert and delete once the key
    #: pool is primed, so each shape follows both). A write invalidates
    #: the pruned overlays: the first read after it rebuilds one and the
    #: other two reuse it, so exactly one read in three is slow for every
    #: seed, and the query median stays among the fast reads instead of
    #: on the edge between fast and slow ones.
    read_shapes = ("unified", "dbO")
    #: Inserted keys come from a fixed pool of new (day, stock) pairs
    #: and are deleted again once ``live_keys`` are outstanding, so the
    #: data size stays stationary.
    new_stocks = ("zqa", "zqb")
    new_days = ("9/1/99", "9/2/99")
    live_keys = 3
    #: The in-memory journal is compacted (outside the timed region)
    #: after this many updates, so memory does not grow with run length.
    compact_every = 32
    kinds = ("query", "update")
    trace_ops = 400
    required = (
        "Federation.query", "Federation.update", "Federation.call",
        "fixpoint.materialize_strata", "fixpoint.maintain_stratum",
        "UpdateExecutor.execute_request",
        "federation.universe_rows", "UpdateJournal.begin",
        "UpdateJournal.record_member", "UpdateJournal.commit",
        "journal.encode_record", "ResilientConnector.scan",
        "ResilientConnector.apply", "FaultyConnector.scan",
        "FaultyConnector.apply", "InMemoryConnector.scan",
        "InMemoryConnector.apply", "MemberExecutor.map", "MemberTask.fn",
    )

    def params(self):
        return {"members": self.n_members, "stocks": self.n_stocks,
                "days": self.n_days,
                "connector": "FaultyConnector(InMemoryConnector), no faults",
                "latency_s": self.latency, "journal": "in-memory",
                "parallel": "on", "prune": "on",
                "users": [u for u, _ in USERS],
                "key_pool": len(self.new_days) * (len(self.new_stocks) + 2),
                "live_keys": self.live_keys,
                "read_shapes": list(self.read_shapes),
                "compact_every": self.compact_every,
                "max_workers": MAX_WORKERS}

    def build(self, seed):
        return _WriteRun(self, seed)


class _WriteRun:
    def __init__(self, spec, seed):
        self.spec = spec
        data = _stock_data(seed, spec.n_stocks, spec.n_days)
        self.data = data
        clock = MonotonicClock()
        self.federation = _build_federation(
            data, spec.n_members,
            lambda index, relations: FaultyConnector(
                InMemoryConnector(relations), latency=spec.latency,
                clock=clock, stream=index,
            ),
        )
        self.engine = self.federation.engine
        self.rng = random.Random(f"{seed}/write-mix")
        self.ledger = dict(data.prices)
        self.stocks = list(data.symbols) + list(spec.new_stocks)
        self.pool = [(day, stock) for day in spec.new_days
                     for stock in list(spec.new_stocks) + data.symbols[:2]]
        self.live = deque()
        self.last_stock = None
        self.since_compact = 0
        self.issued = 0
        for symbol in (data.symbols[0], spec.new_stocks[0]):  # warm reads
            self._read("unified", symbol).run()
            self._read("dbO", symbol).run()

    def next_op(self):
        weights = self.spec.weights
        cycle, position = divmod(self.issued, sum(weights.values()))
        self.issued += 1
        if position < weights["write"]:
            if len(self.live) < self.spec.live_keys:
                return self._insert()
            return self._delete()
        shapes = self.spec.read_shapes
        shape = shapes[cycle // 2 % len(shapes)]
        if self.last_stock is not None and self.rng.random() < 0.5:
            symbol = self.last_stock
        else:
            symbol = self.rng.choice(self.stocks)
        return self._read(shape, symbol)

    def _read(self, shape, symbol):
        federation = self.federation
        if shape == "unified":
            text = f"?.dbI.p(.stk={symbol}, .date=D, .price=P)"
        else:
            text = f"?.dbO.{symbol}(.date=D, .clsPrice=P)"
        expected = {(day, price) for (day, stock), price in self.ledger.items()
                    if stock == symbol}

        def check(answers):
            # A chwab/ource delete leaves a null cell, which the unified
            # view carries as a null-priced fact: not a quote.
            got = _pairs([a for a in answers if a["P"] is not None],
                         "D", "P")
            if got != expected:
                return f"{text}: expected {sorted(expected)!r}, got {answers!r}"
            return None
        return Op("query", shape, lambda: federation.query(text), check)

    def _insert(self):
        rng, federation = self.rng, self.federation
        day, stock = rng.choice([key for key in self.pool
                                 if key not in self.live])
        price = round(rng.uniform(20.0, 200.0), 2)
        self.live.append((day, stock))
        self.ledger[(day, stock)] = price
        self.last_stock = stock
        if rng.random() < 0.5:
            run = lambda: federation.call(  # noqa: E731
                "insStk", stk=stock, date=day, price=price)
            label = "insStk"
        else:
            text = (f"?.dbE.r+(.date={day}, .stkCode={stock}, "
                    f".clsPrice={price})")
            run = lambda: federation.update(text)  # noqa: E731
            label = "dbE.r+"
        return Op("update", label, run, _flushed,
                  row={"stk": stock, "date": day, "price": price})

    def _delete(self):
        rng, federation = self.rng, self.federation
        day, stock = self.live.popleft()
        del self.ledger[(day, stock)]
        self.last_stock = stock
        if rng.random() < 0.5:
            run = lambda: federation.call(  # noqa: E731
                "delStk", stk=stock, date=day)
            label = "delStk"
        else:
            text = f"?.dbE.r-(.date={day}, .stkCode={stock})"
            run = lambda: federation.update(text)  # noqa: E731
            label = "dbE.r-"
        return Op("update", label, run, _flushed,
                  row={"stk": stock, "date": day})

    def after_op(self, op):
        if op.kind == "update":
            self.since_compact += 1
            if self.since_compact >= self.spec.compact_every:
                self.federation.journal.compact()
                self.since_compact = 0

    def final_check(self):
        """Every connector holds exactly the ledger; no intent pending."""
        problems = []
        pending = self.federation.journal.pending()
        if pending:
            problems.append(f"journal intents still pending: {pending!r}")
        for name, style in sorted(self.federation.members.items()):
            rows = self.federation.connectors[name].connector.scan()
            held = _style_quotes(style, rows)
            if held != self.ledger:
                missing = sorted(set(self.ledger.items()) - set(held.items()))
                extra = sorted(set(held.items()) - set(self.ledger.items()))
                problems.append(f"member {name} diverges from the ledger: "
                                f"missing {missing[:3]!r}, extra {extra[:3]!r}")
        return problems

    def close(self):
        self.federation.executor.shutdown()


def _flushed(result):
    outcomes = result.member_outcomes
    if not result.flushed or "failed" in outcomes.values():
        return f"update not flushed everywhere: {outcomes!r}"
    return None


# -- closure-maintain --------------------------------------------------------


class ClosureMaintain:
    """Runnable by name, but not listed in ``BENCHMARK.json``: on a
    shared 2-vCPU host its query p50 spread 33-35% across ten seeds,
    beyond the 0.25 bound the contract allows."""

    name = "closure-maintain"
    why = ("Recursion and DRed: point edge updates repair a transitive "
           "closure in place; bypasses federation, journal, connectors "
           "and executor.")
    chains = 50
    chain_edges = 4
    join_rows = 1000
    join_keys = 20
    #: Deleted edges (and join rows) waiting to be re-inserted are kept
    #: at most this many, so the graph stays stationary.
    max_deleted = 8
    weights = {"edge-delete": 35, "edge-insert": 35, "join-update": 15,
               "reach": 15}
    kinds = ("query", "update")
    trace_ops = 400
    required = ("fixpoint.maintain_stratum",
                "UpdateExecutor.execute_request")

    def params(self):
        return {"chains": self.chains, "chain_edges": self.chain_edges,
                "join_rows": self.join_rows, "join_keys": self.join_keys,
                "max_deleted": self.max_deleted,
                "engine": "IdlEngine(obs=None)"}

    def build(self, seed):
        return _ClosureRun(self, seed)


class _ClosureRun:
    def __init__(self, spec, seed):
        self.spec = spec
        self.rng = rng = random.Random(f"{seed}/closure-maintain")
        self.edges = [(chain * 10 + i, chain * 10 + i + 1)
                      for chain in range(spec.chains)
                      for i in range(spec.chain_edges)]
        self.nodes = sorted({node for edge in self.edges for node in edge})
        self.rows = [(x, rng.randrange(spec.join_keys))
                     for x in range(spec.join_rows)]
        self.deleted_edges = []
        self.deleted_rows = []
        engine = self.engine = IdlEngine()
        engine.add_database("g", {"edge": [{"a": a, "b": b}
                                           for a, b in self.edges]})
        engine.add_database("a", {"r": [{"x": x, "k": k}
                                        for x, k in self.rows]})
        engine.add_database("b", {"s": [{"k": k, "y": k * 10}
                                        for k in range(spec.join_keys)]})
        engine.define(".v.j(.x=X, .y=Y) <- .a.r(.x=X, .k=K), "
                      ".b.s(.k=K, .y=Y)")
        engine.define(".g.tc(.a=X, .b=Y) <- .g.edge(.a=X, .b=Y)")
        engine.define(".g.tc(.a=X, .b=Y) <- .g.tc(.a=X, .b=Z), "
                      ".g.edge(.a=Z, .b=Y)")
        engine.materialized_view()
        engine.query("?.g.tc(.a=X, .b=Y)")
        engine.query("?.v.j(.x=X, .y=Y)")

    def next_op(self):
        kind = _pick(self.rng, self.spec.weights)
        if kind == "reach":
            return self._reach()
        if kind == "join-update":
            return self._move(self.rows, self.deleted_rows, "a.r",
                              ("x", "k"))
        insert = kind == "edge-insert"
        if not self.deleted_edges:
            insert = False
        elif len(self.deleted_edges) >= self.spec.max_deleted:
            insert = True
        return self._move(self.edges, self.deleted_edges, "g.edge",
                          ("a", "b"), insert)

    def _move(self, present, deleted, relation, attrs, insert=None):
        """Delete a present tuple, or re-insert a deleted one."""
        rng, engine = self.rng, self.engine
        if insert is None:
            insert = bool(deleted) and (
                len(deleted) >= self.spec.max_deleted or rng.random() < 0.5)
        source, target = (deleted, present) if insert else (present, deleted)
        index = rng.randrange(len(source))
        source[index], source[-1] = source[-1], source[index]
        values = source.pop()
        target.append(values)
        sign = "+" if insert else "-"
        fields = ", ".join(f".{attr}={value}"
                           for attr, value in zip(attrs, values))
        text = f"?.{relation}{sign}({fields})"

        def check(result):
            moved = result.inserted if insert else result.deleted
            return None if moved == 1 else f"{text}: changed {moved} rows"
        return Op("update", f"{relation}{sign}", lambda: engine.update(text),
                  check, row=dict(zip(attrs, values)))

    def _reach(self):
        node = self.rng.choice(self.nodes)
        text = f"?.g.tc(.a={node}, .b=Y)"
        expected = {(y,) for y in _reachable(self.edges, node)}
        return Op("query", "reach", lambda: self.engine.query(text),
                  _expect_set(expected, "Y"))

    def after_op(self, op):
        pass

    def final_check(self):
        problems = []
        closure = {(x, y) for x in self.nodes
                   for y in _reachable(self.edges, x)}
        got = _pairs(self.engine.query("?.g.tc(.a=X, .b=Y)"), "X", "Y")
        if got != closure:
            problems.append("transitive closure diverges from the BFS")
        keyed = {k: k * 10 for k in range(self.spec.join_keys)}
        join = {(x, keyed[k]) for x, k in self.rows}
        got = _pairs(self.engine.query("?.v.j(.x=X, .y=Y)"), "X", "Y")
        if got != join:
            problems.append("join view diverges from the base rows")
        return problems

    def close(self):
        pass


def _reachable(edges, start):
    adjacency = {}
    for a, b in edges:
        adjacency.setdefault(a, []).append(b)
    seen = set()
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for nxt in adjacency.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


WORKLOADS = {spec.name: spec for spec in (ReadMix(), WriteMix(),
                                          ClosureMaintain())}
