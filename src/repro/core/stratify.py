"""Stratification of rule programs (paper Section 6).

"This requires the definition of the view to be stratified." We build
the rule dependency graph at the granularity of head target patterns:
rule R depends on rule S when some body reference of R could read S's
head target (conservative pattern overlap — higher-order variables
match anything). Negated references create negative edges.

The strongly connected components of the graph, in reverse topological
order, are the evaluation strata; a negative edge inside a component
means negation through recursion, which is rejected with
:class:`StratificationError`. Rules whose heads are equal up to variable
names also share a stratum, so every derived path a stratum writes has
that stratum as its one owner.
"""

from __future__ import annotations

from repro.core.ast import format_loc
from repro.core.rules import patterns_overlap
from repro.core.terms import Const
from repro.errors import StratificationError


def _functor(pattern):
    """The ground ``(db, rel)`` head of a pattern, or None if the first
    two positions are not both constants."""
    if (
        len(pattern) >= 2
        and isinstance(pattern[0], Const)
        and isinstance(pattern[1], Const)
    ):
        return (pattern[0].value, pattern[1].value)
    return None


def dependency_edges(analyzed_rules):
    """Yield ``(from_index, to_index, positive)`` rule dependencies.

    Writers are indexed by their ground head functor ``(db, rel)``, so a
    ground reference probes one bucket instead of overlap-testing every
    rule (the full O(rules²) sweep is kept only for higher-order heads
    and higher-order references, which can match anything).
    """
    ground_writers = {}  # (db, rel) -> [rule index]
    open_writers = []  # higher-order or short heads: match conservatively
    for index, writer in enumerate(analyzed_rules):
        functor = _functor(writer.target)
        if functor is None:
            open_writers.append(index)
        else:
            ground_writers.setdefault(functor, []).append(index)

    all_indices = range(len(analyzed_rules))
    for from_index, reader in enumerate(analyzed_rules):
        for pattern, positive in reader.references:
            functor = _functor(pattern)
            if functor is None:
                candidates = all_indices
            else:
                candidates = ground_writers.get(functor, ())
                if open_writers:
                    candidates = list(candidates) + open_writers
            for to_index in candidates:
                if patterns_overlap(pattern, analyzed_rules[to_index].target):
                    yield (from_index, to_index, positive)


def stratify(analyzed_rules):
    """Partition rules into evaluation strata.

    Returns a list of lists of AnalyzedRule; every rule's (positive or
    negative) dependencies live in the same or an earlier stratum,
    negative dependencies live strictly earlier, and rules with equal
    heads live in the same one.
    """
    count = len(analyzed_rules)
    positive_edges = [set() for _ in range(count)]
    negative_edges = [set() for _ in range(count)]
    for from_index, to_index, positive in dependency_edges(analyzed_rules):
        if positive:
            positive_edges[from_index].add(to_index)
        else:
            negative_edges[from_index].add(to_index)

    # Rules with equal heads are tied into one component. They have
    # identical readers (overlap looks only at the constants and their
    # positions), so a negative edge the ties pull into a component
    # already closed a cycle without them: no program that stratifies
    # untied is rejected. The ties stay out of the cycle diagnostics.
    ties = [set() for _ in range(count)]
    owners = {}
    for index, analyzed in enumerate(analyzed_rules):
        owner = owners.setdefault(_head_shape(analyzed.target), index)
        if owner != index:
            ties[owner].add(index)
            ties[index].add(owner)

    components = _tarjan_scc(count, positive_edges, negative_edges, ties)
    component_of = {}
    for component_index, members in enumerate(components):
        for member in members:
            component_of[member] = component_index

    # Negative edge within a component => not stratifiable.
    for from_index in range(count):
        for to_index in negative_edges[from_index]:
            if component_of[from_index] == component_of[to_index]:
                raise _negative_cycle_error(
                    analyzed_rules,
                    from_index,
                    to_index,
                    components[component_of[from_index]],
                    positive_edges,
                    negative_edges,
                )

    # One stratum per SCC, in topological order (dependencies first).
    # A dependency-closed subset of the rules that holds every rule of
    # each head it derives holds every SCC it touches whole, so — passed
    # in program order — it stratifies into the same SCC keys (rule
    # tuples) as the full program; the engine's overlay cache relies on
    # that to share SCCs between pruned and full queries.
    order = _component_order(components, component_of, positive_edges, negative_edges)
    strata = []
    for component_index in order:
        strata.append([analyzed_rules[member] for member in components[component_index]])
    return strata


def _head_shape(target):
    """A head target pattern up to variable names: its length and the
    constants at their positions."""
    return tuple(term if isinstance(term, Const) else None for term in target)


def _rule_label(analyzed):
    """Pretty-printed rule source plus its position, for diagnostics."""
    from repro.core.pretty import to_source

    label = f"'{to_source(analyzed.rule)}'"
    if analyzed.rule.loc is not None:
        label += f" (at {format_loc(analyzed.rule.loc)})"
    return label


def _negative_cycle_error(analyzed_rules, from_index, to_index, members,
                          positive_edges, negative_edges):
    """Build a StratificationError with a human-readable cycle trace.

    The negative edge reads ``from -> to``; the trace walks dependency
    edges from ``to`` back to ``from`` inside the offending component,
    so the message shows the full negation-through-recursion loop. The
    rule cycle is attached to the exception as ``.cycle``.
    """
    member_set = set(members)
    parents = {to_index: None}
    frontier = [to_index]
    while frontier and from_index not in parents:
        node = frontier.pop(0)
        for successor in sorted(positive_edges[node] | negative_edges[node]):
            if successor in member_set and successor not in parents:
                parents[successor] = node
                frontier.append(successor)

    path = []  # to_index ... from_index along dependency edges
    node = from_index if from_index in parents else to_index
    while node is not None:
        path.append(node)
        node = parents[node]
    path.reverse()

    trace = [from_index] + path
    lines = [
        "negation through recursion: "
        f"{_rule_label(analyzed_rules[from_index])} negatively reads the "
        "target of a rule that (transitively) depends back on it; cycle:"
    ]
    lines.append(f"  {_rule_label(analyzed_rules[trace[0]])}")
    for step_index, member in enumerate(trace[1:]):
        arrow = "--~-->" if step_index == 0 else "----->"
        lines.append(f"  {arrow} {_rule_label(analyzed_rules[member])}")
    if trace[-1] != from_index:
        lines.append(f"  -----> {_rule_label(analyzed_rules[from_index])}")

    error = StratificationError("\n".join(lines))
    error.cycle = [analyzed_rules[index] for index in trace]
    return error


def _tarjan_scc(count, positive_edges, negative_edges, ties):
    """Tarjan's SCC over the union graph; iterative to avoid deep stacks."""
    graph = [positive_edges[i] | negative_edges[i] | ties[i]
             for i in range(count)]
    index_counter = [0]
    indices = [None] * count
    lowlinks = [0] * count
    on_stack = [False] * count
    stack = []
    components = []

    for root in range(count):
        if indices[root] is not None:
            continue
        work = [(root, iter(sorted(graph[root])))]
        indices[root] = lowlinks[root] = index_counter[0]
        index_counter[0] += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            node, edge_iter = work[-1]
            advanced = False
            for successor in edge_iter:
                if indices[successor] is None:
                    indices[successor] = lowlinks[successor] = index_counter[0]
                    index_counter[0] += 1
                    stack.append(successor)
                    on_stack[successor] = True
                    work.append((successor, iter(sorted(graph[successor]))))
                    advanced = True
                    break
                if on_stack[successor]:
                    lowlinks[node] = min(lowlinks[node], indices[successor])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlinks[parent] = min(lowlinks[parent], lowlinks[node])
            if lowlinks[node] == indices[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    component.append(member)
                    if member == node:
                        break
                components.append(sorted(component))
    return components


def _component_order(components, component_of, positive_edges, negative_edges):
    """Topological order of components (dependencies before dependents)."""
    count = len(components)
    successors = [set() for _ in range(count)]
    indegree = [0] * count
    for from_index in range(len(component_of)):
        for to_index in positive_edges[from_index] | negative_edges[from_index]:
            from_component = component_of[from_index]
            to_component = component_of[to_index]
            if from_component != to_component and (
                from_component not in successors[to_component]
            ):
                successors[to_component].add(from_component)
                indegree[from_component] += 1

    ready = sorted(i for i in range(count) if indegree[i] == 0)
    order = []
    while ready:
        component = ready.pop(0)
        order.append(component)
        for dependent in sorted(successors[component]):
            indegree[dependent] -= 1
            if indegree[dependent] == 0:
                ready.append(dependent)
        ready.sort()
    if len(order) != count:
        raise StratificationError("dependency cycle detection failed")
    return order


def is_recursive_stratum(stratum):
    """Does any rule in the stratum read a target defined in the stratum?"""
    for reader in stratum:
        for pattern, _ in reader.references:
            for writer in stratum:
                if patterns_overlap(pattern, writer.target):
                    return True
    return False
