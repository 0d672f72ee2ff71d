"""Graph-level operations shared by automata: reachability and SCCs."""

from __future__ import annotations

from typing import Callable, Hashable, Iterable


def strongly_connected_subgraphs(
    nodes: Iterable[Hashable], successors: Callable[[Hashable], Iterable[Hashable]]
) -> list:
    """SCCs of an arbitrary digraph given by a successor function.

    ``nodes`` fixes the vertex set *and* the iteration order (making the
    result deterministic for ordered inputs); edges leading outside ``nodes``
    are ignored.  Iterative Tarjan — no recursion limit, no networkx
    dependency — so it is usable on automata whose states are not Kripke
    states (the NBA pruning path).  Components are returned as lists in
    Tarjan completion order.
    """
    node_list = list(nodes)
    members = set(node_list)
    index: dict = {}
    low: dict = {}
    on_stack: set = set()
    stack: list = []
    components: list = []
    counter = 0
    for root in node_list:
        if root in index:
            continue
        work = [(root, iter(successors(root)))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, edges = work[-1]
            descended = False
            for child in edges:
                if child not in members:
                    continue
                if child not in index:
                    index[child] = low[child] = counter
                    counter += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(successors(child))))
                    descended = True
                    break
                if child in on_stack and index[child] < low[node]:
                    low[node] = index[child]
            if descended:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if low[node] < low[parent]:
                    low[parent] = low[node]
            if low[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
    return components


def cycle_nodes(
    nodes: Iterable[Hashable], successors: Callable[[Hashable], Iterable[Hashable]]
) -> set:
    """Nodes lying on some cycle: members of a nontrivial SCC or self-looping.

    The complement is exactly the set of states an accepting run can visit
    only finitely often — what the Büchi pruning pass discards when no
    accepting state survives here.
    """
    on_cycle: set = set()
    for component in strongly_connected_subgraphs(nodes, successors):
        if len(component) > 1:
            on_cycle.update(component)
        else:
            (node,) = component
            if node in set(successors(node)):
                on_cycle.add(node)
    return on_cycle


def backward_reachable(
    nodes: Iterable[Hashable],
    successors: Callable[[Hashable], Iterable[Hashable]],
    targets: Iterable[Hashable],
) -> set:
    """Nodes from which some target is reachable (inverts the edge relation).

    Restricted to ``nodes``; targets outside it are ignored.
    """
    node_list = list(nodes)
    members = set(node_list)
    predecessors: dict = {node: [] for node in node_list}
    for node in node_list:
        for child in successors(node):
            if child in members:
                predecessors[child].append(node)
    seen = {t for t in targets if t in members}
    stack = list(seen)
    while stack:
        node = stack.pop()
        for pred in predecessors[node]:
            if pred not in seen:
                seen.add(pred)
                stack.append(pred)
    return seen
