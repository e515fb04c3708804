"""Independent brute-force oracles, deliberately built on networkx rather
than the package's own graph code."""

from __future__ import annotations

import networkx as nx


def _digraph(adjacency: dict) -> nx.DiGraph:
    g = nx.DiGraph()
    g.add_nodes_from(adjacency)
    for a, callees in adjacency.items():
        for b in callees:
            g.add_edge(a, b)
    return g


def reachable_oracle(adjacency: dict, seed, k: int) -> set:
    """Nodes within k edges of seed, by breadth-first enumeration."""
    g = _digraph(adjacency)
    return set(nx.single_source_shortest_path_length(g, seed, cutoff=k))


def flagged_oracle(
    adjacency: dict[int, list[int]],
    kw_nodes: set[int],
    path_nodes: set[int],
    sink_nodes: set[int],
    depth: int,
) -> bool:
    """True iff some seed reaches all three categories within depth-1 edges."""
    g = _digraph(adjacency)
    for seed in adjacency:
        reach = set(nx.single_source_shortest_path_length(g, seed, cutoff=depth - 1))
        if reach & kw_nodes and reach & path_nodes and reach & sink_nodes:
            return True
    return False


def satisfying_seeds_oracle(
    adjacency: dict[int, list[int]],
    kw_nodes: set[int],
    path_nodes: set[int],
    sink_nodes: set[int],
    depth: int,
) -> set[int]:
    g = _digraph(adjacency)
    seeds = set()
    for seed in adjacency:
        reach = set(nx.single_source_shortest_path_length(g, seed, cutoff=depth - 1))
        if reach & kw_nodes and reach & path_nodes and reach & sink_nodes:
            seeds.add(seed)
    return seeds


def witness_chain_oracle(adjacency: dict, seed, marked: set, depth: int) -> list | None:
    """The lexically smallest shortest path from seed to the closest marked
    node within depth-1 edges, closeness tied on node order; None if none."""
    g = _digraph(adjacency)
    dist = nx.single_source_shortest_path_length(g, seed, cutoff=depth - 1)
    reached = [n for n in dist if n in marked]
    if not reached:
        return None
    target = min(reached, key=lambda n: (dist[n], n))
    return min(nx.all_shortest_paths(g, seed, target))


def evidence_oracle(adjacency: dict, marks: dict, seed, depth: int) -> dict[str, list[tuple]]:
    """Per category, (method, hit, distance) for every hit within depth-1
    edges of seed: methods by (distance, key), hits in source order."""
    g = _digraph(adjacency)
    dist = nx.single_source_shortest_path_length(g, seed, cutoff=depth - 1)
    nodes = sorted(dist, key=lambda n: (dist[n], n))
    return {
        "keyword": [(n, h, dist[n]) for n in nodes for h in marks[n].keyword_hits],
        "path_source": [(n, h, dist[n]) for n in nodes for h in marks[n].path_source_hits],
        "write_sink": [(n, h, dist[n]) for n in nodes for h in marks[n].write_sink_hits],
    }
