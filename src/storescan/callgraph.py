"""App-internal call graph and bounded reachability queries."""

from __future__ import annotations

from collections.abc import KeysView
from dataclasses import dataclass, field

from .smali_ir import AppModel, Invoke, MethodKey, MethodRef, method_key_str


class UnknownNodeError(Exception):
    """Query seed is not a method defined in the graph's app."""


@dataclass
class CallGraph:
    #: caller -> callees in first-occurrence source order, duplicates removed.
    #: Every app-defined method is a key, callees or not.
    edges: dict[MethodKey, list[MethodKey]] = field(default_factory=dict)
    #: caller -> invoke targets not defined in the app, same ordering rule.
    externals: dict[MethodKey, list[MethodRef]] = field(default_factory=dict)

    @property
    def nodes(self) -> KeysView[MethodKey]:
        return self.edges.keys()


def build_callgraph(app: AppModel) -> CallGraph:
    """Resolve every invoke to an app-defined method by exact identity triple.

    Targets with no exact match are recorded per caller in ``externals``;
    no class-hierarchy or virtual-dispatch resolution is attempted.
    """
    edges: dict[MethodKey, list[MethodKey]] = {}
    externals: dict[MethodKey, list[MethodRef]] = {}
    for cls in app.classes:
        for m in cls.methods:
            edges[m.key] = []
            externals[m.key] = []

    for cls in app.classes:
        for m in cls.methods:
            seen_edges: set[MethodKey] = set()
            seen_externals: set[MethodRef] = set()
            for ins in m.body:
                if not isinstance(ins, Invoke):
                    continue
                t = ins.target
                tk = (t.class_descriptor, t.name, t.proto)
                if tk in edges:
                    if tk not in seen_edges:
                        edges[m.key].append(tk)
                        seen_edges.add(tk)
                elif t not in seen_externals:
                    externals[m.key].append(t)
                    seen_externals.add(t)
    return CallGraph(edges, externals)


def distances_within(g: CallGraph, seed: MethodKey, k: int) -> dict[MethodKey, int]:
    """Shortest call distance from ``seed`` for every node within ``k`` edges."""
    if seed not in g.edges:
        raise UnknownNodeError(f"unknown method {method_key_str(seed)}")
    if k < 0:
        raise ValueError("hop bound must be >= 0")
    dist = {seed: 0}
    frontier = [seed]
    for hop in range(1, k + 1):
        nxt = []
        for node in frontier:
            for callee in g.edges[node]:
                if callee not in dist:
                    dist[callee] = hop
                    nxt.append(callee)
        if not nxt:
            break
        frontier = nxt
    return dist


def edge_list_text(g: CallGraph) -> str:
    """Deterministic debug dump: one ``caller<TAB>callee`` line, lexically sorted."""
    lines = sorted(
        f"{method_key_str(caller)}\t{method_key_str(callee)}"
        for caller, callees in g.edges.items()
        for callee in callees
    )
    return "".join(line + "\n" for line in lines)
