"""App-internal call graph and bounded reachability queries."""

from __future__ import annotations

from collections.abc import KeysView
from dataclasses import dataclass, field

from .smali_ir import AppModel, Invoke, MethodRef


class UnknownNodeError(Exception):
    """Query seed is not a method defined in the graph's app."""


@dataclass
class CallGraph:
    #: caller -> app-defined callees in first-occurrence source order,
    #: duplicates removed. Every app-defined method is a key, callees or not;
    #: an invoke target the app does not define gets no edge.
    edges: dict[MethodRef, list[MethodRef]] = field(default_factory=dict)

    @property
    def nodes(self) -> KeysView[MethodRef]:
        return self.edges.keys()


def build_callgraph(app: AppModel) -> CallGraph:
    """Resolve every invoke to an app-defined method by exact identity triple.

    A target with no exact match gets no edge; no class-hierarchy or
    virtual-dispatch resolution is attempted.
    """
    methods = [m for cls in app.classes for m in cls.methods]
    defined = {m.key for m in methods}
    edges: dict[MethodRef, list[MethodRef]] = {}
    for m in methods:
        targets = (ins.target for ins in m.body if isinstance(ins, Invoke))
        edges[m.key] = list(dict.fromkeys(t for t in targets if t in defined))
    return CallGraph(edges)


def distances_within(g: CallGraph, seed: MethodRef, k: int) -> dict[MethodRef, int]:
    """Shortest call distance from ``seed`` for every node within ``k`` edges."""
    if seed not in g.edges:
        raise UnknownNodeError(f"unknown method {MethodRef(*seed)}")
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
    lines = sorted(f"{caller}\t{callee}" for caller, callees in g.edges.items() for callee in callees)
    return "".join(line + "\n" for line in lines)
