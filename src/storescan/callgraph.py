"""App-internal call graph, with each app's methods numbered once.

A method's id is its index in the sorted list of the app's methods, so ids
sort as the methods do and the detector's kernels can run on int lists.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from .smali_ir import AppModel, Invoke, MethodRef


class CallGraph:
    """``nodes`` is the app's methods in sorted order and ``ids`` maps each to its
    index there. ``callees[i]`` lists the ids method ``i`` calls, sorted and without
    duplicates. ``edges`` builds the same graph keyed by ``MethodRef``."""

    __slots__ = ("nodes", "ids", "callees")

    def __init__(self, edges: Mapping[MethodRef, Iterable[MethodRef]]):
        """Number ``edges``' keys. A callee that is not a key gets no edge."""
        self.nodes = nodes = sorted(edges)
        self.ids = ids = {n: i for i, n in enumerate(nodes)}
        self.callees = callees = []
        for n in nodes:
            called = set(map(ids.get, edges[n]))
            called.discard(None)
            callees.append(sorted(called))

    @property
    def edges(self) -> dict[MethodRef, list[MethodRef]]:
        """caller -> callees, a fresh dict built from ``nodes`` and ``callees`` on each read."""
        nodes = self.nodes
        return {n: [nodes[c] for c in callees] for n, callees in zip(nodes, self.callees)}


def build_callgraph(app: AppModel) -> CallGraph:
    """Resolve every invoke to an app-defined method by exact identity triple.

    A target with no exact match gets no edge; no class-hierarchy or
    virtual-dispatch resolution is attempted.
    """
    return CallGraph(
        {
            m.key: [ins.target for ins in m.body if isinstance(ins, Invoke)]
            for cls in app.classes
            for m in cls.methods
        }
    )


def edge_list_text(g: CallGraph) -> str:
    """Deterministic debug dump: one ``caller<TAB>callee`` line, lexically sorted."""
    lines = sorted(f"{caller}\t{callee}" for caller, callees in g.edges.items() for callee in callees)
    return "".join(line + "\n" for line in lines)
