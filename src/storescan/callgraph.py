"""App-internal call graph."""

from __future__ import annotations

from collections.abc import KeysView
from dataclasses import dataclass, field

from .smali_ir import AppModel, Invoke, MethodRef


@dataclass
class CallGraph:
    #: caller -> app-defined callees, sorted and without duplicates. Every
    #: app-defined method is a key, callees or not; an invoke target the app
    #: does not define gets no edge.
    edges: dict[MethodRef, list[MethodRef]] = field(default_factory=dict)

    def __post_init__(self):
        # The detector's witness chains need this order; every graph has it.
        for callees in self.edges.values():
            callees.sort()

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
        edges[m.key] = list({t for t in targets if t in defined})
    return CallGraph(edges)


def edge_list_text(g: CallGraph) -> str:
    """Deterministic debug dump: one ``caller<TAB>callee`` line, lexically sorted."""
    lines = sorted(f"{caller}\t{callee}" for caller, callees in g.edges.items() for callee in callees)
    return "".join(line + "\n" for line in lines)
