"""Depth-bounded detection over the call graph.

A seed flags the app when the marks within ``depth - 1`` call edges of it
cover all three criterion categories, ``rules.CATEGORIES``. One
bit-vector fixpoint over the call graph gives every seed's verdict; evidence
is built only for the seeds it reports. Each finding also names, per category,
a witness chain: the lexically smallest shortest call chain from the seed to
the closest evidence method.

Both kernels run on the call graph's method ids (see ``CallGraph``), with
their state in lists indexed by id. Ids sort as the methods do, so sorting ids
sorts by method identity.

Each reported seed costs one breadth-first search, ring by ring, expanding
callees in id order. The first path to reach a node is then the lexically
smallest of its shortest paths, so the BFS parents give the witness chains,
and the rings, each sorted, give the evidence in (distance, method) order. The
parent pointers are one list per app, and each search resets only the entries
it set, so a search costs what it reaches, not the size of the app. An
evidence row depends only on its method and distance, so each is built once
per app and shared by every finding that reports it; the rows live for one
``detect_app`` call, so memory stays bounded by the largest app.
"""

from __future__ import annotations

from collections import defaultdict
from typing import NamedTuple

from .callgraph import CallGraph, build_callgraph
from .rules import (
    CATEGORIES,
    KeywordHit,
    MarkMemo,
    MarkSet,
    PathSourceHit,
    RuleSet,
    WriteSinkHit,
    default_ruleset,
    mark_function,
)
from .smali_ir import AppModel, MethodRef, Record


class DetectorConfig(Record):
    """``rules`` defaults to a fresh ``default_ruleset()``. ``depth`` reads 3 on the
    class, the CLI's default, so a config keeps its fields in a ``__dict__``, not slots."""

    _fields = ("depth", "rules")
    depth = 3

    def __init__(self, depth: int = depth, rules: RuleSet | None = None):
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self.depth, self.rules = depth, default_ruleset() if rules is None else rules


class Evidence(NamedTuple):
    method: MethodRef
    hit: KeywordHit | PathSourceHit | WriteSinkHit
    distance: int  # call distance from the seed


# One seed's Evidence, a list per name in ``rules.CATEGORIES``.
ConditionSet = NamedTuple("ConditionSet", [(c, list) for c in CATEGORIES])


class Finding(Record):
    # witness_chains maps each category to its witness chain (see the module docstring).
    __slots__ = _fields = ("seed", "conditions", "witness_chains")

    def __init__(self, seed: MethodRef, conditions: ConditionSet, witness_chains: dict[str, list[MethodRef]]):
        self.seed, self.conditions, self.witness_chains = seed, conditions, witness_chains


class DetectionResult(Record):
    __slots__ = _fields = ("app_id", "findings", "diagnostics")

    def __init__(self, app_id: str, findings: list[Finding] | None = None, diagnostics: list[str] | None = None):
        self.app_id, self.findings = app_id, [] if findings is None else findings
        self.diagnostics = [] if diagnostics is None else diagnostics

    @property
    def flagged(self) -> bool:
        return bool(self.findings)


def _covering_seeds(g: CallGraph, marks: dict[MethodRef, MarkSet], depth: int) -> list[MethodRef]:
    """The seeds, in ``marks`` order, whose marks within ``depth - 1`` edges
    cover every category.

    Bit ``i`` of a method's mask is set iff it has a hit in category ``i``.
    After round ``j``, ``reach[n]`` ORs the masks within ``j`` edges of ``n``.
    Each round passes only the bits new in the last one on to the callers of
    the methods that gained them. A mask gains bits at most three times, so
    the rounds together cost at most three passes over the edges, whatever
    the depth.
    """
    ids = g.ids
    reach = [0] * len(g.nodes)
    for n, ms in marks.items():
        if any(ms):
            reach[ids[n]] = sum(1 << i for i, hits in enumerate(ms) if hits)
    new = {i: r for i, r in enumerate(reach) if r}  # id -> bits gained in the last round
    if depth > 1 and new:
        callers: list[list[int]] = [[] for _ in reach]
        for i, callees in enumerate(g.callees):
            for c in callees:
                callers[c].append(i)
        for _ in range(depth - 1):
            gained: dict[int, int] = {}
            for c, bits in new.items():
                for i in callers[c]:
                    add = bits & ~reach[i]
                    if add:
                        reach[i] |= add
                        gained[i] = gained.get(i, 0) | add
            if not gained:
                break
            new = gained
    full = (1 << len(ConditionSet._fields)) - 1
    return [n for n in marks if reach[ids[n]] == full]


def detect_app(
    app: AppModel, config: DetectorConfig, *, graph: CallGraph | None = None
) -> DetectionResult:
    """Run detection over one app, collecting every satisfying seed.

    ``flagged`` is true iff at least one seed covers all three categories
    within the configured depth. Findings keep the app's class/method source
    order, so identical inputs always serialize identically. ``graph`` is the
    app's call graph when the caller has already built it.
    """
    memo = MarkMemo(config.rules)
    marks = {m.key: mark_function(m, memo) for cls in app.classes for m in cls.methods}
    if not all(map(any, zip(*marks.values()))):
        return DetectionResult(app.app_id, [])  # a category no method hits: no seed can cover it
    g = build_callgraph(app) if graph is None else graph
    seeds = _covering_seeds(g, marks, config.depth)
    if not seeds:
        return DetectionResult(app.app_id, [])
    nodes, ids, callees = g.nodes, g.ids, g.callees
    marked: list[MarkSet | None] = [None] * len(nodes)  # by id; None when unmarked
    for n, ms in marks.items():
        if any(ms):
            marked[ids[n]] = ms
    # parent[i] is i's BFS parent for the current seed, the seed's own id for
    # the seed, and -1 for a method not reached. Each seed resets what it reached.
    parent = [-1] * len(nodes)
    rows: defaultdict[int, dict[int, ConditionSet]] = defaultdict(dict)  # distance -> id -> rows
    findings: list[Finding] = []
    for seed in seeds:
        s = ids[seed]
        parent[s] = s
        ring, reached = [s], [s]
        keyword, path_source, write_sink = conditions = ConditionSet([], [], [])
        for d in range(config.depth):
            if d:
                nxt = []
                for node in ring:
                    for callee in callees[node]:
                        if parent[callee] < 0:
                            parent[callee] = node
                            nxt.append(callee)
                if not nxt:
                    break  # the BFS is exhausted; depth may far exceed the graph's
                reached += nxt
                ring = nxt
            built = rows[d]
            for node in sorted(filter(marked.__getitem__, ring)):
                ev = built.get(node)
                if ev is None:
                    ref = nodes[node]
                    ev = built[node] = ConditionSet._make(
                        [Evidence(ref, h, d) for h in hits] for hits in marked[node]
                    )
                keyword += ev.keyword
                path_source += ev.path_source
                write_sink += ev.write_sink
        # A category's first row is its closest method, ties broken lexically.
        chains = {}
        for category, evidence in zip(ConditionSet._fields, conditions):
            path, node = [], ids[evidence[0].method]
            while node != s:
                path.append(nodes[node])
                node = parent[node]
            path.append(seed)
            chains[category] = path[::-1]
        findings.append(Finding(seed, conditions, chains))
        for node in reached:
            parent[node] = -1
    return DetectionResult(app.app_id, findings)
