"""Depth-bounded detection over the call graph.

A seed flags the app when the marks within ``depth - 1`` call edges of it
cover all three criterion categories, the fields of ``ConditionSet``. One
bit-vector fixpoint over the call graph gives every seed's verdict; evidence
is built only for the seeds it reports. Each finding also names, per category,
a witness chain: the lexically smallest shortest call chain from the seed to
the closest evidence method.

Each reported seed costs one breadth-first search, ring by ring, expanding
callees sorted by the call graph (``CallGraph`` keeps them so). The first path
to reach a node is then the lexically smallest of its shortest paths, so the
BFS parents give the witness chains, and the rings give the evidence in
(distance, method) order. An evidence row depends only on its method and
distance, so each is built once per app and shared by every finding that
reports it; the memo lives for one ``detect_app`` call, so memory stays
bounded by the largest app.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import NamedTuple

from .callgraph import CallGraph, build_callgraph
from .rules import (
    KeywordHit,
    MarkSet,
    PathSourceHit,
    RuleSet,
    WriteSinkHit,
    default_ruleset,
    mark_function,
)
from .smali_ir import AppModel, MethodRef


@dataclass
class DetectorConfig:
    depth: int = 3
    rules: RuleSet = field(default_factory=default_ruleset)

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be >= 1")


class Evidence(NamedTuple):
    method: MethodRef
    hit: KeywordHit | PathSourceHit | WriteSinkHit
    distance: int  # call distance from the seed


class ConditionSet(NamedTuple):
    """Criterion evidence for one seed, one list per category. The fields are
    the category names in report order; nothing else in the package lists them."""

    keyword: list[Evidence]
    path_source: list[Evidence]
    write_sink: list[Evidence]


@dataclass
class Finding:
    seed: MethodRef
    conditions: ConditionSet
    #: category -> witness chain (see the module docstring).
    witness_chains: dict[str, list[MethodRef]]


@dataclass
class DetectionResult:
    app_id: str
    findings: list[Finding] = field(default_factory=list)
    diagnostics: list[str] = field(default_factory=list)

    @property
    def flagged(self) -> bool:
        return bool(self.findings)


def _covering_seeds(g: CallGraph, marks: dict[MethodRef, MarkSet], depth: int) -> list[MethodRef]:
    """The seeds, in ``g.edges`` order, whose marks within ``depth - 1`` edges
    cover every category.

    Bit ``i`` of a method's mask is set iff it has a hit in category ``i``.
    After round ``j``, ``reach[n]`` ORs the masks within ``j`` edges of ``n``.
    """
    reach = {n: sum(1 << i for i, hits in enumerate(marks[n]) if hits) for n in g.edges}
    for _ in range(depth - 1):
        nxt = {}
        for n, callees in g.edges.items():
            r = reach[n]
            for c in callees:
                r |= reach[c]
            nxt[n] = r
        if nxt == reach:
            break
        reach = nxt
    full = (1 << len(ConditionSet._fields)) - 1
    return [n for n, r in reach.items() if r == full]


def detect_app(
    app: AppModel, config: DetectorConfig, *, graph: CallGraph | None = None
) -> DetectionResult:
    """Run detection over one app, collecting every satisfying seed.

    ``flagged`` is true iff at least one seed covers all three categories
    within the configured depth. Findings keep the app's class/method source
    order, so identical inputs always serialize identically. ``graph`` is the
    app's call graph when the caller has already built it.
    """
    g = build_callgraph(app) if graph is None else graph
    marks = {m.key: mark_function(m, config.rules) for cls in app.classes for m in cls.methods}
    seeds = _covering_seeds(g, marks, config.depth)
    # A marked method's rank is its index in sorted order, so sorting by rank
    # sorts by method identity, with cheaper comparisons.
    marked = sorted(n for n, ms in marks.items() if any(ms)) if seeds else []
    rank = {n: i for i, n in enumerate(marked)}
    rows: defaultdict[int, dict[MethodRef, ConditionSet]] = defaultdict(dict)  # distance -> method -> rows
    findings: list[Finding] = []
    for seed in seeds:
        keyword, path_source, write_sink = conditions = ConditionSet([], [], [])
        parent: dict[MethodRef, MethodRef | None] = {seed: None}
        ring = [seed]
        for d in range(config.depth):
            if d:
                nxt = []
                for node in ring:
                    for callee in g.edges[node]:
                        if callee not in parent:
                            parent[callee] = node
                            nxt.append(callee)
                if not nxt:
                    break  # the BFS is exhausted; depth may far exceed the graph's
                ring = nxt
            memo = rows[d]
            for node in sorted(filter(rank.__contains__, ring), key=rank.__getitem__):
                ev = memo.get(node)
                if ev is None:
                    ev = memo[node] = ConditionSet._make(
                        [Evidence(node, h, d) for h in hits] for hits in marks[node]
                    )
                # Named in-place extends: a loop over the categories costs a fifth of this kernel.
                keyword += ev.keyword
                path_source += ev.path_source
                write_sink += ev.write_sink
        # A category's first row is its closest method, ties broken lexically.
        chains = {}
        for category, evidence in conditions._asdict().items():
            chain, node = [], evidence[0].method
            while node is not None:
                chain.append(node)
                node = parent[node]
            chains[category] = chain[::-1]
        findings.append(Finding(seed, conditions, chains))
    return DetectionResult(app.app_id, findings)
