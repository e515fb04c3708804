"""Depth-bounded detection over the call graph.

A seed flags the app when the marks within ``depth - 1`` call edges of it
cover all three criterion categories, the fields of ``ConditionSet``. One
bit-vector fixpoint over the call graph gives every seed's verdict; evidence
is built only for the seeds it reports. Each finding also names, per category,
a witness chain: the lexically smallest shortest call chain from the seed to
the closest evidence method.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .callgraph import CallGraph, build_callgraph, distances_within
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

    def satisfied(self) -> bool:
        return all(self)


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


def accumulate(
    seed: MethodRef,
    g: CallGraph,
    marks: dict[MethodRef, MarkSet],
    depth: int,
) -> ConditionSet:
    """Union the marks of every method within ``depth - 1`` call edges of seed.

    The result is fresh per seed; evidence is ordered by (distance, method)
    and then by source order within a method.
    """
    dist = distances_within(g, seed, depth - 1)
    # Unmarked nodes add no rows, so only marked ones are sorted.
    nodes = sorted((d, n) for n, d in dist.items() if any(marks[n]))
    return ConditionSet._make(
        [Evidence(n, h, d) for d, n in nodes for h in marks[n][i]]
        for i in range(len(ConditionSet._fields))
    )


def _covering_seeds(g: CallGraph, marks: dict[MethodRef, MarkSet], depth: int) -> list[MethodRef]:
    """The seeds, in ``g.edges`` order, that ``accumulate`` would find satisfied.

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


def _witness_chains(
    g: CallGraph, seed: MethodRef, conditions: ConditionSet
) -> dict[str, list[MethodRef]]:
    # Each category's first evidence row is its closest method, ties broken
    # lexically. Callees are expanded in sorted order, so the first path to
    # reach a node is the lexically smallest of its shortest paths.
    targets = {category: evidence[0] for category, evidence in conditions._asdict().items()}
    paths = {seed: [seed]}
    frontier = [seed]
    for _ in range(max(e.distance for e in targets.values())):
        nxt = []
        for node in frontier:
            for callee in sorted(g.edges[node]):
                if callee not in paths:
                    paths[callee] = paths[node] + [callee]
                    nxt.append(callee)
        frontier = nxt
    return {category: paths[e.method] for category, e in targets.items()}


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
    findings: list[Finding] = []
    for seed in _covering_seeds(g, marks, config.depth):
        conditions = accumulate(seed, g, marks, config.depth)
        findings.append(Finding(seed, conditions, _witness_chains(g, seed, conditions)))
    return DetectionResult(app.app_id, findings)
