"""Depth-bounded detection over the call graph.

Every method is tried as a seed. A seed flags the app when the union of
rule marks over everything it can reach within ``depth - 1`` call edges
covers all three criterion categories (keyword, path source, write sink).
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
from .smali_ir import AppModel, MethodKey


@dataclass
class DetectorConfig:
    depth: int = 3
    rules: RuleSet = field(default_factory=default_ruleset)

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be >= 1")


class Evidence(NamedTuple):
    method: MethodKey
    hit: KeywordHit | PathSourceHit | WriteSinkHit
    distance: int  # call distance from the seed


@dataclass
class ConditionSet:
    """Criterion evidence accumulated for one seed."""

    keyword: list[Evidence] = field(default_factory=list)
    path_source: list[Evidence] = field(default_factory=list)
    write_sink: list[Evidence] = field(default_factory=list)

    def satisfied(self) -> bool:
        return bool(self.keyword and self.path_source and self.write_sink)


@dataclass
class Finding:
    seed: MethodKey
    conditions: ConditionSet
    #: category -> shortest call chain from the seed to an evidence method.
    witness_chains: dict[str, list[MethodKey]]


@dataclass
class DetectionResult:
    app_id: str
    findings: list[Finding] = field(default_factory=list)
    diagnostics: list[str] = field(default_factory=list)

    @property
    def flagged(self) -> bool:
        return bool(self.findings)


def accumulate(
    seed: MethodKey,
    g: CallGraph,
    marks: dict[MethodKey, MarkSet],
    depth: int,
) -> ConditionSet:
    """Union the marks of every method within ``depth - 1`` call edges of seed.

    The result is fresh per seed; evidence is ordered by (distance, method)
    and then by source order within a method.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    dist = distances_within(g, seed, depth - 1)
    conditions = ConditionSet()
    for node in sorted(dist, key=lambda n: (dist[n], n)):
        ms = marks[node]
        d = dist[node]
        conditions.keyword.extend(Evidence(node, h, d) for h in ms.keyword_hits)
        conditions.path_source.extend(Evidence(node, h, d) for h in ms.path_source_hits)
        conditions.write_sink.extend(Evidence(node, h, d) for h in ms.write_sink_hits)
    return conditions


def _reverse_adjacency(g: CallGraph) -> dict[MethodKey, list[MethodKey]]:
    rev: dict[MethodKey, list[MethodKey]] = {n: [] for n in g.nodes}
    for caller, callees in g.edges.items():
        for callee in callees:
            rev[callee].append(caller)
    return rev


def _witness_chain(
    g: CallGraph,
    rev: dict[MethodKey, list[MethodKey]],
    seed: MethodKey,
    evidence: list[Evidence],
) -> list[MethodKey]:
    # Chain to the closest evidence method; ties and path choices both break
    # lexically so output is deterministic.
    best = min(evidence, key=lambda e: (e.distance, e.method))
    target, d = best.method, best.distance
    if d == 0:
        return [seed]
    rdist = {target: 0}
    frontier = [target]
    for hop in range(1, d + 1):
        nxt = []
        for node in frontier:
            for caller in rev[node]:
                if caller not in rdist:
                    rdist[caller] = hop
                    nxt.append(caller)
        frontier = nxt
    chain = [seed]
    cur = seed
    for remaining in range(d - 1, -1, -1):
        cur = min(n for n in g.edges[cur] if rdist.get(n) == remaining)
        chain.append(cur)
    return chain


def detect_app(app: AppModel, config: DetectorConfig) -> DetectionResult:
    """Run detection over one app, collecting every satisfying seed.

    ``flagged`` is true iff at least one seed covers all three categories
    within the configured depth. Findings keep the app's class/method source
    order, so identical inputs always serialize identically.
    """
    g = build_callgraph(app)
    marks: dict[MethodKey, MarkSet] = {}
    for cls in app.classes:
        for m in cls.methods:
            marks[m.key] = mark_function(m, config.rules)

    rev = _reverse_adjacency(g)
    findings: list[Finding] = []
    for cls in app.classes:
        for m in cls.methods:
            conditions = accumulate(m.key, g, marks, config.depth)
            if not conditions.satisfied():
                continue
            chains = {
                "keyword": _witness_chain(g, rev, m.key, conditions.keyword),
                "path_source": _witness_chain(g, rev, m.key, conditions.path_source),
                "write_sink": _witness_chain(g, rev, m.key, conditions.write_sink),
            }
            findings.append(Finding(m.key, conditions, chains))
    return DetectionResult(app.app_id, findings)
