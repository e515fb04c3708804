"""Reference implementations that the package's kernels and grammars are checked against.

The brute-force oracles are deliberately built on networkx rather than the
package's own graph code. ``accumulate`` is the plain per-seed evidence
search over ``distances_within``: ``detect_app`` must report, for every seed
it flags, exactly the evidence ``accumulate`` finds. ``report_to_dict`` is the
JSON report as data: ``emit_report(r, "json")`` must equal
``json.dumps(report_to_dict(r), indent=2, ensure_ascii=False) + "\n"``.
``text_report_oracle`` renders the text report row by row, with no cache:
``emit_report(r, "text")`` must equal it.
"""

from __future__ import annotations

import re

import networkx as nx

from storescan.callgraph import CallGraph
from storescan.detector import ConditionSet, Evidence
from storescan.report import SCHEMA_VERSION, CorpusReport
from storescan.rules import KeywordHit, MarkSet, PathSourceHit, ruleset_digest
from storescan.smali_ir import MethodRef, _escape_string


# The invoke grammar as two regexes: a lazy owner group, then a descriptor check.
# Quadratic in the line's length, and it accepts an owner that contains "->".
_INVOKE_RE = re.compile(
    r"^invoke-(virtual|super|direct|static|interface)(?:/range)?\s+"
    r"\{[^}]*\}\s*,\s*(\S+?)->([^\s(]+)(\([^)]*\)\S+)$"
)
_CLASS_DESC_RE = re.compile(r"^L[^\s;]+;$")


def invoke_oracle(stripped: str) -> tuple[str, str, str, str] | None:
    """(kind, owner, name, proto) of a stripped invoke line, or None if it is not one."""
    m = _INVOKE_RE.match(stripped)
    return m.groups() if m and _CLASS_DESC_RE.match(m[2]) else None


class UnknownNodeError(Exception):
    """Query seed is not a method defined in the graph's app."""


def distances_within(g: CallGraph, seed: MethodRef, k: int) -> dict[MethodRef, int]:
    """Shortest call distance from ``seed`` for every node within ``k`` edges."""
    edges = g.edges  # a fresh dict on each read
    if seed not in edges:
        raise UnknownNodeError(f"unknown method {MethodRef(*seed)}")
    if k < 0:
        raise ValueError("hop bound must be >= 0")
    dist = {seed: 0}
    frontier = [seed]
    for hop in range(1, k + 1):
        nxt = []
        for node in frontier:
            for callee in edges[node]:
                if callee not in dist:
                    dist[callee] = hop
                    nxt.append(callee)
        if not nxt:
            break
        frontier = nxt
    return dist


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
    nodes = sorted((d, n) for n, d in dist.items() if any(marks[n]))
    return ConditionSet._make(
        [Evidence(n, h, d) for d, n in nodes for h in marks[n][i]]
        for i in range(len(ConditionSet._fields))
    )


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


def _evidence_row(e: Evidence) -> dict:
    if isinstance(e.hit, KeywordHit):
        row = {"value": e.hit.value, "keyword": e.hit.keyword}
    elif isinstance(e.hit, PathSourceHit):
        row = {"evidence": e.hit.evidence}
    else:
        row = {"target": str(e.hit.target)}
    return {**row, "method": str(e.method), "line": e.hit.line, "distance": e.distance}


def report_to_dict(report: CorpusReport) -> dict:
    """The JSON report as data, in the schema's key order."""
    return {
        "schema_version": SCHEMA_VERSION,
        "config": {
            "depth": report.config.depth,
            "rules_digest": ruleset_digest(report.config.rules),
        },
        "totals": report.totals._asdict(),
        "apps": [
            {
                "app_id": r.app_id,
                "flagged": r.flagged,
                "diagnostics": list(r.diagnostics),
                "findings": [
                    {
                        "seed": str(f.seed),
                        "categories": {
                            c: [_evidence_row(e) for e in ev] for c, ev in f.conditions._asdict().items()
                        },
                        "witness_chains": {
                            c: [str(k) for k in chain] for c, chain in f.witness_chains.items()
                        },
                    }
                    for f in r.findings
                ],
            }
            for r in report.apps
        ],
    }


def text_report_oracle(report: CorpusReport) -> str:
    """The text report: a summary line, then each flagged app's findings, every
    evidence row rendered where it is listed."""
    totals = report.totals
    out = [f"scanned={totals.apps_scanned} flagged={totals.apps_flagged}\n"]
    for r in report.apps:
        if not r.flagged:
            continue
        out.append(f"app {_escape_string(r.app_id)}: {len(r.findings)} finding(s)\n")
        for f in r.findings:
            out.append(f"  seed {f.seed}\n")
            for category, evidence in f.conditions._asdict().items():
                for e in evidence:
                    if isinstance(e.hit, KeywordHit):
                        hit = f'"{_escape_string(e.hit.value)}" (keyword {_escape_string(e.hit.keyword)})'
                    elif isinstance(e.hit, PathSourceHit):
                        hit = _escape_string(e.hit.evidence)
                    else:
                        hit = _escape_string(str(e.hit.target))
                    out.append(f"    {category}: {hit} in {e.method} line {e.hit.line} distance {e.distance}\n")
            for category, chain in f.witness_chains.items():
                out.append(f"    chain {category}: " + " -> ".join(map(str, chain)) + "\n")
    return "".join(out)
