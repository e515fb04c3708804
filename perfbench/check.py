"""Untimed correctness check of a storescan report against a workload's
planted expectation.

Nothing here calls storescan: verdicts come from how the corpus was built,
satisfying seeds and distances from ``tests/oracle.py`` (networkx), and the
report layout from the shipped JSON schema.
"""

from __future__ import annotations

import json

import jsonschema
import networkx as nx
from oracle import satisfying_seeds_oracle

from workloads import Corpus

CATEGORIES = (("keyword", "kw_nodes"), ("path_source", "path_nodes"), ("write_sink", "sink_nodes"))


class Tally:
    """Operations attempted and failed; the first few failures are kept."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(what)
        return ok


def check_report(corpus: Corpus, report: bytes, schema: dict, tally: Tally) -> None:
    """Record one operation per app (wide) or per finding (deep), plus the
    schema, the app set and the totals, each as its own operation."""
    try:
        doc = json.loads(report)
    except ValueError as exc:
        tally.record(False, f"report is not JSON: {exc}")
        return
    error = jsonschema.exceptions.best_match(
        jsonschema.validators.validator_for(schema)(schema).iter_errors(doc)
    )
    if not tally.record(error is None, f"schema: {error and error.message}"):
        return
    tally.record(doc["config"]["depth"] == corpus.depth, "config.depth")
    if corpus.dense is None:
        _check_wide(corpus, doc, tally)
    else:
        _check_dense(corpus, doc, tally)


def _check_wide(corpus: Corpus, doc: dict, tally: Tally) -> None:
    apps = {a["app_id"]: a for a in doc["apps"]}
    tally.record(sorted(apps) == sorted(corpus.verdicts), "set of scanned apps")
    for app_id, vulnerable in corpus.verdicts.items():
        app = apps.get(app_id)
        tally.record(
            app is not None
            and app["flagged"] == vulnerable
            and len(app["diagnostics"]) == corpus.diagnostics[app_id],
            f"{app_id}: verdict or diagnostic count differs from the planted truth",
        )
    tally.record(
        doc["totals"]["parse_diagnostics"] == sum(corpus.diagnostics.values()),
        "totals.parse_diagnostics differs from the planted malformed files",
    )


def _check_dense(corpus: Corpus, doc: dict, tally: Tally) -> None:
    dense = corpus.dense
    names = [f"{owner}->{name}{proto}" for owner, name, proto in dense.keys]
    index = {name: i for i, name in enumerate(names)}
    expected = satisfying_seeds_oracle(
        dense.adjacency, dense.kw_nodes, dense.path_nodes, dense.sink_nodes, corpus.depth
    )
    if not tally.record(
        len(doc["apps"]) == 1 and doc["apps"][0]["app_id"] == dense.app_id, "single dense app"
    ):
        return
    app = doc["apps"][0]
    seeds = [index.get(f["seed"]) for f in app["findings"]]
    tally.record(
        app["flagged"] == bool(expected) and len(set(seeds)) == len(seeds) and set(seeds) == expected,
        "set of satisfying seeds differs from the oracle",
    )
    graph = nx.DiGraph()
    graph.add_nodes_from(dense.adjacency)
    graph.add_edges_from((a, b) for a, callees in dense.adjacency.items() for b in callees)
    for finding, seed in zip(app["findings"], seeds):
        tally.record(
            seed is not None and _finding_ok(finding, seed, graph, dense, names, index, corpus.depth),
            f"finding {finding['seed']}: evidence or witness chain differs from the oracle",
        )


def _finding_ok(finding, seed, graph, dense, names, index, depth) -> bool:
    """Each category lists every marked method within ``depth - 1`` calls,
    ordered by (distance, method), and its witness chain is a real call path
    from the seed as long as the oracle's shortest distance to such a method.
    Every planted mark yields exactly one hit."""
    dist = nx.single_source_shortest_path_length(graph, seed, cutoff=depth - 1)
    for category, attr in CATEGORIES:
        reached = sorted((dist[v], dense.keys[v], v) for v in getattr(dense, attr) if v in dist)
        rows = [(row["method"], row["distance"]) for row in finding["categories"][category]]
        if not reached or rows != [(names[v], d) for d, _, v in reached]:
            return False
        chain = [index.get(m) for m in finding["witness_chains"].get(category, [])]
        if not chain or chain[0] != seed or len(chain) - 1 != reached[0][0]:
            return False
        if not all(b is not None and b in dense.adjacency[a] for a, b in zip(chain, chain[1:])):
            return False
    return True
