"""Seeded corpora for the storescan benchmark.

Every workload is built from the ``tests/appgen.py`` string pools and text
builders and carries its own expectation, derived from how it was built and
never from storescan's output. The same seed always gives the same files.
Why each workload exists is recorded next to its definition in ``WORKLOADS``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from appgen import (
    FILLER_LINES,
    KEYWORD_STRINGS,
    PATH_API_CALLS,
    SAFE_STRINGS,
    SDCARD_STRINGS,
    SINK_CALLS,
    class_text,
    const_string_line,
    method_text,
    planted_corpus,
)

MethodKey = tuple[str, str, str]

# Invokes of library methods that are never app-defined and match no rule, so
# they become call-graph externals and nothing else.
EXTERNAL_CALLS = [
    "    invoke-virtual {v0, v1}, Ljava/lang/StringBuilder;->append(Ljava/lang/String;)Ljava/lang/StringBuilder;",
    "    invoke-static {v0, v1}, Landroid/util/Log;->d(Ljava/lang/String;Ljava/lang/String;)I",
    "    invoke-interface {v2}, Ljava/util/List;->size()I",
    "    invoke-virtual {v0}, Ljava/lang/Object;->toString()Ljava/lang/String;",
]

# Opaque or rule-neutral body lines. Each one parses, and none adds a call
# edge or a rule hit.
NEUTRAL_LINES = (
    FILLER_LINES
    + [const_string_line(s, reg="v3") for s in SAFE_STRINGS]
    + EXTERNAL_CALLS
)

# Each text fails to parse with exactly one diagnostic and declares no class.
MALFORMED_TEXTS = [
    ".class public Lbroken/Unterminated;\n.super Ljava/lang/Object;\n\n"
    ".method public static f()V\n    nop\n",
    ".method public static f()V\n    return-void\n.end method\n",
    ".class public broken.BadDescriptor\n.super Ljava/lang/Object;\n",
    ".class public Lbroken/Stray;\n.super Ljava/lang/Object;\n.end method\n",
]


@dataclass
class DenseApp:
    """One generated app as an abstract graph over method indices."""

    app_id: str
    keys: list[MethodKey]
    adjacency: dict[int, list[int]]
    kw_nodes: set[int]
    path_nodes: set[int]
    sink_nodes: set[int]


@dataclass
class Corpus:
    depth: int
    #: corpus-relative path -> smali text
    files: dict[str, str] = field(default_factory=dict)
    #: methods in the files that parse, i.e. the methods storescan scans
    methods: int = 0
    #: wide: app_id -> planted verdict, and app_id -> planted malformed files
    verdicts: dict[str, bool] = field(default_factory=dict)
    diagnostics: dict[str, int] = field(default_factory=dict)
    #: deep: the single app's planted graph and marks
    dense: DenseApp | None = None

    @property
    def apps(self) -> int:
        return 1 if self.dense is not None else len(self.verdicts)

    def write(self, root: Path) -> None:
        made: set[Path] = set()
        for rel, text in self.files.items():
            path = root / rel
            if path.parent not in made:
                path.parent.mkdir(parents=True, exist_ok=True)
                made.add(path.parent)
            path.write_text(text, encoding="utf-8")


def _pad(text: str, rng: random.Random, lo: int, hi: int) -> str:
    # Neutral lines go right after ``.locals`` so each method keeps its marks,
    # calls and verdict while the parser sees a realistic amount of body.
    out = []
    for line in text.split("\n"):
        out.append(line)
        if line.lstrip().startswith(".locals"):
            out.extend(rng.choice(NEUTRAL_LINES) for _ in range(rng.randint(lo, hi)))
    return "\n".join(out)


def wide_corpus(seed: int, apps: int, filler: tuple[int, int], malformed_share: float,
                depth: int) -> Corpus:
    """Planted apps from ``appgen.planted_corpus``, half vulnerable, padded
    with neutral lines, plus a fixed share of malformed files."""
    rng = random.Random(seed)
    corpus = Corpus(depth)
    for app in planted_corpus(apps // 2, apps - apps // 2):
        corpus.verdicts[app.app_id] = app.vulnerable
        corpus.diagnostics[app.app_id] = 0
        for rel, text in app.files.items():
            corpus.files[f"{app.app_id}/{rel}"] = _pad(text, rng, *filler)
            corpus.methods += text.count("\n.method ")
    n_bad = max(1, round(malformed_share * len(corpus.files)))
    for j, app_id in enumerate(sorted(rng.sample(sorted(corpus.verdicts), n_bad))):
        corpus.files[f"{app_id}/broken/Broken{j}.smali"] = MALFORMED_TEXTS[j % len(MALFORMED_TEXTS)]
        corpus.diagnostics[app_id] += 1
    return corpus


def _mark_block(rng: random.Random, category: str) -> list[str]:
    if category == "keyword":
        return [const_string_line(rng.choice(KEYWORD_STRINGS))]
    if category == "path":
        if rng.random() < 0.5:
            call, cls, name, proto = rng.choice(PATH_API_CALLS)
            return [f"    {call}, {cls}->{name}{proto}"]
        return [const_string_line(rng.choice(SDCARD_STRINGS), reg="v1")]
    return list(rng.choice(SINK_CALLS))


def regular_digraph(rng: random.Random, n: int, degree: int) -> dict[int, list[int]]:
    """Random digraph where every node has exactly ``degree`` distinct callees
    and exactly ``degree`` callers; self-loops and cycles are allowed.

    Edge ``k`` of node ``i`` is ``perms[k][i]`` for ``degree`` random
    permutations, with swaps inside a permutation until no node calls the
    same target twice; a swap keeps every permutation a permutation.
    """
    if degree > n:
        raise ValueError("degree must not exceed the node count")
    perms = []
    for _ in range(degree):
        perm = list(range(n))
        rng.shuffle(perm)
        perms.append(perm)
    for k in range(1, degree):
        perm = perms[k]

        def clash(i: int) -> bool:
            return any(perms[e][i] == perm[i] for e in range(k))

        for i in range(n):
            while clash(i):
                j = rng.randrange(n)
                perm[i], perm[j] = perm[j], perm[i]
                if clash(j):
                    perm[i], perm[j] = perm[j], perm[i]
    return {i: [perms[k][i] for k in range(degree)] for i in range(n)}


def dense_corpus(seed: int, methods: int, fanout: int, rates: tuple[float, float, float],
                 per_class: int, filler: tuple[int, int], depth: int, graph_seed: int) -> Corpus:
    """One app whose call graph is a random ``fanout``-regular digraph and
    whose keyword / path / sink marks sit on exactly ``rate * methods``
    methods each.

    The graph and the marked nodes are drawn once from ``graph_seed``; the
    run ``seed`` relabels them (which method, in which class, plays each
    node), picks each mark's and filler line's text and shuffles every body.
    So the number of satisfying seeds, the report size and the amount of
    work are the same for every seed, while the files, the method order and
    the order of the search differ. With marks this sparse, a fresh graph
    per seed would move the number of findings by over 20% between seeds.
    """
    base = random.Random(graph_seed)
    graph = regular_digraph(base, methods, fanout)
    marked = [base.sample(range(methods), round(r * methods)) for r in rates]
    rng = random.Random(seed)
    slot = list(range(methods))
    rng.shuffle(slot)
    adjacency = {slot[v]: [slot[w] for w in graph[v]] for v in range(methods)}
    kw, path, sink = ({slot[v] for v in nodes} for nodes in marked)
    app_id = "dense"
    keys = [(f"Ldense/C{i // per_class};", f"m{i}", "()V") for i in range(methods)]
    app = DenseApp(app_id, keys, adjacency, kw, path, sink)

    bodies: dict[str, list[str]] = {}
    for i, (owner, name, proto) in enumerate(keys):
        blocks = [[rng.choice(NEUTRAL_LINES)] for _ in range(rng.randint(*filler))]
        for category, nodes in (("keyword", kw), ("path", path), ("sink", sink)):
            if i in nodes:
                blocks.append(_mark_block(rng, category))
        for j in adjacency[i]:
            blocks.append([f"    invoke-static {{}}, {keys[j][0]}->{keys[j][1]}{keys[j][2]}"])
        rng.shuffle(blocks)
        body = ["    .locals 4", *(line for block in blocks for line in block), "    return-void"]
        bodies.setdefault(owner, []).append(method_text(name, proto, body=body))

    corpus = Corpus(depth, methods=methods, dense=app)
    for c, owner in enumerate(bodies):
        corpus.files[f"{app_id}/smali/dense/C{c}.smali"] = class_text(owner, methods=bodies[owner])
    return corpus


def _scaled(n: int, scale: float, floor: int) -> int:
    return max(floor, round(n * scale))


# ``scale`` shrinks every size for the smoke test; the benchmark runs at 1.
WORKLOADS: dict[str, Callable[[int, float], Corpus]] = {
    # Many small apps: walk + read + parse (smali_ir) does most of the work,
    # report serialisation a fair share, detection little. A detection-kernel
    # change should leave this workload unchanged. The malformed files check
    # that a bad file costs one diagnostic and nothing more.
    "wide": lambda seed, scale: wide_corpus(
        seed, apps=_scaled(3000, scale, 20), filler=(2, 8), malformed_share=0.01, depth=3
    ),
    # One big app with sparse marks: almost every seed fails, so the per-seed
    # bounded BFS in detector/callgraph dominates and the report stays small.
    # A verdict kernel that skips failing seeds must show its gain here.
    "deep_sparse": lambda seed, scale: dense_corpus(
        seed, methods=_scaled(12000, scale, 60), fanout=3, rates=(0.01, 0.005, 0.005),
        per_class=20, filler=(2, 6), depth=4, graph_seed=4,
    ),
    # One app with dense marks: nearly every seed is satisfied, so evidence
    # lists, witness chains, JSON and memory dominate. A kernel that only
    # skips failing seeds must leave this one unchanged; evidence sharing or
    # streaming output should move peak RSS, scan time and report size here.
    "deep_flagged": lambda seed, scale: dense_corpus(
        seed, methods=_scaled(1000, scale, 40), fanout=3, rates=(0.2, 0.1, 0.1),
        per_class=20, filler=(2, 6), depth=6, graph_seed=6,
    ),
}
