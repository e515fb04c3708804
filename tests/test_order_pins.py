"""sha256 pins of whole outputs on generated corpora, so that any change to how
methods are ordered (callee lists, rings, seeds, edge dumps) shows up as a
changed digest.

Each class names its methods ``m``, ``m$1``, ``m$1$1`` and so on. Any two of
them sort one way as ``MethodRef`` tuples (``m`` first: a prefix is smaller)
and the other way as rendered strings (``m$1()V`` first: ``$`` sorts before
``(``), so an ordering keyed by the wrong one changes the report.
"""

import hashlib
import io
import itertools
import random
import subprocess
import sys

import pytest

from storescan.detector import DetectorConfig
from storescan.report import scan_corpus, scan_report
from storescan.smali_ir import ClassDef, Invoke, MethodDef, MethodRef

from appgen import random_instance, render_class
from conftest import cli_env

APPS = 16


def _pair_name(ref: MethodRef) -> MethodRef:
    # random_instance's method mJ, in class Lrand/C(J % 3);, is renamed m$1$1...,
    # with J // 3 repeats: later methods of a class sort first as strings.
    if not ref.class_descriptor.startswith("Lrand/"):
        return ref
    j = int(ref.name[1:])
    return MethodRef(f"Lpin/C{j % 3};", "m" + "$1" * (j // 3), ref.proto)


def _write_pair_corpus(root) -> None:
    rng = random.Random(97)
    for i in range(APPS):
        classes: dict[str, list[MethodDef]] = {}
        for cls in random_instance(rng).app.classes:
            for m in cls.methods:
                body = [Invoke(x.kind, _pair_name(x.target)) if isinstance(x, Invoke) else x for x in m.body]
                key = _pair_name(m.key)
                classes.setdefault(key.class_descriptor, []).append(MethodDef(key, body))
        app = root / f"app{i:02d}"
        app.mkdir(parents=True)
        for owner, methods in sorted(classes.items()):
            text = render_class(ClassDef(owner, "Ljava/lang/Object;", methods))
            (app / f"{owner[5:-1]}.smali").write_text(text, encoding="utf-8")


@pytest.fixture(scope="module")
def pair_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("pairs") / "corpus"
    _write_pair_corpus(root)
    return root


def _outputs(root, depth: int) -> dict[str, bytes]:
    """What ``storescan scan`` writes for --format json, --format text and --dump-callgraph."""
    config, graphs = DetectorConfig(depth=depth), io.StringIO()
    return {
        "json": b"".join(scan_report(root, config, "json", graphs, workers=1)[1]),
        "text": b"".join(scan_report(root, config, "text", workers=1)[1]),
        "callgraph": graphs.getvalue().encode(),
    }


def _digests(outputs: dict[str, bytes]) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest()[:16] for name, data in outputs.items()}


CALLGRAPH = "786b5128a7678828"  # the same at every depth
PINS = {
    depth: {"json": json, "text": text, "callgraph": CALLGRAPH}
    for depth, json, text in [
        (2, "6b99630ad8b6acd1", "e3147b0f22f60049"),
        (4, "014eab5e25732980", "bf193a820683e294"),
        (6, "28031a551968bf83", "abdac6efb275a850"),
    ]
}


def test_names_sort_differently_as_tuples_and_as_strings():
    a, b = MethodRef("Lpin/C0;", "m$1", "()V"), MethodRef("Lpin/C0;", "m$1$1", "()V")
    assert a < b and str(b) < str(a)


def test_corpus_exercises_the_order(pair_corpus):
    # Findings report two methods of one class at one distance in one category,
    # where the row order is decided by method identity alone.
    report = scan_corpus(pair_corpus, DetectorConfig(depth=4))
    tied = 0
    for r in report.apps:
        for f in r.findings:
            for evidence in f.conditions:
                rows = {(e.distance, e.method) for e in evidence}
                pairs = itertools.combinations(rows, 2)
                tied += sum(d == d2 and a.class_descriptor == b.class_descriptor for (d, a), (d2, b) in pairs)
    assert sum(r.flagged for r in report.apps) >= 5 and tied > 10


@pytest.mark.parametrize("depth", sorted(PINS))
def test_output_digests(pair_corpus, depth):
    assert _digests(_outputs(pair_corpus, depth)) == PINS[depth]


def test_cli_output_independent_of_hash_seed(pair_corpus, tmp_path):
    runs = []
    for hash_seed in ("0", "4242"):
        outputs = {}
        for fmt in ("json", "text"):
            out = tmp_path / f"{hash_seed}.{fmt}"
            proc = subprocess.run(
                [sys.executable, "-m", "storescan", "scan", str(pair_corpus), "--depth", "4",
                 "--format", fmt, "--output", str(out), "--dump-callgraph"],
                capture_output=True,
                env={**cli_env(), "PYTHONHASHSEED": hash_seed},
            )
            assert proc.returncode == 0, proc.stderr
            outputs[fmt] = out.read_bytes()
            outputs["callgraph"] = proc.stderr
        runs.append(outputs)
    assert runs[0] == runs[1]
    assert _digests(runs[0]) == PINS[4]
