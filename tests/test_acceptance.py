"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with `pytest tests/test_acceptance.py -s` to see them.
"""

import json
import random
import subprocess
import sys
import time
from collections import Counter

import jsonschema

from storescan.callgraph import build_callgraph
from storescan.detector import DetectorConfig, detect_app
from storescan.report import scan_corpus
from storescan.rules import MarkMemo, default_ruleset, mark_function, match_keyword
from storescan.smali_ir import Invoke, StringConst, parse_class

from appgen import fixture_classes, planted_corpus, random_instance, render_class, write_corpus
from conftest import cli_env, load_report_schema
from oracle import accumulate, flagged_oracle


def check(name: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}{'  ' + detail if detail else ''}")
    assert ok, f"acceptance criterion failed: {name} {detail}"


def test_planted_corpus_exactness(tmp_path):
    apps = planted_corpus(100, 100)
    root = tmp_path / "corpus"
    root.mkdir()
    write_corpus(root, apps)
    truth = {a.app_id: a.vulnerable for a in apps}

    start = time.perf_counter()
    report = scan_corpus(root, DetectorConfig(depth=3))
    elapsed = time.perf_counter() - start

    true_pos = sum(1 for r in report.apps if truth[r.app_id] and r.flagged)
    false_pos = sum(1 for r in report.apps if not truth[r.app_id] and r.flagged)
    ok = (
        report.totals.apps_scanned == 200
        and true_pos == 100
        and false_pos == 0
        and elapsed < 10.0
    )
    check(
        "planted-corpus exactness",
        ok,
        f"TP={true_pos}/100 FP={false_pos}/100 scan={elapsed:.2f}s",
    )


def test_oracle_equivalence():
    rng = random.Random(2024)
    mismatches = 0
    for _ in range(1000):
        inst = random_instance(rng)
        for depth in (1, 2, 3, 4):
            got = detect_app(inst.app, DetectorConfig(depth=depth)).flagged
            want = flagged_oracle(
                inst.adjacency, inst.kw_nodes, inst.path_nodes, inst.sink_nodes, depth
            )
            if got != want:
                mismatches += 1
    check("oracle equivalence", mismatches == 0, f"mismatches={mismatches}/4000")


def test_depth_monotonicity():
    rng = random.Random(99)
    violations = 0
    for _ in range(500):
        inst = random_instance(rng)
        flags = [detect_app(inst.app, DetectorConfig(depth=d)).flagged for d in (1, 2, 3, 4)]
        if any(flags[i] and not flags[i + 1] for i in range(3)):
            violations += 1
    check("depth monotonicity", violations == 0, f"violations={violations}/500")


def test_keyword_golden_table():
    rules = default_ruleset()
    positives = ["/user_log", "/log", "user_log.txt", "user.log"]
    negatives = ["catalog.txt", "blog.html", "dialogue/", "log"]
    ok = all(match_keyword(s, rules.keywords) == ["log"] for s in positives)
    ok = ok and all(match_keyword(s, rules.keywords) == [] for s in negatives)
    ok = ok and rules.keywords == [
        "log", "cache", "files", "file", "data", "temp",
        "tmp", "account", "meta", "uid", "history",
    ]
    ok = ok and rules.path_apis == [
        "getExternalStorageDirectory",
        "getExternalStoragePublicDirectory",
        "getExternalFilesDir",
        "getExternalFilesDirs",
        "getExternalCacheDir",
        "getExternalCacheDirs",
    ]
    check("keyword golden table", ok)


def test_parser_roundtrip_and_seed_isolation():
    fixtures = fixture_classes()
    ok = len(fixtures) >= 50
    families = {"invoke": 0, "string": 0, "new": 0}
    kinds_seen = Counter()  # the kind of each fixture line that parsed to an Invoke
    for fixture in fixtures:
        first = parse_class(fixture.text)
        second = parse_class(render_class(first))
        ok = ok and second == first
        body = [ins for m in first.methods for ins in m.body]
        families["invoke"] += sum(isinstance(ins, Invoke) for ins in body)
        families["string"] += sum(isinstance(ins, StringConst) for ins in body)
        # The fixtures hold new-instance lines, and the parser makes no body item of them.
        families["new"] += fixture.new_instances
        lines = fixture.text.split("\n")
        ok = ok and not any(lines[ins.source_line - 1].lstrip().startswith("new-instance") for ins in body)
        kinds_seen.update(lines[ins.source_line - 1].split()[0].removeprefix("invoke-").partition("/")[0]
                          for ins in body if isinstance(ins, Invoke))
    ok = ok and all(count > 0 for count in families.values())
    ok = ok and set(kinds_seen) == {"virtual", "super", "direct", "static", "interface"}
    ok = ok and any("const-string/jumbo" in f.text for f in fixtures)

    rng = random.Random(7)
    for _ in range(25):
        inst = random_instance(rng)
        g = build_callgraph(inst.app)
        rules = default_ruleset()
        marks = {m.key: mark_function(m, MarkMemo(rules)) for c in inst.app.classes for m in c.methods}
        seeds = sorted(g.nodes)
        baseline = {s for s in seeds if all(accumulate(s, g, marks, 3))}
        for _ in range(4):
            shuffled = seeds[:]
            rng.shuffle(shuffled)
            got = {s for s in shuffled if all(accumulate(s, g, marks, 3))}
            ok = ok and got == baseline
    check("parser round-trip + per-seed isolation", ok, f"classes={len(fixtures)}")


def test_cli_contract(three_app_corpus, tmp_path):
    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "storescan", *args],
            capture_output=True,
            encoding="utf-8",
            env=cli_env(),
        )

    ok = True
    empty = tmp_path / "empty_corpus"
    empty.mkdir()
    ok = ok and run("scan", str(empty)).returncode == 0
    ok = ok and run("scan", str(three_app_corpus)).returncode == 0
    ok = ok and run("scan", str(three_app_corpus), "--fail-on-detect").returncode == 1
    ok = ok and run("scan", str(tmp_path / "missing")).returncode == 2

    first = run("scan", str(three_app_corpus))
    second = run("scan", str(three_app_corpus))
    ok = ok and first.stdout == second.stdout
    try:
        jsonschema.validate(json.loads(first.stdout), load_report_schema())
    except jsonschema.ValidationError:
        ok = False
    check("CLI contract", ok)
