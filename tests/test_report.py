import gc
import io
import json
import random
import shutil

import jsonschema
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from storescan import detector as detector_module
from storescan import report as report_module
from storescan.callgraph import build_callgraph
from storescan.detector import DetectorConfig, detect_app
from storescan.report import CorpusReport, emit_report, report_to_dict, scan_corpus
from storescan.rules import default_ruleset, ruleset_digest
from storescan.smali_ir import parse_app_dir, render_class

from appgen import class_text, const_string_line, invoke_line, method_text, random_instance
from conftest import CLEAN_CLASS, VULN_CLASS, load_report_schema


GOLDEN_TEXT = """\
scanned=4 flagged=2
app app_bad: 1 finding(s)
  seed Lfx/Vuln;->run()V
    keyword: "/sdcard/user_log" (keyword log) in Lfx/Vuln;->run()V line 6 distance 0
    path_source: /sdcard/user_log in Lfx/Vuln;->run()V line 6 distance 0
    write_sink: Ljava/io/FileOutputStream;-><init>(Ljava/lang/String;)V in Lfx/Vuln;->run()V line 8 distance 0
    chain keyword: Lfx/Vuln;->run()V
    chain path_source: Lfx/Vuln;->run()V
    chain write_sink: Lfx/Vuln;->run()V
app app_chain: 1 finding(s)
  seed Lch/Main;->run()V
    keyword: "/user_log" (keyword log) in Lch/Help;->step1()V line 5 distance 1
    path_source: getExternalStorageDirectory in Lch/Main;->run()V line 5 distance 0
    write_sink: Ljava/io/File;->mkdir()Z in Lch/Help;->step2()V line 14 distance 2
    chain keyword: Lch/Main;->run()V -> Lch/Help;->step1()V
    chain path_source: Lch/Main;->run()V
    chain write_sink: Lch/Main;->run()V -> Lch/Help;->alt()V -> Lch/Help;->step2()V
"""


GOLDEN_JSON = """\
{
  "schema_version": "1",
  "config": {
    "depth": 3,
    "rules_digest": "e57dd783624643bb3a052d9b45263b6b8d6337d346ffb40adf5c731fed770cd8"
  },
  "totals": {
    "apps_scanned": 4,
    "apps_flagged": 2,
    "parse_diagnostics": 0
  },
  "apps": [
    {
      "app_id": "app_bad",
      "flagged": true,
      "diagnostics": [],
      "findings": [
        {
          "seed": "Lfx/Vuln;->run()V",
          "categories": {
            "keyword": [
              {
                "value": "/sdcard/user_log",
                "keyword": "log",
                "method": "Lfx/Vuln;->run()V",
                "line": 6,
                "distance": 0
              }
            ],
            "path_source": [
              {
                "evidence": "/sdcard/user_log",
                "method": "Lfx/Vuln;->run()V",
                "line": 6,
                "distance": 0
              }
            ],
            "write_sink": [
              {
                "target": "Ljava/io/FileOutputStream;-><init>(Ljava/lang/String;)V",
                "method": "Lfx/Vuln;->run()V",
                "line": 8,
                "distance": 0
              }
            ]
          },
          "witness_chains": {
            "keyword": [
              "Lfx/Vuln;->run()V"
            ],
            "path_source": [
              "Lfx/Vuln;->run()V"
            ],
            "write_sink": [
              "Lfx/Vuln;->run()V"
            ]
          }
        }
      ]
    },
    {
      "app_id": "app_chain",
      "flagged": true,
      "diagnostics": [],
      "findings": [
        {
          "seed": "Lch/Main;->run()V",
          "categories": {
            "keyword": [
              {
                "value": "/user_log",
                "keyword": "log",
                "method": "Lch/Help;->step1()V",
                "line": 5,
                "distance": 1
              }
            ],
            "path_source": [
              {
                "evidence": "getExternalStorageDirectory",
                "method": "Lch/Main;->run()V",
                "line": 5,
                "distance": 0
              }
            ],
            "write_sink": [
              {
                "target": "Ljava/io/File;->mkdir()Z",
                "method": "Lch/Help;->step2()V",
                "line": 14,
                "distance": 2
              }
            ]
          },
          "witness_chains": {
            "keyword": [
              "Lch/Main;->run()V",
              "Lch/Help;->step1()V"
            ],
            "path_source": [
              "Lch/Main;->run()V"
            ],
            "write_sink": [
              "Lch/Main;->run()V",
              "Lch/Help;->alt()V",
              "Lch/Help;->step2()V"
            ]
          }
        }
      ]
    },
    {
      "app_id": "app_ok1",
      "flagged": false,
      "diagnostics": [],
      "findings": []
    },
    {
      "app_id": "app_ok2",
      "flagged": false,
      "diagnostics": [],
      "findings": []
    }
  ]
}
"""


# One line per distinct resolved edge: Main.run's second step1 call and its
# call to the undefined step2(I)V add none.
GOLDEN_CALLGRAPH = """\
# callgraph app_bad
# callgraph app_chain
Lch/Help;->alt()V\tLch/Help;->step2()V
Lch/Help;->step1()V\tLch/Help;->step2()V
Lch/Main;->run()V\tLch/Help;->alt()V
Lch/Main;->run()V\tLch/Help;->step1()V
# callgraph app_ok1
# callgraph app_ok2
"""


def scan(root, depth=3, **kwargs):
    return scan_corpus(root, DetectorConfig(depth=depth), **kwargs)


@pytest.fixture
def chain_corpus(three_app_corpus):
    """three_app_corpus plus app_chain: Main.run reaches step2 through step1
    and through alt, so the witness chain takes the lexically smaller alt
    although step1 is called first. Main.run also calls step1 a second time
    (one edge) and step2(I)V, which the app does not define (no edge)."""
    main = class_text(
        "Lch/Main;",
        methods=[
            method_text(
                "run",
                body=[
                    "    invoke-static {}, Landroid/os/Environment;->getExternalStorageDirectory()Ljava/io/File;",
                    invoke_line("static", "Lch/Help;", "step1", "()V"),
                    invoke_line("static", "Lch/Help;", "alt", "()V"),
                    invoke_line("static", "Lch/Help;", "step1", "()V"),
                    invoke_line("static", "Lch/Help;", "step2", "(I)V"),
                ],
            )
        ],
    )
    step2 = invoke_line("static", "Lch/Help;", "step2", "()V")
    help_cls = class_text(
        "Lch/Help;",
        methods=[
            method_text("step1", body=[const_string_line("/user_log"), step2]),
            method_text("alt", body=[step2]),
            method_text("step2", body=["    invoke-virtual {v2}, Ljava/io/File;->mkdir()Z"]),
        ],
    )
    (three_app_corpus / "app_chain").mkdir()
    (three_app_corpus / "app_chain" / "Main.smali").write_text(main, encoding="utf-8")
    (three_app_corpus / "app_chain" / "Help.smali").write_text(help_cls, encoding="utf-8")
    return three_app_corpus


class TestScanCorpus:
    def test_empty_root(self, tmp_path):
        report = scan(tmp_path)
        assert report.totals == (0, 0, 0)
        assert report.apps == []

    def test_three_apps_one_flagged(self, three_app_corpus):
        report = scan(three_app_corpus)
        assert report.totals == (3, 1, 0)
        flagged = [r.app_id for r in report.apps if r.flagged]
        assert flagged == ["app_bad"]

    def test_apps_sorted_by_id(self, three_app_corpus):
        report = scan(three_app_corpus)
        ids = [r.app_id for r in report.apps]
        assert ids == sorted(ids)

    def test_malformed_only_app(self, tmp_path):
        root = tmp_path / "corpus"
        (root / "broken").mkdir(parents=True)
        (root / "broken" / "Bad.smali").write_text(".class Lz/Bad;\n.method f()V\n", encoding="utf-8")
        report = scan(root)
        (row,) = report.apps
        assert row.flagged is False
        assert len(row.diagnostics) == 1
        assert report.totals == (1, 0, 1)

    def test_duplicate_class_app_becomes_diagnostic_row(self, tmp_path):
        root = tmp_path / "corpus"
        (root / "dup").mkdir(parents=True)
        (root / "dup" / "A.smali").write_text(CLEAN_CLASS, encoding="utf-8")
        (root / "dup" / "B.smali").write_text(CLEAN_CLASS, encoding="utf-8")
        report = scan(root)
        (row,) = report.apps
        assert row.flagged is False
        assert any("not scanned" in d for d in row.diagnostics)

    def test_loose_files_in_root_ignored(self, tmp_path):
        root = tmp_path / "corpus"
        root.mkdir()
        (root / "stray.txt").write_text("x", encoding="utf-8")
        assert scan(root).totals == (0, 0, 0)

    def test_missing_root(self, tmp_path):
        with pytest.raises(OSError):
            scan(tmp_path / "nope")

    def test_totals_rederivable_from_rows(self, three_app_corpus):
        report = scan(three_app_corpus)
        assert report.totals.apps_scanned == len(report.apps)
        assert report.totals.apps_flagged == sum(1 for r in report.apps if r.flagged)
        assert report.totals.parse_diagnostics == sum(len(r.diagnostics) for r in report.apps)

    def test_graph_sink_builds_each_call_graph_once(self, three_app_corpus, monkeypatch):
        built = []

        def counting_build(app):
            built.append(app.app_id)
            return build_callgraph(app)

        monkeypatch.setattr(report_module, "build_callgraph", counting_build)
        monkeypatch.setattr(detector_module, "build_callgraph", counting_build)
        scan(three_app_corpus, graph_sink=io.StringIO())
        assert built == ["app_bad", "app_ok1", "app_ok2"]
        built.clear()
        scan(three_app_corpus)
        assert built == ["app_bad", "app_ok1", "app_ok2"]

    def test_graph_sink_receives_sorted_edges(self, three_app_corpus):
        sink = io.StringIO()
        scan(three_app_corpus, graph_sink=sink)
        dump = sink.getvalue()
        assert dump.count("# callgraph ") == 3
        edge_lines = [l for l in dump.splitlines() if not l.startswith("#")]
        assert all("\t" in l for l in edge_lines)

    def test_graph_sink_golden(self, chain_corpus):
        sink = io.StringIO()
        scan(chain_corpus, graph_sink=sink)
        assert sink.getvalue() == GOLDEN_CALLGRAPH


def _scan_and_emit(root, depth=3):
    # Every locally built object, the report included, is dropped on return.
    report = scan(root, depth, graph_sink=io.StringIO())
    for fmt in ("json", "text"):
        emit_report(report, fmt)


def unreachable_after(work) -> int:
    """Objects the cyclic collector finds unreachable after ``work`` ran with it off,
    i.e. garbage that reference counting alone could not free."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        work()
        return gc.collect()
    finally:
        if was_enabled:
            gc.enable()


@pytest.fixture
def every_path_corpus(chain_corpus):
    """chain_corpus (vulnerable, clean and multi-hop apps) plus an app with one
    file per kind of diagnostic and an app with a class in two dex directories."""
    faults = chain_corpus / "app_faults"
    faults.mkdir()
    (faults / "A.smali").write_text(CLEAN_CLASS, encoding="utf-8")
    for name, content in [
        ("Unterminated", b".class Lz/U;\n.method f()V\n"),
        ("MethodFirst", b".method f()V\n.end method\n"),
        ("BadDescriptor", b".class public bad\n"),
        ("StrayEnd", b".class Lz/E;\n.end method\n"),
        ("NonUtf8", b".class Lz/N;\n\xff\xfe\n"),
    ]:
        (faults / f"{name}.smali").write_bytes(content)
    (faults / "B.smali").mkdir()
    (faults / "loop").symlink_to(faults, target_is_directory=True)
    for dex in ("smali", "smali_classes2"):
        (chain_corpus / "app_multidex" / dex).mkdir(parents=True)
        (chain_corpus / "app_multidex" / dex / "A.smali").write_text(VULN_CLASS, encoding="utf-8")
    return chain_corpus


class TestNoCycles:
    """``scan_corpus`` pauses the cyclic collector, which is safe only while a scan
    and its reports build no reference cycles: any cycle would then outlive its app."""

    def test_every_scan_path_leaves_no_cyclic_garbage(self, every_path_corpus):
        report = scan(every_path_corpus)
        rows = {r.app_id: r for r in report.apps}
        assert [r.app_id for r in report.apps if r.flagged] == ["app_bad", "app_chain"]
        assert len(rows["app_faults"].diagnostics) == 6
        assert rows["app_multidex"].diagnostics[0].startswith("app not scanned: class Lfx/Vuln;")
        assert unreachable_after(lambda: _scan_and_emit(every_path_corpus)) == 0

    def test_dense_apps_leave_no_cyclic_garbage(self, tmp_path):
        rng = random.Random(89)
        for i in range(6):
            for cls in random_instance(rng).app.classes:
                path = tmp_path / f"rand{i}" / cls.source_file
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(render_class(cls), encoding="utf-8")
        assert sum(r.flagged for r in scan(tmp_path, 6).apps) >= 2
        assert unreachable_after(lambda: _scan_and_emit(tmp_path, 6)) == 0


class TestCollectorState:
    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("fails", [False, True], ids=["completes", "raises"])
    def test_scan_restores_callers_collector_state(self, chain_corpus, monkeypatch, enabled, fails):
        during = []

        def parse(app_dir, app_id):
            during.append(gc.isenabled())
            if fails and len(during) == 2:
                raise RuntimeError("parser crashed")
            return parse_app_dir(app_dir, app_id)

        monkeypatch.setattr(report_module, "parse_app_dir", parse)
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if fails:
                with pytest.raises(RuntimeError):
                    scan(chain_corpus)
            else:
                scan(chain_corpus)
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()
        assert during and not any(during)


class TestEmitReport:
    def test_empty_report_json(self):
        report = CorpusReport(DetectorConfig(), [])
        payload = json.loads(emit_report(report, "json"))
        assert payload["totals"] == {
            "apps_scanned": 0,
            "apps_flagged": 0,
            "parse_diagnostics": 0,
        }
        assert payload["apps"] == []
        assert payload["config"]["depth"] == 3
        assert payload["config"]["rules_digest"] == ruleset_digest(default_ruleset())

    def test_text_summary_and_block(self, three_app_corpus):
        text = emit_report(scan(three_app_corpus), "text")
        lines = text.splitlines()
        assert lines[0] == "scanned=3 flagged=1"
        assert lines[1].startswith("app app_bad:")
        assert any(line.lstrip().startswith("seed ") for line in lines)
        assert any("line" in line for line in lines if "keyword" in line)

    def test_text_report_golden(self, chain_corpus):
        assert emit_report(scan(chain_corpus), "text") == GOLDEN_TEXT

    def test_json_report_golden(self, chain_corpus):
        # Pins key order, row layout per hit type and indentation.
        assert emit_report(scan(chain_corpus), "json") == GOLDEN_JSON

    def test_emit_twice_byte_identical(self, three_app_corpus):
        report = scan(three_app_corpus)
        for fmt in ("json", "text"):
            assert emit_report(report, fmt) == emit_report(report, fmt)

    def test_scan_twice_byte_identical(self, three_app_corpus):
        a = emit_report(scan(three_app_corpus), "json")
        b = emit_report(scan(three_app_corpus), "json")
        assert a == b

    def test_report_bytes_independent_of_corpus_location(self, three_app_corpus, tmp_path):
        # A directory named *.smali is an unreadable file whose diagnostic
        # names it by its path inside the app, not by where the corpus lives.
        (three_app_corpus / "app_ok1" / "X.smali").mkdir()
        copy = shutil.copytree(three_app_corpus, tmp_path / "elsewhere" / "deeper")
        for fmt in ("json", "text"):
            assert emit_report(scan(copy), fmt) == emit_report(scan(three_app_corpus), fmt)
        (row,) = [r for r in scan(copy).apps if r.app_id == "app_ok1"]
        assert row.diagnostics == ["X.smali: unreadable: [Errno 21] Is a directory"]

    def test_text_report_escapes_strings_and_app_ids(self, tmp_path):
        # A constant or a directory name holding a newline must not start a line
        # of its own, such as a forged "app ..." header.
        forged = "/sdcard/x\\napp evil: 9 finding(s)\\n/user_log"  # smali source escapes
        vuln = class_text(
            "Lfx/Forge;",
            methods=[method_text("run", body=[
                const_string_line(forged),
                "    invoke-direct {v1, v0}, Ljava/io/FileOutputStream;-><init>(Ljava/lang/String;)V",
            ])],
        )
        (tmp_path / "odd\nid").mkdir()
        (tmp_path / "odd\nid" / "Forge.smali").write_text(vuln, encoding="utf-8")
        report = scan(tmp_path)
        text = emit_report(report, "text")
        assert [l for l in text.splitlines() if l.startswith("app ")] == ["app odd\\nid: 1 finding(s)"]
        assert f'    keyword: "{forged}" (keyword log) in Lfx/Forge;->run()V' in text
        assert f"    path_source: {forged} in Lfx/Forge;->run()V" in text
        (app,) = json.loads(emit_report(report, "json"))["apps"]
        assert app["app_id"] == "odd\nid"
        assert app["findings"][0]["categories"]["keyword"][0]["value"] == forged.replace("\\n", "\n")

    def test_unknown_format_rejected(self):
        report = CorpusReport(DetectorConfig(), [])
        with pytest.raises(ValueError):
            emit_report(report, "xml")

    def test_json_validates_against_schema(self, three_app_corpus, tmp_path):
        schema = load_report_schema()
        jsonschema.validate(report_to_dict(scan(three_app_corpus)), schema)
        jsonschema.validate(report_to_dict(scan_corpus(tmp_path, DetectorConfig())), schema)

    def test_finding_payload_shape(self, three_app_corpus):
        payload = json.loads(emit_report(scan(three_app_corpus), "json"))
        app = next(a for a in payload["apps"] if a["flagged"])
        (finding,) = app["findings"]
        assert finding["seed"] == "Lfx/Vuln;->run()V"
        kw = finding["categories"]["keyword"][0]
        assert kw["value"] == "/sdcard/user_log"
        assert kw["keyword"] == "log"
        assert kw["distance"] == 0
        assert finding["witness_chains"]["write_sink"] == ["Lfx/Vuln;->run()V"]


def write_json(tree) -> str:
    return "".join(report_module._write_json(tree, "", [], {}))


# Characters json.dumps escapes or passes through specially, mixed with arbitrary text.
json_strings = st.text(
    st.one_of(st.sampled_from('"\\/\x00\x08\x1f\x7f\u2028\u2029é€😀'), st.characters())
)
json_scalars = st.one_of(
    json_strings,
    st.integers(),
    st.sampled_from([0, -1, 2**63, -(2**63) - 1, 10**100, -(10**300)]),
    st.booleans(),
)
json_trees = st.recursive(
    json_scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(json_strings, children, max_size=4),
    max_leaves=40,
)


class TestJsonWriter:
    @given(json_trees)
    @example([[], {}])
    @example({"a": {}, "b": [[]], "": [{"c": []}]})
    def test_matches_json_dumps(self, tree):
        assert write_json(tree) == json.dumps(tree, indent=2, ensure_ascii=False)

    @pytest.mark.parametrize(
        "tree", [1.5, None, ("a", 1), [1, 2.0], {"a": None}, {"a": [("b",)]}, {1: "a"}]
    )
    def test_other_types_raise_type_error(self, tree):
        # json.dumps would write a tuple as a list and coerce a non-str key; the
        # report tree never holds either, so the writer refuses them.
        with pytest.raises(TypeError):
            write_json(tree)

    def test_dense_report_matches_json_dumps_of_report_to_dict(self):
        # Dense random apps at depth 6: many seeds reach the same evidence rows,
        # which the writer renders once and splices in by reference.
        rng = random.Random(83)
        results = [detect_app(random_instance(rng).app, DetectorConfig(depth=6)) for _ in range(40)]
        for i, r in enumerate(results):
            r.app_id = f"app{i:02d}"
        report = CorpusReport(DetectorConfig(depth=6), results)
        rows = [e for r in results for f in r.findings for ev in f.conditions for e in ev]
        assert len(rows) > 2 * len(set(rows)) > 300
        expected = json.dumps(report_to_dict(report), indent=2, ensure_ascii=False) + "\n"
        assert emit_report(report, "json") == expected
