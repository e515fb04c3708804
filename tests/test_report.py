import contextlib
import errno
import gc
import io
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from storescan import detector as detector_module
from storescan import report as report_module
from storescan.callgraph import build_callgraph
from storescan.detector import ConditionSet, DetectionResult, DetectorConfig, Evidence, Finding, detect_app
from storescan.report import CorpusReport, Totals, emit_report, scan_corpus, scan_report
from storescan.rules import KeywordHit, PathSourceHit, WriteSinkHit, default_ruleset, ruleset_digest
from storescan.smali_ir import MethodRef, parse_app_dir

from appgen import (
    class_text,
    const_string_line,
    invoke_line,
    method_text,
    planted_corpus,
    random_instance,
    render_class,
    write_corpus,
)
from conftest import CLEAN_CLASS, VULN_CLASS, cli_env, load_report_schema
from oracle import report_to_dict, text_report_oracle


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


def scan(root, depth=3):
    return scan_corpus(root, DetectorConfig(depth=depth))


def dump(root, depth=3) -> str:
    """The ``--dump-callgraph`` text, which only ``scan_report`` writes."""
    sink = io.StringIO()
    scan_report(root, DetectorConfig(depth=depth), "text", sink, workers=1)
    return sink.getvalue()


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

    def test_unreadable_app_becomes_diagnostic_row(self, tmp_path, monkeypatch):
        # Root cannot be denied read access, so listing one app fails by patch.
        # A recursive glob alone skips that app's files: it would read as clean.
        root = tmp_path / "corpus"
        for app_id in ("locked", "open"):
            (root / app_id).mkdir(parents=True)
            (root / app_id / "Vuln.smali").write_text(VULN_CLASS, encoding="utf-8")
        real_scandir = os.scandir

        def scandir(path="."):
            if str(path) == str(root / "locked"):
                raise PermissionError(errno.EACCES, "Permission denied", str(path))
            return real_scandir(path)

        monkeypatch.setattr(os, "scandir", scandir)
        locked, opened = scan(root).apps
        assert (locked.app_id, locked.findings) == ("locked", [])
        assert locked.diagnostics == ["app not scanned: unreadable: [Errno 13] Permission denied"]
        assert opened.flagged and opened.diagnostics == []

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
        dump(three_app_corpus)
        assert built == ["app_bad", "app_ok1", "app_ok2"]
        built.clear()
        scan(three_app_corpus)
        assert built == ["app_bad"]  # the clean apps' marks miss a category, so they cannot flag

    def test_graph_sink_receives_sorted_edges(self, three_app_corpus):
        text = dump(three_app_corpus)
        assert text.count("# callgraph ") == 3
        edge_lines = [l for l in text.splitlines() if not l.startswith("#")]
        assert all("\t" in l for l in edge_lines)

    def test_graph_sink_golden(self, chain_corpus):
        assert dump(chain_corpus) == GOLDEN_CALLGRAPH


def _scan_and_emit(root, depth=3):
    # Every locally built object, the report included, is dropped on return.
    report = scan(root, depth)
    for fmt in ("json", "text"):
        emit_report(report, fmt)
    dump(root, depth)


def _scan_report_both(root, workers, depth=3):
    for fmt in ("json", "text"):
        scan_report(root, DetectorConfig(depth=depth), fmt, io.StringIO(), workers=workers)


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

    def test_parallel_scan_leaves_no_cyclic_garbage(self, every_path_corpus):
        # scan_report renders each app as it is scanned, and this process unpickles the
        # other shares' frames; neither may build a cycle. The first parallel scan
        # imports pickle and signal, whose imports leave cyclic garbage of their own,
        # once per process; so that one is not counted.
        scan_report(every_path_corpus, DetectorConfig(), "json", workers=2)
        for workers in (1, 2):
            assert unreachable_after(lambda: _scan_report_both(every_path_corpus, workers)) == 0

    def test_dense_apps_leave_no_cyclic_garbage(self, tmp_path):
        rng = random.Random(89)
        for i in range(6):
            for cls in random_instance(rng).app.classes:
                path = tmp_path / f"rand{i}" / f"{cls.descriptor}.smali"
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(render_class(cls), encoding="utf-8")
        assert sum(r.flagged for r in scan(tmp_path, 6).apps) >= 2
        assert unreachable_after(lambda: _scan_and_emit(tmp_path, 6)) == 0
        assert unreachable_after(lambda: _scan_report_both(tmp_path, 1, 6)) == 0

    def test_unlistable_directories_leave_no_cyclic_garbage(self, chain_corpus, monkeypatch):
        # os.walk hands each listing error to parse_app_dir, which raises the app
        # root's and reports a subdirectory's; neither may keep a cycle alive.
        (chain_corpus / "app_bad" / "sub").mkdir()
        denied = {str(chain_corpus / "app_ok1"), str(chain_corpus / "app_bad" / "sub")}
        real_scandir = os.scandir

        def scandir(path="."):
            if os.fspath(path) in denied:
                raise PermissionError(errno.EACCES, "Permission denied", os.fspath(path))
            return real_scandir(path)

        monkeypatch.setattr(os, "scandir", scandir)
        rows = {r.app_id: r for r in scan(chain_corpus).apps}
        assert rows["app_ok1"].diagnostics == ["app not scanned: unreadable: [Errno 13] Permission denied"]
        assert rows["app_bad"].diagnostics == ["sub: unreadable: [Errno 13] Permission denied"]
        assert rows["app_bad"].flagged
        assert unreachable_after(lambda: _scan_and_emit(chain_corpus)) == 0


class TestCollectorState:
    """``scan_corpus``, ``scan_report`` and ``emit_report`` pause the collector, and
    give the caller back the state it had, also when they raise."""

    @staticmethod
    def assert_paused_and_restored(work, during, enabled, fails):
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if fails:
                with pytest.raises(RuntimeError):
                    work()
            else:
                work()
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()
        assert during and not any(during)

    def assert_scan_paused_and_restored(self, root, monkeypatch, enabled, fails, scan):
        # This process scans share 0 (with 2 workers, app_bad and app_ok1), and
        # raises on its second app.
        during = []

        def parse(app_dir, app_id):
            during.append(gc.isenabled())
            if fails and len(during) == 2:
                raise RuntimeError("parser crashed")
            return parse_app_dir(app_dir, app_id)

        monkeypatch.setattr(report_module, "parse_app_dir", parse)
        self.assert_paused_and_restored(lambda: scan(root), during, enabled, fails)
        return during

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("fails", [False, True], ids=["completes", "raises"])
    def test_scan_restores_callers_collector_state(self, chain_corpus, monkeypatch, enabled, fails):
        self.assert_scan_paused_and_restored(chain_corpus, monkeypatch, enabled, fails, scan)

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("fails", [False, True], ids=["completes", "raises"])
    def test_parallel_scan_restores_callers_collector_state(self, chain_corpus, monkeypatch, enabled, fails):
        def parallel_scan(root):
            return scan_report(root, DetectorConfig(), "text", workers=2)

        during = self.assert_scan_paused_and_restored(chain_corpus, monkeypatch, enabled, fails, parallel_scan)
        assert len(during) == 2  # the worker parsed the other two apps

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("fails", [False, True], ids=["completes", "raises"])
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_emit_restores_callers_collector_state(self, chain_corpus, monkeypatch, enabled, fails, fmt):
        report = scan(chain_corpus)
        during = []
        row = report_module._json_row if fmt == "json" else report_module._text_row

        def recording_row(*args):
            during.append(gc.isenabled())
            if fails:
                raise RuntimeError("writer crashed")
            return row(*args)

        monkeypatch.setattr(report_module, row.__name__, recording_row)
        self.assert_paused_and_restored(lambda: emit_report(report, fmt), during, enabled, fails)


def _outputs(root, workers: int) -> tuple[Totals, bytes, bytes, str]:
    """``scan_report``'s totals, its JSON and text reports, and its call-graph dump."""
    sink = io.StringIO()
    totals, json_pieces = scan_report(root, DetectorConfig(), "json", sink, workers=workers)
    _, text_pieces = scan_report(root, DetectorConfig(), "text", workers=workers)
    return totals, b"".join(json_pieces), b"".join(text_pieces), sink.getvalue()


def _in_process(root) -> tuple[Totals, bytes, bytes, str]:
    """The same four, in one process: the reports from ``scan_corpus`` and
    ``emit_report``, and the dump from ``scan_report``."""
    report = scan(root)
    json_text, text = (emit_report(report, fmt).encode("utf-8", "backslashreplace") for fmt in ("json", "text"))
    return report.totals, json_text, text, dump(root)


def assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestWorkers:
    """``scan_report(..., workers=w)`` forks ``w - 1`` workers; whatever ``w``, the
    reports are the bytes that ``scan_corpus`` and ``emit_report`` give, and the
    call-graph dump the bytes that ``scan_report`` writes in one process."""

    @pytest.mark.parametrize("workers", [1, 2, 3, 7])
    def test_every_path_corpus_same_bytes(self, every_path_corpus, workers):
        expected = _in_process(every_path_corpus)
        assert expected[1].count(b'"app_id"') == 6 and expected[3].count("# callgraph") == 5
        assert _outputs(every_path_corpus, workers) == expected
        assert_no_child_left()

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.integers(0, 19), max_size=9, unique=True))
    def test_planted_corpora_same_bytes(self, picks):
        # planted_corpus(10, 10) lists 10 vulnerable apps, then 10 clean ones.
        apps = planted_corpus(10, 10)
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            write_corpus(root, [apps[i] for i in picks])
            expected = _in_process(root)
            for workers in (1, 2, 3, 7):
                assert _outputs(root, workers) == expected
        assert_no_child_left()

    def test_workers_send_rendered_parts(self, chain_corpus, monkeypatch, tmp_path):
        # A worker pickles each app's (flagged, diagnostic count, part, edge text) frame
        # on its own, the part a list of encoded chunks. The worker is another process,
        # so each call appends what it was given to a log that this process reads.
        import pickle

        dump, log = pickle.dump, tmp_path / "dumps.log"

        def logged_dump(frame, file, protocol):
            kinds = [type(x).__name__ for x in frame] + [all(type(chunk) is bytes for chunk in frame[2])]
            with open(log, "a", encoding="utf-8") as f:
                f.write(f"{os.getpid()} {' '.join(map(str, kinds))}\n")
            dump(frame, file, protocol)

        monkeypatch.setattr(pickle, "dump", logged_dump)
        # Two shares: the worker scans app_chain and app_ok2, once for JSON with a graph sink, once for text.
        assert _outputs(chain_corpus, 2) == _in_process(chain_corpus)
        assert_no_child_left()
        calls = [line.split(" ", 1) for line in log.read_text(encoding="utf-8").splitlines()]
        pids = list(dict.fromkeys(pid for pid, _ in calls))
        assert len(pids) == 2 and str(os.getpid()) not in pids
        assert [kinds for pid, kinds in calls if pid == pids[0]] == ["bool int list str True"] * 2
        assert [kinds for pid, kinds in calls if pid == pids[1]] == ["bool int list NoneType True"] * 2

    @pytest.mark.parametrize("chunk", [1, 2, 3])
    def test_part_in_chunks_keeps_lone_surrogates_whole(self, chain_corpus, monkeypatch, chunk):
        # An app directory name that is not UTF-8 decodes with a leading lone surrogate,
        # and a smali escape spells one in a string constant. Chunks of one piece put
        # a chunk boundary on each side of every piece that holds one.
        app = chain_corpus / os.fsdecode(b"\xffapp")
        shutil.copytree(chain_corpus / "app_chain", app)
        sink = "    invoke-direct {v1, v0}, Ljava/io/FileOutputStream;-><init>(Ljava/lang/String;)V"
        body = [const_string_line("/sdcard/user_log/\\ud800"), sink]
        (app / "S.smali").write_text(class_text("Lsu/S;", methods=[method_text("s", body=body)]), encoding="utf-8")
        monkeypatch.setattr(report_module, "_CHUNK", chunk)
        totals, pieces = scan_report(chain_corpus, DetectorConfig(), "json", workers=1)
        assert len(pieces) >= 2 + 2 * totals.apps_scanned  # every part spans 2 chunks or more
        if chunk == 1:
            assert b'"\\udcffapp"' in pieces
        assert b"".join(pieces) == emit_report(scan(chain_corpus)).encode("utf-8", "backslashreplace")
        assert b"/sdcard/user_log/\\ud800" in b"".join(pieces)
        assert _outputs(chain_corpus, 2) == _in_process(chain_corpus)
        assert_no_child_left()

    def test_failed_worker_raises_with_its_exit_status(self, chain_corpus, monkeypatch, capfd):
        # Two shares: this process scans app_bad and app_ok1, the worker app_chain and app_ok2.
        def detect(app, config, graph=None):
            if app.app_id == "app_chain":
                raise ValueError("planted fault in app_chain")
            return detect_app(app, config, graph=graph)

        monkeypatch.setattr(report_module, "detect_app", detect)
        pid = os.getpid()
        with pytest.raises(RuntimeError, match="scan worker 1 failed: exit status 1"):
            scan_report(chain_corpus, DetectorConfig(), "json", workers=2)
        assert os.getpid() == pid
        assert_no_child_left()
        assert "ValueError: planted fault in app_chain" in capfd.readouterr().err

    def test_killed_worker_raises_with_its_signal(self, chain_corpus, monkeypatch):
        # The worker kills itself mid-share: in its second app, after its first frame is spooled.
        pid, seen = os.getpid(), []

        def parse(app_dir, app_id):
            if os.getpid() != pid:
                seen.append(app_id)  # the worker's own copy
                if len(seen) == 2:
                    os.kill(os.getpid(), signal.SIGKILL)
            return parse_app_dir(app_dir, app_id)

        monkeypatch.setattr(report_module, "parse_app_dir", parse)
        with pytest.raises(RuntimeError, match="scan worker 1 failed: exit status -9"):
            scan_report(chain_corpus, DetectorConfig(), "json", workers=2)
        assert_no_child_left()

    def test_spools_leave_nothing_behind(self, chain_corpus, monkeypatch, tmp_path):
        # Whether a scan completes, a worker fails or it is interrupted, the spools'
        # directory is left empty and no descriptor is left open.
        spool_dir = tmp_path / "spools"
        spool_dir.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(spool_dir))
        fds = "/proc/self/fd"
        before = sorted(os.listdir(fds)) if os.path.isdir(fds) else None
        pid = os.getpid()

        def failing(app_dir, app_id):
            if os.getpid() != pid:
                raise ValueError("planted fault in the worker")
            return parse_app_dir(app_dir, app_id)

        def interrupted(app_dir, app_id):
            if os.getpid() == pid:
                raise KeyboardInterrupt
            time.sleep(60)

        for parse, raised in [(parse_app_dir, None), (failing, RuntimeError), (interrupted, KeyboardInterrupt)]:
            monkeypatch.setattr(report_module, "parse_app_dir", parse)
            with pytest.raises(raised) if raised else contextlib.nullcontext() as caught:
                scan_report(chain_corpus, DetectorConfig(), "json", workers=2)
            # Until the next round, ``caught`` keeps the scan's frame, and so its locals,
            # alive: the scan itself closed its spools, not their collection.
            assert_no_child_left()
            assert list(spool_dir.iterdir()) == []
            if before is not None:
                assert sorted(os.listdir(fds)) == before

    def test_no_spool_no_forking_scan(self, chain_corpus, monkeypatch, tmp_path):
        # A forking scan needs a writable temporary directory; without one it raises
        # OSError, which the CLI turns into exit status 2, before any worker starts.
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
        with pytest.raises(OSError):
            scan_report(chain_corpus, DetectorConfig(), "json", workers=2)
        assert_no_child_left()
        # One worker, or one app, scans in this process and needs no spool.
        assert scan_report(chain_corpus, DetectorConfig(), "json", workers=1)[0].apps_scanned == 4
        shutil.copytree(chain_corpus / "app_chain", tmp_path / "one" / "app_chain")
        assert scan_report(tmp_path / "one", DetectorConfig(), "json", workers=7)[0].apps_flagged == 1

    def test_interrupted_scan_kills_its_workers(self, chain_corpus, monkeypatch):
        # The worker hangs in its first app; this process is interrupted in its first.
        pid = os.getpid()

        def parse(app_dir, app_id):
            if os.getpid() == pid:
                raise KeyboardInterrupt
            time.sleep(60)

        monkeypatch.setattr(report_module, "parse_app_dir", parse)
        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            scan_report(chain_corpus, DetectorConfig(), "json", workers=2)
        assert_no_child_left()
        assert time.monotonic() - started < 30

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_cli_on_one_cpu_writes_the_same_bytes(self, every_path_corpus, fmt):
        # The CLI takes its worker count from the CPU affinity mask; pinned to CPU 0 it scans in one process.
        def run(preexec_fn):
            return subprocess.run(
                [sys.executable, "-m", "storescan", "scan", str(every_path_corpus), "--format", fmt,
                 "--dump-callgraph"],
                capture_output=True, env=cli_env(), preexec_fn=preexec_fn, check=True,
            )

        one_cpu = run(lambda: os.sched_setaffinity(0, {0}))
        unrestricted = run(None)
        assert (one_cpu.stdout, one_cpu.stderr) == (unrestricted.stdout, unrestricted.stderr)
        assert one_cpu.stderr.count(b"# callgraph") == 5


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

    def test_unknown_format_rejected(self, three_app_corpus, monkeypatch):
        report = CorpusReport(DetectorConfig(), [])
        with pytest.raises(ValueError):
            emit_report(report, "xml")
        monkeypatch.setattr(report_module, "parse_app_dir", None)  # rejected before any app is read
        with pytest.raises(ValueError):
            scan_report(three_app_corpus, DetectorConfig(), "xml")

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


# Characters json.dumps escapes or passes through specially, lone surrogates among
# them, mixed with arbitrary text.
json_strings = st.text(
    st.one_of(st.sampled_from('"\\/\x00\x08\x1f\x7f\u2028\u2029\ud800\udfffé€😀'), st.characters()),
    max_size=8,
)
lines = st.integers(0, 2**31)


@st.composite
def reports(draw) -> CorpusReport:
    """Reports of any shape the writer may meet. Each app draws its methods, and
    its rows, from a pool of its own, so rows repeat within an app as
    ``detect_app``'s do."""
    apps = []
    for app_id in draw(st.lists(json_strings, max_size=3)):
        refs = st.sampled_from(draw(st.lists(
            st.builds(MethodRef, st.sampled_from(["La/A;", "Lb/B;"]), json_strings, st.just("()V")),
            min_size=1, max_size=3)))
        hits = st.one_of(
            st.builds(KeywordHit, json_strings, json_strings, lines),
            st.builds(PathSourceHit, json_strings, lines),
            st.builds(WriteSinkHit, refs, lines),
        )
        rows = st.lists(st.sampled_from(draw(st.lists(st.builds(Evidence, refs, hits, st.integers(0, 50)),
                                                      min_size=1, max_size=4))), max_size=3)
        chains = st.dictionaries(st.sampled_from(ConditionSet._fields), st.lists(refs, max_size=2))
        findings = st.lists(st.builds(Finding, refs, st.builds(ConditionSet, rows, rows, rows), chains),
                            max_size=3)
        apps.append(DetectionResult(app_id, draw(findings), draw(st.lists(json_strings, max_size=3))))
    return CorpusReport(DetectorConfig(depth=draw(st.integers(1, 10**6))), apps)


# One row object listed under two categories and in two apps, as no detect_app
# output lists it: the text writer's row cache must keep the category apart.
SHARED_ROW = Evidence(MethodRef("La/A;", "f", "()V"), KeywordHit("/sdcard/user_log", "log", 3), 1)


def finding_listing(row: Evidence) -> Finding:
    return Finding(row.method, ConditionSet([row], [], [row]), {"keyword": [row.method]})


class TestTextWriter:
    @given(reports())
    @example(CorpusReport(DetectorConfig(), [DetectionResult(a, [finding_listing(SHARED_ROW)]) for a in "ab"]))
    def test_matches_oracle(self, report):
        assert emit_report(report, "text") == text_report_oracle(report)


class TestJsonWriter:
    @given(reports())
    @example(CorpusReport(DetectorConfig(), []))
    @example(CorpusReport(DetectorConfig(), [DetectionResult("a\ud800", [], ["B.smali: unreadable: x"])]))
    def test_matches_json_dumps(self, report):
        expected = json.dumps(report_to_dict(report), indent=2, ensure_ascii=False) + "\n"
        assert emit_report(report, "json") == expected

    @pytest.mark.parametrize(
        "tree", [1.5, None, ("a", 1), [1, 2.0], {"a": None}, {"a": [("b",)]}, {1: "a"}]
    )
    def test_other_types_raise_type_error(self, tree):
        # Every string field goes through json's str encoder, which refuses any
        # other type; json.dumps would write each of these as some other JSON value.
        report = CorpusReport(DetectorConfig(), [DetectionResult(tree, [], [])])
        with pytest.raises(TypeError):
            emit_report(report, "json")

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
