import json
import re
import subprocess
import sys

import jsonschema

from conftest import cli_env, load_report_schema


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "storescan", *args],
        capture_output=True,
        text=True,
        env=cli_env(),
        **kwargs,
    )


class TestExitCodes:
    def test_clean_scan_exits_zero(self, tmp_path):
        root = tmp_path / "corpus"
        root.mkdir()
        proc = run_cli("scan", str(root))
        assert proc.returncode == 0

    def test_flagged_without_flag_exits_zero(self, three_app_corpus):
        proc = run_cli("scan", str(three_app_corpus))
        assert proc.returncode == 0

    def test_flagged_with_fail_on_detect_exits_one(self, three_app_corpus):
        proc = run_cli("scan", str(three_app_corpus), "--fail-on-detect")
        assert proc.returncode == 1

    def test_clean_with_fail_on_detect_exits_zero(self, tmp_path):
        root = tmp_path / "corpus"
        root.mkdir()
        proc = run_cli("scan", str(root), "--fail-on-detect")
        assert proc.returncode == 0

    def test_missing_root_exits_two(self, tmp_path):
        proc = run_cli("scan", str(tmp_path / "missing"))
        assert proc.returncode == 2

    def test_bad_depth_exits_two(self, three_app_corpus):
        proc = run_cli("scan", str(three_app_corpus), "--depth", "0")
        assert proc.returncode == 2

    def test_bad_rules_file_exits_two(self, three_app_corpus, tmp_path):
        rules = tmp_path / "rules.txt"
        rules.write_text("[bogus]\nx\n", encoding="utf-8")
        proc = run_cli("scan", str(three_app_corpus), "--rules", str(rules))
        assert proc.returncode == 2
        assert "bad ruleset" in proc.stderr

    def test_unwritable_output_exits_two(self, three_app_corpus, tmp_path):
        # Exit 1 would read as "apps flagged" under --fail-on-detect.
        out = tmp_path / "missing" / "report.json"
        proc = run_cli("scan", str(three_app_corpus), "--output", str(out), "--fail-on-detect")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_bad_format_exits_two(self, three_app_corpus):
        proc = run_cli("scan", str(three_app_corpus), "--format", "xml")
        assert proc.returncode == 2


class TestOutputs:
    def test_json_stdout_validates(self, three_app_corpus):
        proc = run_cli("scan", str(three_app_corpus))
        payload = json.loads(proc.stdout)
        jsonschema.validate(payload, load_report_schema())
        assert payload["totals"] == {
            "apps_scanned": 3,
            "apps_flagged": 1,
            "parse_diagnostics": 0,
        }

    def test_byte_identical_across_runs(self, three_app_corpus):
        first = run_cli("scan", str(three_app_corpus))
        second = run_cli("scan", str(three_app_corpus))
        assert first.stdout == second.stdout

    def test_output_file(self, three_app_corpus, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli("scan", str(three_app_corpus), "--output", str(out))
        assert proc.returncode == 0
        assert proc.stdout == ""
        assert json.loads(out.read_text(encoding="utf-8"))["totals"]["apps_scanned"] == 3

    def test_text_format_summary(self, three_app_corpus):
        proc = run_cli("scan", str(three_app_corpus), "--format", "text")
        assert proc.stdout.splitlines()[0] == "scanned=3 flagged=1"

    def test_depth_changes_outcome(self, tmp_path):
        # Chain app: marks complete only two hops out, so depth 3 flags it
        # and depth 1 does not.
        from appgen import class_text, const_string_line, invoke_line, method_text

        root = tmp_path / "corpus"
        (root / "chain").mkdir(parents=True)
        main = class_text(
            "Lch/Main;",
            methods=[
                method_text(
                    "run",
                    body=[
                        "    invoke-static {}, Landroid/os/Environment;->getExternalStorageDirectory()Ljava/io/File;",
                        invoke_line("static", "Lch/Help;", "step1", "()V"),
                    ],
                )
            ],
        )
        help_cls = class_text(
            "Lch/Help;",
            methods=[
                method_text("step1", body=[const_string_line("/user_log"), invoke_line("static", "Lch/Help;", "step2", "()V")]),
                method_text("step2", body=["    invoke-virtual {v2}, Ljava/io/File;->mkdir()Z"]),
            ],
        )
        (root / "chain" / "Main.smali").write_text(main, encoding="utf-8")
        (root / "chain" / "Help.smali").write_text(help_cls, encoding="utf-8")

        deep = json.loads(run_cli("scan", str(root), "--depth", "3").stdout)
        shallow = json.loads(run_cli("scan", str(root), "--depth", "1").stdout)
        assert deep["totals"]["apps_flagged"] == 1
        assert shallow["totals"]["apps_flagged"] == 0

    def test_dump_callgraph_on_stderr(self, three_app_corpus):
        proc = run_cli("scan", str(three_app_corpus), "--dump-callgraph")
        assert proc.returncode == 0
        assert "# callgraph app_bad" in proc.stderr
        json.loads(proc.stdout)  # report itself stays clean

    def test_custom_rules_change_result(self, three_app_corpus, tmp_path):
        # With a keyword vocabulary that never matches, nothing is flagged.
        rules = tmp_path / "rules.txt"
        rules.write_text("[keywords]\nzzzz\n", encoding="utf-8")
        payload = json.loads(run_cli("scan", str(three_app_corpus), "--rules", str(rules)).stdout)
        assert payload["totals"]["apps_flagged"] == 0

    def test_help_exits_zero(self):
        assert run_cli("scan", "--help").returncode == 0
        assert run_cli("--help").returncode == 0

    def test_version_exits_zero(self):
        # Works from a source checkout too, where no package metadata exists.
        proc = run_cli("--version")
        assert proc.returncode == 0, proc.stderr
        assert re.fullmatch(r"storescan, version (\S+|unknown \(not installed\))\n", proc.stdout)
