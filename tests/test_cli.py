import json
import os
import signal
import subprocess
import sys
import time

import jsonschema
import pytest

import storescan
from storescan.detector import DetectorConfig

from appgen import class_text, const_string_line, invoke_line, method_text
from conftest import cli_env, load_report_schema


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "storescan", *args],
        capture_output=True,
        encoding="utf-8",
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

    @pytest.mark.parametrize("case", ["missing", "root-is-file", "rules-dir", "output-dir"])
    def test_missing_root_exits_two(self, three_app_corpus, tmp_path, case):
        # No path is checked before it is used: each is the OS's own error, on one line.
        (tmp_path / "file").write_bytes(b"")
        (tmp_path / "dir").mkdir()
        root = {"missing": tmp_path / "missing", "root-is-file": tmp_path / "file"}.get(case, three_app_corpus)
        rules = ["--rules", str(tmp_path / "dir")] if case == "rules-dir" else []
        out = tmp_path / ("dir" if case == "output-dir" else "report.json")
        proc = run_cli("scan", str(root), *rules, "--output", str(out))
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1
        assert "Traceback" not in proc.stderr
        assert proc.stdout == "" and not out.is_file() and not any((tmp_path / "dir").iterdir())

    @pytest.mark.parametrize("args", [["--depth", "0"], ["--dep", "4"]], ids=["zero", "abbreviated"])
    def test_bad_depth_exits_two(self, three_app_corpus, tmp_path, args):
        out = tmp_path / "report.json"
        proc = run_cli("scan", str(three_app_corpus), *args, "--output", str(out))
        assert proc.returncode == 2
        assert not out.exists()

    def test_bad_rules_file_exits_two(self, three_app_corpus, tmp_path):
        rules = tmp_path / "rules.txt"
        rules.write_text("[bogus]\nx\n", encoding="utf-8")
        proc = run_cli("scan", str(three_app_corpus), "--rules", str(rules))
        assert proc.returncode == 2
        assert "bad ruleset" in proc.stderr

    def test_undecodable_rules_file_exits_two(self, tmp_path):
        # Exit 1 would read as "apps flagged" under --fail-on-detect.
        root = tmp_path / "corpus"
        root.mkdir()
        rules = tmp_path / "r.rules"
        rules.write_bytes(b"[keywords]\n\xff\xfe\n")
        proc = run_cli("scan", str(root), "--rules", str(rules), "--fail-on-detect")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: bad ruleset: ") and len(proc.stderr.splitlines()) == 1
        assert "codec can't decode" in proc.stderr and proc.stdout == ""

    def test_unwritable_output_exits_two(self, three_app_corpus, tmp_path):
        # Exit 1 would read as "apps flagged" under --fail-on-detect.
        out = tmp_path / "missing" / "report.json"
        proc = run_cli("scan", str(three_app_corpus), "--output", str(out), "--fail-on-detect")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("stdout", ["dev-full", "closed-pipe"])
    def test_unwritable_stdout_exits_two(self, tmp_path, stdout):
        # Exit 1 would read as "apps flagged" under --fail-on-detect.
        root = tmp_path / "corpus"
        root.mkdir()
        if stdout == "dev-full":
            if not os.path.exists("/dev/full"):
                pytest.skip("no /dev/full device")
            sink = open("/dev/full", "wb")
        else:
            read_end, write_end = os.pipe()
            os.close(read_end)
            sink = open(write_end, "wb")
        with sink:
            proc = subprocess.run(
                [sys.executable, "-m", "storescan", "scan", str(root), "--fail-on-detect"],
                stdout=sink, stderr=subprocess.PIPE, encoding="utf-8", env=cli_env(),
            )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("cpus", ["0", "0,1"], ids=["in-process", "in-worker"])
    def test_failed_scan_exits_two(self, three_app_corpus, tmp_path, cpus):
        # detect_app raises for app_ok1, which this process scans on one CPU and the
        # worker scans on two. app_bad is flagged: exit 1 would read as "apps flagged".
        script = (
            "import os, sys\n"
            "from storescan import report\n"
            "from storescan.cli import main\n"
            "real = report.detect_app\n"
            "def detect(app, config, graph=None):\n"
            "    if app.app_id == 'app_ok1':\n"
            "        raise ValueError('planted fault in app_ok1')\n"
            "    return real(app, config, graph=graph)\n"
            "report.detect_app = detect\n"
            "os.sched_getaffinity = lambda pid: set(map(int, sys.argv[1].split(',')))\n"
            "main(sys.argv[2:])\n"
        )
        out = tmp_path / "report.json"
        proc = subprocess.run(
            [sys.executable, "-c", script, cpus, "scan", str(three_app_corpus), "--fail-on-detect",
             "--output", str(out)],
            capture_output=True, encoding="utf-8", env=cli_env(),
        )
        assert proc.returncode == 2
        *traceback, error = proc.stderr.splitlines()
        assert "ValueError: planted fault in app_ok1" in traceback
        if cpus == "0":
            assert error == "error: scan failed: ValueError: planted fault in app_ok1"
        else:
            assert error == "error: scan failed: RuntimeError: scan worker 1 failed: exit status 1"
        assert proc.stdout == "" and not out.exists()

    def test_interrupt_prints_one_traceback(self, three_app_corpus, tmp_path):
        # On two CPUs, this process and its worker each hold in their first app until
        # Ctrl-C reaches the whole process group, as it does from a terminal. This
        # process then takes a moment before it unwinds, which would give a worker
        # that had caught the interrupt the time to print its own traceback.
        script = (
            "import os, sys, time\n"
            "from storescan import report\n"
            "from storescan.cli import main\n"
            "cli_pid = os.getpid()\n"
            "def hold(app_dir, app_id):\n"
            "    open(os.path.join(sys.argv[1], str(os.getpid())), 'wb').close()\n"
            "    try:\n"
            "        time.sleep(60)\n"
            "    except KeyboardInterrupt:\n"
            "        if os.getpid() == cli_pid:\n"
            "            time.sleep(0.5)\n"
            "        raise\n"
            "report.parse_app_dir = hold\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "main(sys.argv[2:])\n"
        )
        held = tmp_path / "held"
        held.mkdir()
        proc = subprocess.Popen(
            [sys.executable, "-c", script, str(held), "scan", str(three_app_corpus)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, encoding="utf-8", env=cli_env(),
            start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 30
            while len(os.listdir(held)) < 2 and time.monotonic() < deadline and proc.poll() is None:
                time.sleep(0.02)
            assert len(os.listdir(held)) == 2
            os.killpg(proc.pid, signal.SIGINT)
            _, stderr = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
        assert stderr.count("Traceback") == 1, stderr
        assert stderr.rstrip().endswith("KeyboardInterrupt")
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)  # nothing is left of the process group

    def test_bad_format_exits_two(self, three_app_corpus, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli("scan", str(three_app_corpus), "--format", "xml", "--output", str(out))
        assert proc.returncode == 2
        assert not out.exists()


def test_needs_only_the_standard_library(tmp_path):
    # The modules already loaded are left out: a .pth file can make site import anything.
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from storescan.cli import main\n"
        "status = 'no SystemExit'\n"
        "try:\n"
        "    main(['scan', sys.argv[1]])\n"
        "except SystemExit as exc:\n"
        "    status = exc.code\n"
        "new = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(status, sorted(new - set(sys.stdlib_module_names) - {'storescan'}), file=sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)], capture_output=True, encoding="utf-8", env=cli_env()
    )
    assert proc.stderr.splitlines()[-1:] == ["0 []"], proc.stderr
    assert json.loads(proc.stdout)["totals"]["apps_scanned"] == 0


def test_start_up_imports_only_what_a_scan_runs(tmp_path):
    # -S: site imports nothing, so a module the scan does not need shows as loaded
    # only if storescan imports it.
    script = (
        "import sys\n"
        "from storescan.cli import main\n"
        "try:\n"
        "    main(['scan', sys.argv[1]])\n"
        "except SystemExit:\n"
        "    pass\n"
        "unused = ['dataclasses', 'inspect', 'importlib.resources', 'pathlib']\n"
        "print(sorted(name for name in unused if name in sys.modules), file=sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script, str(tmp_path)], capture_output=True, encoding="utf-8", env=cli_env()
    )
    assert proc.stderr.splitlines()[-1:] == ["[]"], proc.stderr
    assert json.loads(proc.stdout)["totals"]["apps_scanned"] == 0


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
        scan_help = run_cli("scan", "--help")
        assert scan_help.returncode == 0
        assert run_cli("--help").returncode == 0
        # The --depth default is DetectorConfig's.
        assert DetectorConfig.depth == 3
        assert "Call-chain depth bound. [default: 3;" in " ".join(scan_help.stdout.split())

    def test_version_exits_zero(self):
        # The same from a source checkout, where no package metadata exists.
        proc = run_cli("--version")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"storescan, version {storescan.__version__}\n"


class TestLoneSurrogates:
    """A string no UTF-8 encoder accepts is written as \\uXXXX: the same bytes on
    stdout and in --output, whatever the locale, and exit status 0."""

    LOCALES = [{"LC_ALL": "C"}, {"PYTHONIOENCODING": "utf-8:strict"}]

    @pytest.fixture
    def corpus(self, tmp_path):
        # An unpaired surrogate in a keyword-and-path string, in an app whose
        # directory name is not UTF-8 (decoded with surrogateescape as bad\udcff).
        vuln = class_text(
            "Lsu/V;",
            methods=[
                method_text(
                    "run",
                    body=[
                        const_string_line("/sdcard/user_log/\\ud800"),
                        "    invoke-direct {v1, v0}, Ljava/io/FileOutputStream;-><init>(Ljava/lang/String;)V",
                    ],
                )
            ],
        )
        app = tmp_path / "corpus" / os.fsdecode(b"bad\xff")
        app.mkdir(parents=True)
        (app / "V.smali").write_text(vuln, encoding="utf-8")
        return tmp_path / "corpus"

    def _scan(self, corpus, env, *args):
        proc = subprocess.run(
            [sys.executable, "-m", "storescan", "scan", str(corpus), *args],
            capture_output=True,
            env={**cli_env(), **env},
        )
        # A crash exits 1, which --fail-on-detect reads as "flagged".
        assert proc.returncode == 0, proc.stderr
        return proc

    @pytest.mark.parametrize("env", LOCALES)
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_stdout_equals_output_file(self, corpus, tmp_path, env, fmt):
        out = tmp_path / "report"
        to_file = self._scan(corpus, env, "--format", fmt, "--output", str(out))
        assert to_file.stdout == to_file.stderr == b""
        assert self._scan(corpus, env, "--format", fmt).stdout == out.read_bytes()

    def test_json_round_trips_the_surrogates(self, corpus):
        payload = json.loads(self._scan(corpus, {}).stdout.decode("utf-8"))
        app = payload["apps"][0]
        assert app["app_id"] == "bad\udcff"
        assert app["findings"][0]["categories"]["keyword"][0]["value"] == "/sdcard/user_log/\ud800"

    @pytest.mark.parametrize("env", LOCALES)
    def test_dump_callgraph_shows_escapes(self, corpus, env):
        stderr = self._scan(corpus, env, "--dump-callgraph").stderr
        assert stderr.startswith(b"# callgraph bad\\udcff\n")

    def test_text_shows_escapes(self, corpus):
        text = self._scan(corpus, {"LC_ALL": "C"}, "--format", "text").stdout.decode("ascii")
        assert "app bad\\udcff: 1 finding(s)" in text
        assert 'keyword: "/sdcard/user_log/\\ud800"' in text
