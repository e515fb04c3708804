#!/usr/bin/env python3
"""Smoke test of the benchmark at toy sizes.

    python3 perfbench/smoke.py

Runs every workload with and without tracing at ``--scale 0.02`` for one
second each. It fails unless every run exits 0, prints every metric that
``BENCHMARK.json`` names, with its unit, both in its table and in the final
JSON line, reports ``error_rate`` 0 and marks itself correct. It also checks
that the benchmark refuses to run, without a result, in a directory holding
only ``BENCHMARK.json`` and the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / BENCH_DIR.name / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def check_run(workload: str, trace: int, expected: list[dict]) -> list[str]:
    proc = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--scale", "0.02")
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-400:]}"]
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    table = {row[0]: row for row in (line.split() for line in lines[:-1]) if row}
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"{where}: result keys {sorted(result)}")
    if set(result["metrics"]) != {m["name"] for m in expected}:
        problems.append(f"{where}: metrics {sorted(result['metrics'])}")
    for metric in expected:
        name, unit = metric["name"], metric["unit"]
        got = result["metrics"].get(name, {})
        if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{where}: {name} in the JSON line is {got}, want a value in {unit}")
        if table.get(name, [""])[-1] != unit:
            problems.append(f"{where}: {name} is not in the table with unit {unit}")
    error_rate = table.get("error_rate", ["error_rate", "missing"])
    if error_rate[1:2] != ["0"] or "ratio" not in error_rate:
        problems.append(f"{where}: error_rate row {' '.join(error_rate)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} attempted={result['attempted']} "
                        f"failed={result['failed']}")
    return problems


def check_bare_directory() -> list[str]:
    """Without the program's sources the benchmark must fail and print no result."""
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=work))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, "--workload", "wide", "--seed", "1", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = check_bare_directory()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            problems += check_run(workload, trace, spec[key])
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
