"""Benchmark trajectory files (``BENCH_*.json`` at the repository root) must
use the names ``BENCHMARK.json`` defines, so they stay comparable as the
benchmark evolves. Each holds ``perfbench/run.py``'s final JSON line per run,
grouped by workload and by side (the parent commit and the change)."""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_trajectory_files_use_benchmark_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = {w["name"] for w in spec["workloads"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        runs_by_workload = json.loads(path.read_text(encoding="utf-8"))["workloads"]
        assert runs_by_workload and set(runs_by_workload) <= workloads, path.name
        for workload, sides in runs_by_workload.items():
            assert set(sides) == {"parent", "change"}, (path.name, workload)
            for side, runs in sides.items():
                assert runs, (path.name, workload, side)
                for run in runs:
                    assert run["correct"] and run["failed"] == 0, (path.name, workload, side)
                    metrics = {name: m["unit"] for name, m in run["metrics"].items()}
                    assert metrics and metrics.items() <= units.items(), (path.name, workload, side)
