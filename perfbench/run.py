#!/usr/bin/env python3
"""Benchmark of the storescan CLI: one workload, one seed, one run.

    python3 perfbench/run.py --workload wide --seed 1 --seconds 30 --trace 0

The workload's corpus is generated from the seed (see ``workloads.py``) and
written once to a scratch directory under ``.perfbench_work/`` in the
checkout, which is removed afterwards. One untimed scan makes the reference
report, which is checked against the planted expectation (``check.py``).

``--trace 0`` then runs ``storescan scan <corpus> --depth D --output <file>``
in a fresh interpreter, alternating with the same command on an empty corpus,
until ``--seconds`` have passed; every report must equal the reference byte
for byte. It prints the end-to-end metrics named in ``BENCHMARK.json``.

``--trace 1`` instead runs the same calls in this process, alternating an
untraced run with one traced from outside (``tracing.py``), and prints the
per-layer metrics. Spans of the last traced run go to
``.perfbench_work/spans-<workload>.json``.

The corpus is read with a warm page cache: the reference scan reads it
first, and cold-disk reads are not measured. Load comes from this single
process and the one scan it waits for; no threads are started. The last
line of output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REQUIRED = (
    "BENCHMARK.json",
    "src/storescan/__init__.py",
    "src/storescan/report_schema.json",
    "tests/appgen.py",
    "tests/oracle.py",
)
WORK_DIR = ROOT / ".perfbench_work"
MIN_SAMPLES = 3
SCAN_TIMEOUT_S = 150


@dataclass
class Scan:
    seconds: float
    rss_mb: float
    code: int
    report: bytes
    stderr: str


class Cli:
    """Runs ``python -m storescan scan`` from the checkout's ``src``."""

    def __init__(self, work: Path, depth: int) -> None:
        self.work = work
        self.depth = depth
        self.env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

    def scan(self, corpus_dir: Path) -> Scan:
        out = self.work / "report.json"
        out.unlink(missing_ok=True)
        argv = [sys.executable, "-m", "storescan", "scan", str(corpus_dir),
                "--depth", str(self.depth), "--output", str(out)]
        err_path = self.work / "stderr.txt"
        with open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                    stderr=err, cwd=self.work, env=self.env)
            signal.signal(signal.SIGALRM, lambda *_: proc.kill())
            signal.setitimer(signal.ITIMER_REAL, SCAN_TIMEOUT_S)
            try:
                # wait4 gives this child's own resource usage, so the peak RSS
                # is the scan's alone.
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        report = out.read_bytes() if out.exists() else b""
        stderr = err_path.read_text(encoding="utf-8", errors="replace").strip()
        # ru_maxrss is in KiB on Linux.
        return Scan(elapsed, usage.ru_maxrss * 1024 / 1e6, proc.returncode, report, stderr)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _spread(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _done(start: float, seconds: float, samples: int) -> bool:
    elapsed = time.perf_counter() - start
    return (elapsed >= seconds and samples >= MIN_SAMPLES) or (elapsed >= 3 * seconds and samples >= 1)


def _scan_failure(what: str, run: Scan) -> str:
    tail = run.stderr.splitlines()[-1:] or ["(none)"]
    return f"{what}: exit {run.code} or a report unlike the reference; last stderr line: {tail[0]}"


def measure_cli(cli: Cli, corpus, corpus_dir: Path, empty_dir: Path, seconds: float,
                reference: bytes, tally) -> dict[str, list[float]]:
    """Alternate timed scans of the corpus and of an empty corpus."""
    empty = cli.scan(empty_dir)
    empty_ok = empty.code == 0 and json.loads(empty.report or b"{}").get("totals", {}).get("apps_scanned") == 0
    tally.record(empty_ok, _scan_failure("reference scan of the empty corpus", empty))
    want, want_empty = _digest(reference), _digest(empty.report)
    samples: dict[str, list[float]] = defaultdict(list)
    start = time.perf_counter()
    while not _done(start, seconds, len(samples["scan_s"])):
        run = cli.scan(corpus_dir)
        tally.record(run.code == 0 and _digest(run.report) == want, _scan_failure("timed scan", run))
        samples["scan_s"].append(run.seconds)
        samples["methods_per_s"].append(corpus.methods / run.seconds)
        samples["peak_rss_mb"].append(run.rss_mb)
        samples["report_mb"].append(len(run.report) / 1e6)
        setup = cli.scan(empty_dir)
        tally.record(setup.code == 0 and _digest(setup.report) == want_empty,
                     _scan_failure("empty-corpus scan", setup))
        samples["setup_s"].append(setup.seconds)
    return samples


def measure_traced(workload: str, corpus, corpus_dir: Path, seconds: float,
                   reference: bytes, tally) -> tuple[dict[str, list[float]], str]:
    """Alternate untraced and traced in-process runs of the scan pipeline."""
    import tracing
    from storescan.detector import DetectorConfig

    config = DetectorConfig(depth=corpus.depth)
    diagnostics = sum(corpus.diagnostics.values())
    lines = sum(text.count("\n") for text in corpus.files.values())
    samples: dict[str, list[float]] = defaultdict(list)
    start = time.perf_counter()
    rounds = 0
    while not _done(start, seconds, rounds):
        wall = {}
        for traced in ((False, True) if rounds % 2 == 0 else (True, False)):
            tracer = tracing.Tracer() if traced else None
            wall[traced], data = tracing.run_pipeline(corpus_dir, config, tracer)
            tally.record(data == reference, "in-process report differs from the CLI's")
            if traced:
                last = tracer
        tally.record(last.counts["smali_ir.methods"] == corpus.methods
                     and last.counts["smali_ir.diagnostics"] == diagnostics,
                     "traced run: method or diagnostic count differs from the corpus")
        for name, value in tracing.layer_metrics(last, len(corpus.files), lines).items():
            samples[name].append(value)
        samples["trace.untraced_s"].append(wall[False])
        samples["trace.overhead_s"].append(wall[True] - wall[False])
        rounds += 1
    spans = WORK_DIR / f"spans-{workload}.json"
    last.write(spans)
    layers = last.layer_self_times()
    note = ("self seconds by layer in the last traced run: "
            + ", ".join(f"{layer} {seconds:.6f}" for layer, seconds in layers.items())
            + f"; they sum to {sum(layers.values()):.6f} s and the traced total is "
            f"{last.totals()[0][tracing.ROOT_SPAN]:.6f} s; trace.overhead_s is "
            f"traced minus untraced wall time of the same calls; {len(last.spans)} spans "
            f"written to {spans.relative_to(ROOT)}")
    return samples, note


def main(argv: list[str] | None = None) -> int:
    # A terminated run still kills its scan and removes its scratch directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    missing = [rel for rel in REQUIRED if not (ROOT / rel).is_file()]
    if missing:
        print(f"perfbench: not a storescan checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(BENCH_DIR)]
    import storescan
    from check import Tally, check_report
    from workloads import WORKLOADS

    if not Path(storescan.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: imported storescan from {storescan.__file__}, not from this checkout",
              file=sys.stderr)
        return 2

    parser = argparse.ArgumentParser(description="storescan benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every workload size by this factor (smoke test only)")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or not 0 < args.scale <= 1:
        parser.error("--seconds must be > 0 and --scale in (0, 1]")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    schema = json.loads((ROOT / "src/storescan/report_schema.json").read_text(encoding="utf-8"))

    setup_start = time.perf_counter()
    corpus = WORKLOADS[args.workload](args.seed, args.scale)
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_DIR))
    try:
        corpus_dir, empty_dir = work / "corpus", work / "empty"
        corpus.write(corpus_dir)
        empty_dir.mkdir()
        cli = Cli(work, corpus.depth)
        tally = Tally()
        ref = cli.scan(corpus_dir)
        tally.record(ref.code == 0, _scan_failure("reference scan", ref))
        check_report(corpus, ref.report, schema, tally)
        prepared_s = time.perf_counter() - setup_start
        if args.trace:
            samples, note = measure_traced(args.workload, corpus, corpus_dir, args.seconds,
                                           ref.report, tally)
        else:
            samples = measure_cli(cli, corpus, corpus_dir, empty_dir, args.seconds, ref.report, tally)
            note = ("the empty-corpus command behind setup_s pays interpreter start, imports, "
                    "ruleset load and an empty report")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    unknown = sorted(set(units) - set(samples))
    if unknown:
        print(f"perfbench: BENCHMARK.json names metrics this benchmark does not produce: {unknown}",
              file=sys.stderr)
        return 2

    print(f"storescan benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} scale={args.scale:g}")
    print(f"corpus: {corpus.apps} app(s), {corpus.methods} methods, "
          f"{len(corpus.files)} files, depth {corpus.depth}; generated, written, scanned once "
          f"and checked in {prepared_s:.2f} s; read with a warm page cache "
          "(cold-disk reads are not measured)")
    print(f"{'metric':34} {'median':>14} {'q1':>14} {'q3':>14} {'n':>4}  unit")
    metrics = {}
    for name, unit in units.items():
        values = samples[name]
        q1, median, q3 = _spread(values)
        metrics[name] = {"value": median, "unit": unit}
        print(f"{name:34} {median:14.6g} {q1:14.6g} {q3:14.6g} {len(values):4d}  {unit}")
    error_rate = tally.failed / tally.attempted
    print(f"{'error_rate':34} {error_rate:14.6g} {'':14} {'':14} {tally.attempted:4d}  ratio"
          f"  ({tally.failed} failed of {tally.attempted} operations)")
    print(note)
    for problem in tally.problems:
        print(f"FAILED: {problem}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
