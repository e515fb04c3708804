"""Per-layer trace of an in-process scan, taken from outside the program.

Spans are recorded in this file only: ``Tracer.patch`` swaps the module
attributes through which storescan's own functions call each other for
wrappers that time the call and count what it returned. Nothing under
``src/`` changes, and every attribute is restored afterwards. A span is
(name, start, end, parent, app); spans stay in memory and are written out
once, when the benchmark ends.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time
from collections import Counter, defaultdict
from pathlib import Path

from storescan import detector, report, smali_ir

ROOT_SPAN = "trace.pipeline"
#: A span's layer is the prefix of its name; "trace" is the benchmark's own glue.
LAYERS = ("smali_ir", "callgraph", "rules", "detector", "report", "trace")


def _count_app(c: Counter, parsed) -> None:
    app, diagnostics = parsed
    c["smali_ir.methods"] += sum(len(cls.methods) for cls in app.classes)
    c["smali_ir.diagnostics"] += len(diagnostics)


def _count_graph(c: Counter, g) -> None:
    c["callgraph.nodes"] += len(g.nodes)
    c["callgraph.edges"] += sum(len(callees) for callees in g.edges.values())


def _count_distances(c: Counter, dist) -> None:
    c["callgraph.bfs_nodes_visited"] += len(dist)


def _count_marks(c: Counter, ms) -> None:
    c["rules.keyword_hits"] += len(ms.keyword_hits)
    c["rules.path_source_hits"] += len(ms.path_source_hits)
    c["rules.write_sink_hits"] += len(ms.write_sink_hits)
    c["rules.marked_methods"] += bool(ms.keyword_hits or ms.path_source_hits or ms.write_sink_hits)


def _count_conditions(c: Counter, cs) -> None:
    rows = len(cs.keyword) + len(cs.path_source) + len(cs.write_sink)
    c["detector.seeds"] += 1
    c["detector.evidence_rows_built"] += rows
    if cs.satisfied():
        c["detector.seeds_satisfied"] += 1
        c["detector.evidence_rows_reported"] += rows


# (module, attribute the callers look up, span name, app id of the call, counter)
# Each attribute is the name under which the *calling* module reaches the
# function, so patching it captures the calls storescan makes internally.
PATCHES = [
    (report, "parse_app_dir", "smali_ir.parse_app_dir", lambda a: a[1], _count_app),
    (smali_ir, "parse_class", "smali_ir.parse_class", None, None),
    (report, "detect_app", "detector.detect_app", lambda a: a[0].app_id, None),
    (detector, "build_callgraph", "callgraph.build_callgraph", None, _count_graph),
    (detector, "mark_function", "rules.mark_function", None, _count_marks),
    (detector, "accumulate", "detector.accumulate", None, _count_conditions),
    (detector, "distances_within", "callgraph.distances_within", None, _count_distances),
    (report, "report_to_dict", "report.report_to_dict", None, None),
]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, app id]
        self.counts: Counter = Counter()
        self._stack = [-1]

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1], None])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def _wrap(self, fn, name, app_of, count):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1], app_of(args) if app_of else None])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    count(counts, result)
                return result
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()

        return traced

    @contextlib.contextmanager
    def patch(self):
        """Install the wrappers for the duration of the block. A function a
        later version of storescan no longer has is skipped, so its spans
        and counts read zero."""
        saved = []
        try:
            for module, attr, name, app_of, count in PATCHES:
                fn = getattr(module, attr, None)
                if fn is not None:
                    saved.append((module, attr, fn))
                    setattr(module, attr, self._wrap(fn, name, app_of, count))
            yield
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Total and self seconds per span name. A span's self time is its
        duration minus its direct children's durations, so the self times
        of all spans add up to the root spans' durations."""
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            self_time[name] += end - start
            if parent >= 0:
                self_time[self.spans[parent][0]] -= end - start
        return total, self_time

    def layer_self_times(self) -> dict[str, float]:
        """Self seconds per layer; they add up to the root span's duration."""
        layers = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in self.totals()[1].items():
            layers[name.split(".")[0]] += seconds
        return layers

    def app_latencies_ms(self) -> list[float]:
        per_app: dict[str, float] = defaultdict(float)
        for _, start, end, _, app in self.spans:
            if app is not None:
                per_app[app] += end - start
        return [1000 * s for s in per_app.values()]

    def write(self, path: Path) -> None:
        rows = [
            {"name": n, "start": s, "end": e, "parent": p, **({"app": a} if a is not None else {})}
            for n, s, e, p, a in self.spans
        ]
        path.write_text(json.dumps(rows) + "\n", encoding="utf-8")


def run_pipeline(corpus_dir: Path, config, tracer: Tracer | None) -> tuple[float, bytes]:
    """The calls ``storescan scan --output`` makes, in process: scan the
    corpus and render the JSON report; the text report is rendered too, so
    its serialiser is measured. Returns wall seconds and the JSON bytes."""
    if tracer is None:
        start = time.perf_counter()
        result = report.scan_corpus(corpus_dir, config)
        rendered = report.emit_report(result, "json")
        report.emit_report(result, "text")
        return time.perf_counter() - start, rendered.encode("utf-8")
    with tracer.patch():
        start = time.perf_counter()
        with tracer.span(ROOT_SPAN):
            with tracer.span("report.scan_corpus"):
                result = report.scan_corpus(corpus_dir, config)
            with tracer.span("report.emit_report_json"):
                rendered = report.emit_report(result, "json")
            with tracer.span("report.emit_report_text"):
                report.emit_report(result, "text")
        elapsed = time.perf_counter() - start
    data = rendered.encode("utf-8")
    tracer.counts["report.findings"] += sum(len(r.findings) for r in result.apps)
    tracer.counts["report.bytes"] += len(data)
    return elapsed, data


def layer_metrics(tracer: Tracer, files: int, lines: int) -> dict[str, float]:
    """Per-layer metrics of one traced pipeline run over a corpus of
    ``files`` smali files holding ``lines`` lines."""
    total, self_time = tracer.totals()
    c = tracer.counts
    m: dict[str, float] = {"smali_ir.files": files, "smali_ir.lines": lines}
    m["smali_ir.parse_app_dir_s"] = total["smali_ir.parse_app_dir"]
    m["smali_ir.parse_class_s"] = total["smali_ir.parse_class"]
    # parse_app_dir's own time once parse_class is taken out: walk + read.
    m["smali_ir.walk_read_s"] = self_time["smali_ir.parse_app_dir"]
    m["smali_ir.methods"] = c["smali_ir.methods"]
    m["smali_ir.diagnostics"] = c["smali_ir.diagnostics"]
    m["smali_ir.lines_per_s"] = _ratio(lines, total["smali_ir.parse_app_dir"])
    m["callgraph.build_callgraph_s"] = total["callgraph.build_callgraph"]
    m["callgraph.distances_within_s"] = total["callgraph.distances_within"]
    for key in ("callgraph.nodes", "callgraph.edges", "callgraph.bfs_nodes_visited"):
        m[key] = c[key]
    m["rules.mark_function_s"] = total["rules.mark_function"]
    for key in ("rules.keyword_hits", "rules.path_source_hits", "rules.write_sink_hits",
                "rules.marked_methods"):
        m[key] = c[key]
    m["detector.detect_app_s"] = total["detector.detect_app"]
    m["detector.accumulate_s"] = total["detector.accumulate"]
    # detect_app's own time once build, mark and accumulate are taken out:
    # the reverse graph, the witness chains and the loop over seeds.
    m["detector.witness_s"] = self_time["detector.detect_app"]
    for key in ("detector.seeds", "detector.seeds_satisfied", "detector.evidence_rows_built",
                "detector.evidence_rows_reported"):
        m[key] = c[key]
    m["detector.satisfied_ratio"] = _ratio(c["detector.seeds_satisfied"], c["detector.seeds"])
    m["report.scan_corpus_s"] = total["report.scan_corpus"]
    m["report.report_to_dict_s"] = total["report.report_to_dict"]
    m["report.emit_report_json_s"] = total["report.emit_report_json"]
    m["report.emit_report_text_s"] = total["report.emit_report_text"]
    m["report.findings"] = c["report.findings"]
    m["report.bytes"] = c["report.bytes"]
    for layer, seconds in tracer.layer_self_times().items():
        m[f"{layer}.self_s"] = seconds
    m["trace.total_s"] = total[ROOT_SPAN]
    latencies = tracer.app_latencies_ms()
    m["app.samples"] = len(latencies)
    m["app.p50_ms"] = statistics.median(latencies) if latencies else 0.0
    m["app.p99_ms"] = _percentile(latencies, 99)
    return m


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
