"""Corpus scanning and report serialization.

``scan_corpus`` and ``emit_report`` pause the cyclic garbage collector. A scan and
its report build no reference cycles (``tests/test_report.py::TestNoCycles`` pins
this), so reference counting frees each app as the next replaces it; the
collector's passes would only re-walk the app model and the report tree.
"""

from __future__ import annotations

import functools
import gc
import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Callable, NamedTuple, TextIO

from .callgraph import build_callgraph, edge_list_text
from .detector import DetectionResult, DetectorConfig, Evidence, detect_app
from .rules import KeywordHit, PathSourceHit, ruleset_digest
from .smali_ir import DuplicateClassError, _escape_string, parse_app_dir, unreadable_reason

SCHEMA_VERSION = "1"
SCHEMA_FILENAME = "report_schema.json"


def load_report_schema() -> dict:
    """The JSON schema the ``json`` report format conforms to."""
    text = resources.files(__package__).joinpath(SCHEMA_FILENAME).read_text(encoding="utf-8")
    return json.loads(text)


class Totals(NamedTuple):
    apps_scanned: int
    apps_flagged: int
    parse_diagnostics: int


@dataclass
class CorpusReport:
    config: DetectorConfig
    apps: list[DetectionResult]

    @property
    def totals(self) -> Totals:
        return Totals(
            apps_scanned=len(self.apps),
            apps_flagged=sum(1 for r in self.apps if r.flagged),
            parse_diagnostics=sum(len(r.diagnostics) for r in self.apps),
        )


def _collector_paused(fn):
    """``fn`` run with the cyclic collector paused; the caller's state is restored."""

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        was_enabled = gc.isenabled()
        gc.disable()  # nothing a scan or a report builds makes a cycle; see the module docstring
        try:
            return fn(*args, **kwargs)
        finally:
            if was_enabled:
                gc.enable()

    return paused


@_collector_paused
def scan_corpus(
    root: str | Path,
    config: DetectorConfig,
    graph_sink: TextIO | None = None,
) -> CorpusReport:
    """Scan a corpus directory: one immediate subdirectory per app.

    Per-app failures (unreadable directory, duplicate class declarations)
    become that app's diagnostics and never abort the corpus. When
    ``graph_sink`` is given, each app's call graph is written to it as a
    deterministic edge list. Raises the OS's own OSError when ``root`` cannot
    be listed.
    """
    app_dirs = sorted(p for p in Path(root).iterdir() if p.is_dir())
    results: list[DetectionResult] = []
    for app_dir in app_dirs:
        app_id = app_dir.name
        try:
            app, diagnostics = parse_app_dir(app_dir, app_id)
        except (DuplicateClassError, OSError) as exc:
            # A str, since an exception kept in a local would cycle through this frame.
            reason = unreadable_reason(exc) if isinstance(exc, OSError) else str(exc)
            results.append(DetectionResult(app_id, [], [f"app not scanned: {reason}"]))
            continue
        graph = None
        if graph_sink is not None:
            graph = build_callgraph(app)
            graph_sink.write(f"# callgraph {app_id}\n" + edge_list_text(graph))
        result = detect_app(app, config, graph=graph)
        result.diagnostics = diagnostics
        results.append(result)
    return CorpusReport(config, results)


def _evidence_row(e: Evidence) -> dict:
    if isinstance(e.hit, KeywordHit):
        row = {"value": e.hit.value, "keyword": e.hit.keyword}
    elif isinstance(e.hit, PathSourceHit):
        row = {"evidence": e.hit.evidence}
    else:
        row = {"target": str(e.hit.target)}
    return {**row, "method": str(e.method), "line": e.hit.line, "distance": e.distance}


def _report_tree(report: CorpusReport, rows: Callable[[list[Evidence]], list]) -> dict:
    """The report's one shape; ``rows`` makes each category's list from its evidence."""
    return {
        "schema_version": SCHEMA_VERSION,
        "config": {
            "depth": report.config.depth,
            "rules_digest": ruleset_digest(report.config.rules),
        },
        "totals": report.totals._asdict(),
        "apps": [
            {
                "app_id": r.app_id,
                "flagged": r.flagged,
                "diagnostics": list(r.diagnostics),
                "findings": [
                    {
                        "seed": str(f.seed),
                        "categories": {c: rows(ev) for c, ev in f.conditions._asdict().items()},
                        "witness_chains": {
                            c: [str(k) for k in chain] for c, chain in f.witness_chains.items()
                        },
                    }
                    for f in r.findings
                ],
            }
            for r in report.apps
        ],
    }


def report_to_dict(report: CorpusReport) -> dict:
    """The JSON report as data; ``emit_report`` writes it as ``json.dumps(indent=2)`` would."""
    return _report_tree(report, lambda ev: [_evidence_row(e) for e in ev])


_encode_str = json.JSONEncoder(ensure_ascii=False).encode


def _write_json(v: object, pad: str, out: list[str], rendered: dict[Evidence, str]) -> list[str]:
    """Append ``v`` to ``out`` as ``json.dumps(v, indent=2, ensure_ascii=False)`` writes it at
    indent ``pad``. Each distinct ``Evidence`` (all sit at one depth) is rendered once."""
    if isinstance(v, str):
        out.append(_encode_str(v))
    elif isinstance(v, int):
        out.append(("true" if v else "false") if isinstance(v, bool) else int.__repr__(v))
    elif isinstance(v, dict):
        inner = pad + "  "
        for i, (k, x) in enumerate(v.items()):
            if not isinstance(k, str):
                raise TypeError(f"keys must be str, not {type(k).__name__}")
            out += (",\n" if i else "{\n", inner, _encode_str(k), ": ")
            _write_json(x, inner, out, rendered)
        out.append("\n" + pad + "}" if v else "{}")
    elif isinstance(v, list):
        if not v:
            out.append("[]")
            return out
        inner = pad + "  "
        sep = ",\n" + inner
        kinds = set(map(type, v))
        if kinds == {Evidence}:
            # The cached texts go into ``out`` as they are: joining them would copy each
            # row once per finding that reports it.
            get = rendered.get
            for i, e in enumerate(v):
                text = get(e)
                if text is None:
                    text = rendered[e] = "".join(_write_json(_evidence_row(e), inner, [], rendered))
                out += (sep if i else "[\n" + inner, text)
        elif kinds == {str}:
            out += ("[\n", inner, sep.join(map(_encode_str, v)))
        else:
            for i, x in enumerate(v):
                out.append(sep if i else "[\n" + inner)
                _write_json(x, inner, out, rendered)
        out.append("\n" + pad + "]")
    else:
        raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")
    return out


def _text_row(category: str, e: Evidence) -> str:
    # Constants (and app ids) are escaped as in smali source, so none can start a line.
    if isinstance(e.hit, KeywordHit):
        hit = f'"{_escape_string(e.hit.value)}" (keyword {e.hit.keyword})'
    elif isinstance(e.hit, PathSourceHit):
        hit = _escape_string(e.hit.evidence)
    else:
        hit = str(e.hit.target)
    return f"    {category}: {hit} in {e.method} line {e.hit.line} distance {e.distance}\n"


def _text_report(report: CorpusReport) -> str:
    text_row = functools.cache(_text_row)  # seeds share rows: render each distinct one once
    lines = [f"scanned={report.totals.apps_scanned} flagged={report.totals.apps_flagged}\n"]
    for r in report.apps:
        if not r.flagged:
            continue
        lines.append(f"app {_escape_string(r.app_id)}: {len(r.findings)} finding(s)\n")
        for f in r.findings:
            lines.append(f"  seed {f.seed}\n")
            for category, evidence in f.conditions._asdict().items():
                lines += (text_row(category, e) for e in evidence)
            for category, chain in f.witness_chains.items():
                lines.append(f"    chain {category}: " + " -> ".join(map(str, chain)) + "\n")
    return "".join(lines)


@_collector_paused
def emit_report(report: CorpusReport, fmt: str = "json") -> str:
    """Serialize a report; identical reports yield byte-identical output."""
    if fmt == "json":
        out = _write_json(_report_tree(report, list), "", [], {})
        out.append("\n")
        return "".join(out)
    if fmt == "text":
        return _text_report(report)
    raise ValueError(f"unknown report format {fmt!r}")
