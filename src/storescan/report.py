"""Corpus scanning and report serialization."""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import NamedTuple, TextIO

from .callgraph import build_callgraph, edge_list_text
from .detector import DetectionResult, DetectorConfig, Evidence, Finding, detect_app
from .rules import KeywordHit, PathSourceHit, ruleset_digest
from .smali_ir import DuplicateClassError, parse_app_dir

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


def scan_corpus(
    root: str | Path,
    config: DetectorConfig,
    graph_sink: TextIO | None = None,
) -> CorpusReport:
    """Scan a corpus directory: one immediate subdirectory per app.

    Per-app failures (unreadable directory, duplicate class declarations)
    become that app's diagnostics and never abort the corpus. When
    ``graph_sink`` is given, each app's call graph is written to it as a
    deterministic edge list.
    """
    root = Path(root)
    if not root.exists():
        raise FileNotFoundError(f"corpus root not found: {root}")
    if not root.is_dir():
        raise NotADirectoryError(f"not a directory: {root}")

    results: list[DetectionResult] = []
    for app_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        app_id = app_dir.name
        try:
            app, diagnostics = parse_app_dir(app_dir, app_id)
        except (DuplicateClassError, OSError) as exc:
            results.append(DetectionResult(app_id, [], [f"app not scanned: {exc}"]))
            continue
        graph = None
        if graph_sink is not None:
            graph = build_callgraph(app)
            graph_sink.write(f"# callgraph {app_id}\n" + edge_list_text(graph))
        result = detect_app(app, config, graph=graph)
        result.diagnostics = diagnostics
        results.append(result)
    return CorpusReport(config, results)


def _category_rows(evidence: list[Evidence]) -> list[dict]:
    rows = []
    for e in evidence:
        row: dict = {}
        if isinstance(e.hit, KeywordHit):
            row["value"] = e.hit.value
            row["keyword"] = e.hit.keyword
        elif isinstance(e.hit, PathSourceHit):
            row["evidence"] = e.hit.evidence
        else:
            row["target"] = str(e.hit.target)
        row["method"] = str(e.method)
        row["line"] = e.hit.line
        row["distance"] = e.distance
        rows.append(row)
    return rows


def _finding_dict(f: Finding) -> dict:
    return {
        "seed": str(f.seed),
        "categories": {
            category: _category_rows(evidence)
            for category, evidence in f.conditions._asdict().items()
        },
        "witness_chains": {
            category: [str(k) for k in chain]
            for category, chain in f.witness_chains.items()
        },
    }


def report_to_dict(report: CorpusReport) -> dict:
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
                "findings": [_finding_dict(f) for f in r.findings],
            }
            for r in report.apps
        ],
    }


def _describe_hit(e: Evidence) -> str:
    if isinstance(e.hit, KeywordHit):
        return f'"{e.hit.value}" (keyword {e.hit.keyword})'
    if isinstance(e.hit, PathSourceHit):
        return e.hit.evidence
    return str(e.hit.target)


def _text_report(report: CorpusReport) -> str:
    lines = [f"scanned={report.totals.apps_scanned} flagged={report.totals.apps_flagged}"]
    for r in report.apps:
        if not r.flagged:
            continue
        lines.append(f"app {r.app_id}: {len(r.findings)} finding(s)")
        for f in r.findings:
            lines.append(f"  seed {f.seed}")
            for category, evidence in f.conditions._asdict().items():
                for e in evidence:
                    lines.append(
                        f"    {category}: {_describe_hit(e)} in {e.method}"
                        f" line {e.hit.line} distance {e.distance}"
                    )
            for category, chain in f.witness_chains.items():
                lines.append(f"    chain {category}: " + " -> ".join(map(str, chain)))
    return "".join(line + "\n" for line in lines)


def emit_report(report: CorpusReport, fmt: str = "json") -> str:
    """Serialize a report; identical reports yield byte-identical output."""
    if fmt == "json":
        return json.dumps(report_to_dict(report), indent=2, ensure_ascii=False) + "\n"
    if fmt == "text":
        return _text_report(report)
    raise ValueError(f"unknown report format {fmt!r}")
