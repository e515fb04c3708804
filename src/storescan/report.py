"""Corpus scanning and report serialization.

``scan_corpus`` and ``emit_report`` pause the cyclic garbage collector. A scan and
its report build no reference cycles (``tests/test_report.py::TestNoCycles`` pins
this), so reference counting frees each app as the next replaces it; the
collector's passes would only re-walk the app model and the report.
"""

from __future__ import annotations

import functools
import gc
import json
import os
from dataclasses import dataclass
from importlib import resources
from itertools import chain, repeat
from pathlib import Path
from typing import NamedTuple, TextIO

from .callgraph import build_callgraph, edge_list_text
from .detector import ConditionSet, DetectionResult, DetectorConfig, Evidence, detect_app
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
    with os.scandir(root) as entries:
        app_dirs = sorted((e.name, e.path) for e in entries if e.is_dir())
    results: list[DetectionResult] = []
    for app_id, app_dir in app_dirs:
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


# The JSON writer fills literal-indent templates, byte for byte as json.dumps(tree, indent=2,
# ensure_ascii=False) writes the report's tree (``report_to_dict`` in ``tests/oracle.py``),
# with strings put through json.dumps's own encoder. json.dumps is not called: its
# indenting encoder makes a reference cycle, which the paused collector would never free.
_str = json.encoder.encode_basestring
_HEADER = """{{
  "schema_version": {version},
  "config": {{
    "depth": {depth},
    "rules_digest": {digest}
  }},
  "totals": {{
    "apps_scanned": {0},
    "apps_flagged": {1},
    "parse_diagnostics": {2}
  }},
  "apps": """


def _json_row(e: Evidence) -> str:
    """One evidence row, its braces 14 spaces in."""
    hit = e.hit
    if isinstance(hit, KeywordHit):
        head = f'"value": {_str(hit.value)},\n                "keyword": {_str(hit.keyword)}'
    elif isinstance(hit, PathSourceHit):
        head = f'"evidence": {_str(hit.evidence)}'
    else:
        head = f'"target": {_str(str(hit.target))}'
    return (f'{{\n                {head},\n                "method": {_str(str(e.method))},\n'
            f'                "line": {hit.line},\n                "distance": {e.distance}\n              }}')


def _put_list(out: list[str], items: list[str], pad: str) -> None:
    """Append JSON texts ``items`` as a list whose brackets sit ``pad`` in. The
    items go into ``out`` as they are, so a shared row is not copied per finding."""
    if not items:
        out.append("[]")
        return
    out.append("[\n  " + pad)
    out += chain.from_iterable(zip(items, repeat(",\n  " + pad)))
    out[-1] = "\n" + pad + "]"  # in place of the separator after the last item


def _put_dict(out: list[str], items: list[tuple[str, list[str]]], pad: str) -> None:
    """Append ``(key, list of JSON texts)`` pairs as an object whose braces sit ``pad`` in."""
    if not items:
        out.append("{}")
        return
    for i, (key, values) in enumerate(items):
        out += (",\n  " if i else "{\n  ", pad, _str(key), ": ")
        _put_list(out, values, pad + "  ")
    out.append("\n" + pad + "}")


def _put_app(out: list[str], r: DetectionResult) -> None:
    """Append one app's object, its braces 4 spaces in."""
    out += ('{\n      "app_id": ', _str(r.app_id),
            ',\n      "flagged": ', "true" if r.flagged else "false", ',\n      "diagnostics": ')
    _put_list(out, list(map(_str, r.diagnostics)), "      ")
    out.append(',\n      "findings": ')
    # Seeds share evidence rows (see ``detect_app``), so each is rendered once. The
    # report keeps every row alive, so a row's id is a key, and cheaper than its hash.
    rendered: dict[int, str] = {}
    get, put = rendered.get, rendered.setdefault
    for i, f in enumerate(r.findings):
        out += (",\n        " if i else "[\n        ", '{\n          "seed": ', _str(str(f.seed)),
                ',\n          "categories": ')
        _put_dict(out, [(c, [get(id(e)) or put(id(e), _json_row(e)) for e in ev])
                        for c, ev in zip(ConditionSet._fields, f.conditions)], "          ")
        out.append(',\n          "witness_chains": ')
        _put_dict(out, [(c, [_str(str(k)) for k in path]) for c, path in f.witness_chains.items()], "          ")
        out.append("\n        }")
    out.append("\n      ]\n    }" if r.findings else "[]\n    }")


def _json_report(report: CorpusReport) -> str:
    out = [_HEADER.format(*report.totals, version=_str(SCHEMA_VERSION), depth=report.config.depth,
                          digest=_str(ruleset_digest(report.config.rules)))]
    for i, r in enumerate(report.apps):
        out.append(",\n    " if i else "[\n    ")
        _put_app(out, r)
    out.append("\n  ]\n}\n" if report.apps else "[]\n}\n")
    return "".join(out)


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
    rendered = [{} for _ in ConditionSet._fields]  # per category, id(row) -> text: see _put_app
    scanned, flagged, _ = report.totals
    lines = [f"scanned={scanned} flagged={flagged}\n"]
    for r in report.apps:
        if not r.flagged:
            continue
        lines.append(f"app {_escape_string(r.app_id)}: {len(r.findings)} finding(s)\n")
        for f in r.findings:
            lines.append(f"  seed {f.seed}\n")
            for category, evidence, seen in zip(ConditionSet._fields, f.conditions, rendered):
                lines += [seen.get(id(e)) or seen.setdefault(id(e), _text_row(category, e)) for e in evidence]
            for category, chain in f.witness_chains.items():
                lines.append(f"    chain {category}: " + " -> ".join(map(str, chain)) + "\n")
    return "".join(lines)


@_collector_paused
def emit_report(report: CorpusReport, fmt: str = "json") -> str:
    """Serialize a report; identical reports yield byte-identical output."""
    if fmt == "json":
        return _json_report(report)
    if fmt == "text":
        return _text_report(report)
    raise ValueError(f"unknown report format {fmt!r}")
