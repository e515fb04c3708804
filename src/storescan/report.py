"""Corpus scanning and report serialization.

``scan_corpus``, ``scan_report`` and ``emit_report`` pause the cyclic garbage
collector. A scan and its report build no reference cycles
(``tests/test_report.py::TestNoCycles`` pins this), so reference counting frees
each app as the next replaces it; the collector's passes would only re-walk the
app model and the report.
"""

from __future__ import annotations

import functools
import gc
import json
import os
import sys
from itertools import chain, repeat
from typing import NamedTuple, NoReturn, TextIO

from .callgraph import build_callgraph, edge_list_text
from .detector import ConditionSet, DetectionResult, DetectorConfig, Evidence, detect_app
from .rules import KeywordHit, PathSourceHit, ruleset_digest
from .smali_ir import DuplicateClassError, Record, _escape_string, parse_app_dir, unreadable_reason

SCHEMA_VERSION = "1"
SCHEMA_FILENAME = "report_schema.json"


def load_report_schema() -> dict:
    """The JSON schema the ``json`` report format conforms to."""
    from importlib import resources  # only here: it imports more than a scan does

    text = resources.files(__package__).joinpath(SCHEMA_FILENAME).read_text(encoding="utf-8")
    return json.loads(text)


class Totals(NamedTuple):
    apps_scanned: int
    apps_flagged: int
    parse_diagnostics: int


class CorpusReport(Record):
    __slots__ = _fields = ("config", "apps")

    def __init__(self, config: DetectorConfig, apps: list[DetectionResult]):
        self.config, self.apps = config, apps

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


def _scan_app(app_id: str, app_dir: str, config: DetectorConfig, dump: bool) -> tuple[DetectionResult, str | None]:
    """One app's result, and its call graph as edge-list text when ``dump``."""
    try:
        app, diagnostics = parse_app_dir(app_dir, app_id)
    except (DuplicateClassError, OSError) as exc:
        # A str, since an exception kept in a local would cycle through this frame.
        reason = unreadable_reason(exc) if isinstance(exc, OSError) else str(exc)
        return DetectionResult(app_id, [], [f"app not scanned: {reason}"]), None
    graph = build_callgraph(app) if dump else None
    result = detect_app(app, config, graph=graph)
    result.diagnostics = diagnostics
    return result, (f"# callgraph {app_id}\n" + edge_list_text(graph) if dump else None)


def _app_dirs(root: str | os.PathLike) -> list[tuple[str, str]]:
    with os.scandir(root) as entries:
        return sorted((e.name, e.path) for e in entries if e.is_dir())


@_collector_paused
def scan_corpus(root: str | os.PathLike, config: DetectorConfig) -> CorpusReport:
    """Scan a corpus directory, one immediate subdirectory per app, in this process.

    Per-app failures (unreadable directory, duplicate class declarations)
    become that app's diagnostics and never abort the corpus. Raises the OS's
    own OSError when ``root`` cannot be listed.
    """
    return CorpusReport(config, [_scan_app(*a, config, False)[0] for a in _app_dirs(root)])


_CHUNK = 4096  # pieces of an app's part joined and encoded at a time: see _scan_share


def _scan_share(apps: list[tuple[str, str]], config: DetectorConfig, put, dump: bool, first: bool):
    """Yield per app of ``apps``: flagged, its diagnostic count, its part of the report,
    rendered by ``put`` as soon as it is scanned, and its call graph text when
    ``dump``. ``first`` when the share holds the corpus's first app. A large app's
    part has hundreds of thousands of pieces; it is encoded ``_CHUNK`` pieces at a
    time, into a list of chunks, so no process holds it as one str and its bytes."""
    for app_id, app_dir in apps:
        result, graph = _scan_app(app_id, app_dir, config, dump)
        out: list[str] = []
        put(out, result, first)
        first = False
        # A lone surrogate (an unpaired dex string escape, or an app directory name that is not
        # UTF-8) lies inside one piece, and goes out as \uXXXX, the same bytes in any locale.
        part = ["".join(out[i:i + _CHUNK]).encode("utf-8", "backslashreplace") for i in range(0, len(out), _CHUNK)]
        out.clear()
        yield result.flagged, len(result.diagnostics), part, graph


def _worker(apps: list[tuple[str, str]], config: DetectorConfig, put, dump: bool, spool) -> NoReturn:
    """A forked child's whole life: pickle one frame per app of ``apps`` into ``spool``
    as soon as the app is scanned, and exit, with 1 after a traceback. Ctrl-C kills it
    silently, so the parent's traceback is the only one."""
    code = 1
    try:
        import pickle
        import signal

        signal.signal(signal.SIGINT, signal.SIG_DFL)
        for frame in _scan_share(apps, config, put, dump, False):
            pickle.dump(frame, spool, pickle.HIGHEST_PROTOCOL)
        spool.flush()
        code = 0
    except BaseException:
        import traceback

        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(code)  # never back into the caller's stack


@_collector_paused
def scan_report(
    root: str | os.PathLike,
    config: DetectorConfig,
    fmt: str,
    graph_sink: TextIO | None = None,
    *,
    workers: int = 1,
) -> tuple[Totals, list[bytes]]:
    """What ``storescan scan`` writes: the totals, and the report in format ``fmt``
    as UTF-8 chunks (the header, each app's part in app order in one or more chunks,
    the closing) whose concatenation is ``emit_report(scan_corpus(root, config), fmt)``
    encoded with ``backslashreplace``. Each app's call graph goes to ``graph_sink``, if
    given, as a deterministic edge list, in app order. The errors are as for ``scan_corpus``.

    With ``workers`` above 1, and ``os.fork``, the sorted apps are dealt round-robin
    into ``min(workers, apps)`` shares: this process scans share 0, and one forked
    worker each of the others, which pickles one frame per app, its rendered part
    among them, into an unnamed spool file in ``tempfile.gettempdir()``. This process
    reads a worker's spool only after reaping it. The pieces and the graph text,
    which only this process writes, are the same bytes for any ``workers``. A spool
    that cannot be created raises OSError; a failed worker raises RuntimeError
    naming its exit status. However the call ends, no worker is left running or
    unreaped and no spool open. A caller that runs threads keeps ``workers`` at 1:
    a forked child has only the calling thread.
    """
    put = _writer(fmt)
    app_dirs = _app_dirs(root)
    jobs = max(1, min(workers, len(app_dirs))) if hasattr(os, "fork") else 1
    dump = graph_sink is not None
    frames: list = [None] * len(app_dirs)
    pids: list[int] = []  # children not yet reaped, in share order
    spools: list = []  # one per forked worker, in share order
    try:
        if jobs > 1:
            import pickle
            import signal
            import tempfile
        for k in range(1, jobs):
            spools.append(tempfile.TemporaryFile())
            pid = os.fork()
            if pid == 0:
                _worker(app_dirs[k::jobs], config, put, dump, spools[-1])
            pids.append(pid)
        frames[0::jobs] = _scan_share(app_dirs[0::jobs], config, put, dump, True)
        for k, spool in enumerate(spools, 1):
            status = os.waitpid(pids[0], 0)[1]
            del pids[0]
            if status:
                raise RuntimeError(f"scan worker {k} failed: exit status {os.waitstatus_to_exitcode(status)}")
            spool.seek(0)
            frames[k::jobs] = [pickle.load(spool) for _ in app_dirs[k::jobs]]
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for spool in spools:
            spool.close()
    if dump:
        graph_sink.writelines(f[3] for f in frames if f[3])
    totals = Totals(len(frames), sum(f[0] for f in frames), sum(f[1] for f in frames))
    head, tail = _frame(fmt, config, totals)
    return totals, [head.encode(), *chain.from_iterable(f[2] for f in frames), tail.encode()]


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


def _put_json_app(out: list[str], r: DetectionResult, first: bool) -> None:
    """Append one app's object, its braces 4 spaces in, after the list's opening
    bracket when ``first`` and after a comma otherwise."""
    out += ("[\n    " if first else ",\n    ", '{\n      "app_id": ', _str(r.app_id),
            ',\n      "flagged": ', "true" if r.flagged else "false", ',\n      "diagnostics": ')
    _put_list(out, list(map(_str, r.diagnostics)), "      ")
    out.append(',\n      "findings": ')
    # Seeds share evidence rows (see ``detect_app``) and witness-chain methods, so each
    # is rendered once. ``r`` keeps every row and method alive while it is rendered, so
    # an object's id is a key, unique among them, and cheaper than its hash.
    rendered: dict[int, str] = {}
    get, put = rendered.get, rendered.setdefault
    for i, f in enumerate(r.findings):
        out += (",\n        " if i else "[\n        ", '{\n          "seed": ', _str(str(f.seed)),
                ',\n          "categories": ')
        _put_dict(out, [(c, [get(id(e)) or put(id(e), _json_row(e)) for e in ev])
                        for c, ev in zip(ConditionSet._fields, f.conditions)], "          ")
        out.append(',\n          "witness_chains": ')
        _put_dict(out, [(c, [get(id(k)) or put(id(k), _str(str(k))) for k in path])
                        for c, path in f.witness_chains.items()], "          ")
        out.append("\n        }")
    out.append("\n      ]\n    }" if r.findings else "[]\n    }")


def _text_row(category: str, e: Evidence) -> str:
    # Constants (and app ids) are escaped as in smali source, so none can start a line.
    if isinstance(e.hit, KeywordHit):
        hit = f'"{_escape_string(e.hit.value)}" (keyword {e.hit.keyword})'
    elif isinstance(e.hit, PathSourceHit):
        hit = _escape_string(e.hit.evidence)
    else:
        hit = str(e.hit.target)
    return f"    {category}: {hit} in {e.method} line {e.hit.line} distance {e.distance}\n"


def _put_text_app(out: list[str], r: DetectionResult, first: bool) -> None:
    """Append one app's block, which an unflagged app does not have."""
    if not r.flagged:
        return
    rendered = [{} for _ in ConditionSet._fields]  # per category, id(row) -> text: see _put_json_app
    out.append(f"app {_escape_string(r.app_id)}: {len(r.findings)} finding(s)\n")
    for f in r.findings:
        out.append(f"  seed {f.seed}\n")
        for category, evidence, seen in zip(ConditionSet._fields, f.conditions, rendered):
            out += [seen.get(id(e)) or seen.setdefault(id(e), _text_row(category, e)) for e in evidence]
        for category, chain in f.witness_chains.items():
            out.append(f"    chain {category}: " + " -> ".join(map(str, chain)) + "\n")


def _writer(fmt: str):
    """The function that appends one app's part of a report in format ``fmt``."""
    if fmt == "json":
        return _put_json_app
    if fmt == "text":
        return _put_text_app
    raise ValueError(f"unknown report format {fmt!r}")


def _frame(fmt: str, config: DetectorConfig, totals: Totals) -> tuple[str, str]:
    """The text before the first app's part and after the last one's."""
    if fmt == "text":
        return f"scanned={totals.apps_scanned} flagged={totals.apps_flagged}\n", ""
    head = _HEADER.format(*totals, version=_str(SCHEMA_VERSION), depth=config.depth,
                          digest=_str(ruleset_digest(config.rules)))
    return head, ("\n  ]\n}\n" if totals.apps_scanned else "[]\n}\n")


@_collector_paused
def emit_report(report: CorpusReport, fmt: str = "json") -> str:
    """Serialize a report; identical reports yield byte-identical output."""
    put = _writer(fmt)
    head, tail = _frame(fmt, report.config, report.totals)
    out = [head]
    for i, r in enumerate(report.apps):
        put(out, r, not i)
    out.append(tail)
    return "".join(out)
