"""Detection vocabularies and per-method marking.

A method is marked along three independent criteria:

* it obtains a shared-storage location (path API call or hardcoded path),
* it mentions a private-looking path keyword in a string constant,
* it creates a file or directory (write sink).
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import NamedTuple

from .smali_ir import Invoke, MethodDef, MethodRef, StringConst

DEFAULT_KEYWORDS = [
    "log",
    "cache",
    "files",
    "file",
    "data",
    "temp",
    "tmp",
    "account",
    "meta",
    "uid",
    "history",
]

DEFAULT_PATH_APIS = [
    "getExternalStorageDirectory",
    "getExternalStoragePublicDirectory",
    "getExternalFilesDir",
    "getExternalFilesDirs",
    "getExternalCacheDir",
    "getExternalCacheDirs",
]

DEFAULT_HARDCODED_PATHS = ["/sdcard", "/sdcard0", "/sdcard1"]

DEFAULT_WRITE_SINKS = [
    ("Ljava/io/FileOutputStream;", "<init>"),
    ("Ljava/io/File;", "mkdir"),
    ("Ljava/io/File;", "mkdirs"),
]


class RuleFormatError(ValueError):
    """A ruleset file or ruleset value violates the format contract."""


@dataclass
class RuleSet:
    """The three criterion vocabularies. Immutable by convention after load.
    Each field is one ruleset-file section of the same name, in file order."""

    keywords: list[str]
    path_apis: list[str]
    hardcoded_paths: list[str]
    write_sinks: list[tuple[str, str]]

    def __post_init__(self):
        # A fixed check order gives a ruleset with several faults one stable message.
        for section in (f.name for f in fields(self)):
            entries = getattr(self, section)
            if section == "write_sinks":
                if any(kw != kw.lower() for kw in self.keywords):
                    raise RuleFormatError("keywords must be lowercase")
                for kw in self.keywords:
                    if _TOKEN_SPLIT_RE.search(kw):  # match_keyword splits strings there
                        raise RuleFormatError(
                            f"keyword {kw!r} can never match: it contains / \\ . _ - or space")
                for pair in entries:
                    if not (isinstance(pair, tuple) and len(pair) == 2
                            and all(isinstance(part, str) and part for part in pair)):
                        raise RuleFormatError(f"bad write_sink entry {pair!r}")
            elif any(not e for e in entries):
                raise RuleFormatError(f"empty entry in {section}")
            if len(set(entries)) != len(entries):
                raise RuleFormatError(f"duplicate entry in {section}")


def default_ruleset() -> RuleSet:
    return RuleSet(
        keywords=list(DEFAULT_KEYWORDS),
        path_apis=list(DEFAULT_PATH_APIS),
        hardcoded_paths=list(DEFAULT_HARDCODED_PATHS),
        write_sinks=list(DEFAULT_WRITE_SINKS),
    )


class KeywordHit(NamedTuple):
    value: str  # the full string constant
    keyword: str
    line: int


class PathSourceHit(NamedTuple):
    evidence: str  # API name or the hardcoded-path string literal
    line: int


class WriteSinkHit(NamedTuple):
    target: MethodRef
    line: int


class MarkSet(NamedTuple):
    """Per-method rule hits: field ``<c>_hits`` lists category ``c``'s hits, in
    ``detector.ConditionSet`` field order; a category's flag is non-emptiness."""

    keyword_hits: list[KeywordHit]
    path_source_hits: list[PathSourceHit]
    write_sink_hits: list[WriteSinkHit]


_TOKEN_SPLIT_RE = re.compile(r"[/\\._\- ]")


def match_keyword(s: str, keywords: list[str]) -> list[str]:
    """Whole-word keyword matching over a path-like string.

    Strings without a ``/`` or ``.`` are not path-like and never match.
    Eligible strings are split on ``/ \\ . _ -`` and space; a keyword matches
    when it equals one of the tokens, case-insensitively. So ``/user_log``
    and ``user.log`` match ``log`` while ``catalog.txt`` and a bare ``log``
    do not. Results are deduplicated, in ``keywords`` order.
    """
    if "/" not in s and "." not in s:
        return []
    tokens = {t.lower() for t in _TOKEN_SPLIT_RE.split(s) if t}
    return [kw for kw in keywords if kw in tokens]


def _matches_hardcoded_prefix(value: str, prefixes: list[str]) -> bool:
    # Prefix must be followed by '/' or end the string: "/sdcard" and
    # "/sdcard/x" hit, "/sdcards/x" does not.
    return any(value == p or value.startswith(p + "/") for p in prefixes)


def mark_function(m: MethodDef, rules: RuleSet) -> MarkSet:
    """Compute the method's rule hits, each with its source line.

    Path APIs are matched by method name on any declaring class; hardcoded
    paths and keywords are matched on string constants only.
    """
    api_names = set(rules.path_apis)
    sinks = set(rules.write_sinks)
    keyword_hits: list[KeywordHit] = []
    path_source_hits: list[PathSourceHit] = []
    write_sink_hits: list[WriteSinkHit] = []
    for ins in m.body:
        if isinstance(ins, Invoke):
            t = ins.target
            if t.name in api_names:
                path_source_hits.append(PathSourceHit(t.name, ins.source_line))
            if (t.class_descriptor, t.name) in sinks:
                write_sink_hits.append(WriteSinkHit(t, ins.source_line))
        elif isinstance(ins, StringConst):
            for kw in match_keyword(ins.value, rules.keywords):
                keyword_hits.append(KeywordHit(ins.value, kw, ins.source_line))
            if _matches_hardcoded_prefix(ins.value, rules.hardcoded_paths):
                path_source_hits.append(PathSourceHit(ins.value, ins.source_line))
    return MarkSet(keyword_hits, path_source_hits, write_sink_hits)


def load_ruleset(file: str | Path) -> RuleSet:
    """Load a ruleset file; sections not present inherit the defaults.

    Format: ``[section]`` headers named after ``RuleSet``'s fields, one entry
    per line, ``#`` starts a comment line; a leading BOM is skipped.
    Write-sink entries are ``Lpkg/Cls;::methodName``.
    """
    text = Path(file).read_text(encoding="utf-8-sig")
    names = {f.name for f in fields(RuleSet)}
    sections: dict[str, list[str]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.split("\n"), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in names:
                raise RuleFormatError(f"line {lineno}: unknown section [{name}]")
            if name in sections:
                raise RuleFormatError(f"line {lineno}: duplicate section [{name}]")
            sections[name] = []
            current = name
            continue
        if current is None:
            raise RuleFormatError(f"line {lineno}: entry before any section header")
        sections[current].append(line.lower() if current == "keywords" else line)

    if "write_sinks" in sections:
        sections["write_sinks"] = [_parse_sink_entry(e) for e in sections["write_sinks"]]
    return replace(default_ruleset(), **sections)


def _parse_sink_entry(entry: str) -> tuple[str, str]:
    cls, sep, name = entry.partition("::")
    if not sep or not cls or not name:
        raise RuleFormatError(f"bad write_sink entry {entry!r} (expected Lpkg/Cls;::name)")
    return (cls, name)


def ruleset_digest(rules: RuleSet) -> str:
    """Stable sha256 over the effective ruleset, for report attribution."""
    text = json.dumps(asdict(rules), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
