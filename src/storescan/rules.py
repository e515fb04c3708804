"""Detection vocabularies and per-method marking.

A method is marked along three independent criteria:

* it obtains a shared-storage location (path API call or hardcoded path),
* it mentions a private-looking path keyword in a string constant,
* it creates a file or directory (write sink).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from typing import NamedTuple

from .smali_ir import _CLASS_DESC_RE, Invoke, MethodDef, MethodRef, Record, StringConst

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


class RuleSet(Record):
    """The three criterion vocabularies. Immutable by convention after load.
    Each field is one ruleset-file section of the same name, in file order."""

    __slots__ = _fields = ("keywords", "path_apis", "hardcoded_paths", "write_sinks")

    def __init__(self, keywords: list[str], path_apis: list[str], hardcoded_paths: list[str],
                 write_sinks: list[tuple[str, str]]):
        self.keywords, self.path_apis = keywords, path_apis
        self.hardcoded_paths, self.write_sinks = hardcoded_paths, write_sinks
        # Sections in file order, each entry in order: of several faults, the first is named.
        for section in self._fields:
            entries = getattr(self, section)
            if section != "write_sinks" and not all(entries):  # a sink entry's parts are checked with it
                raise RuleFormatError(f"empty entry in {section}")
            for entry in entries:
                _check_entry(section, entry)
            if len(set(entries)) != len(entries):
                raise RuleFormatError(f"duplicate entry in {section}")


# An invoke's method name is read as [^\s(]+, and no dex method name holds . ; [ or /.
_METHOD_NAME_RE = re.compile(r"[^\s(.;\[/]+")


def _check_entry(section: str, entry) -> None:
    """Raise RuleFormatError for an entry of ``section`` that is malformed or can never match."""
    if section == "keywords":
        if entry != entry.lower():
            raise RuleFormatError("keywords must be lowercase")
        if _TOKEN_SPLIT_RE.search(entry):  # match_keyword splits strings there
            raise RuleFormatError(f"keyword {entry!r} can never match: it contains / \\ . _ - or space")
    elif section == "hardcoded_paths":
        if entry.endswith("/"):  # MarkMemo appends its own "/"
            raise RuleFormatError(f"hardcoded path {entry!r} only matches itself: drop the trailing /")
    else:
        what, name = "path API", entry
        if section == "write_sinks":
            if not (isinstance(entry, tuple) and len(entry) == 2
                    and all(isinstance(part, str) and part for part in entry)):
                raise RuleFormatError(f"bad write_sink entry {entry!r}")
            if not _CLASS_DESC_RE.fullmatch(entry[0]):  # the parser's grammar; fullmatch, as "$" passes a final \n
                raise RuleFormatError(
                    f"write_sink class {entry[0]!r} can never match: expected a descriptor like Lpkg/Cls;")
            what, name = "write_sink method", entry[1]
        if not _METHOD_NAME_RE.fullmatch(name):
            raise RuleFormatError(f"{what} {name!r} can never match: a method name holds no whitespace or ( . ; [ /")


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


# The criterion categories in report order. A MarkSet holds one method's hits, field
# ``<c>_hits`` those of category ``c``, and ``detector.ConditionSet`` one seed's evidence,
# field ``c``; a category's flag is non-emptiness.
CATEGORIES = ("keyword", "path_source", "write_sink")
MarkSet = NamedTuple("MarkSet", [(c + "_hits", list) for c in CATEGORIES])


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


class MarkMemo:
    """``mark_function``'s rules for one app, as lookups built once, and the match
    of each distinct string constant seen so far. ``detect_app`` makes one per
    app, so its size is bounded by the largest app. Invoke targets are not kept:
    most are distinct, and two set lookups by name cost less than keeping them."""

    def __init__(self, rules: RuleSet):
        self.keywords = rules.keywords
        self.path_apis = frozenset(rules.path_apis)
        self.sinks = frozenset(rules.write_sinks)
        self.sink_names = frozenset(name for _, name in rules.write_sinks)
        # Tested on value + "/": "/sdcard" matches "/sdcard" and "/sdcard/x", not "/sdcards".
        self.path_prefixes = tuple(p + "/" for p in rules.hardcoded_paths)
        self.strings: dict[str, tuple[list[str], bool]] = {}  # value -> (keywords, hardcoded path?)


def mark_function(m: MethodDef, memo: MarkMemo) -> MarkSet:
    """Compute the method's rule hits under ``memo``'s rules, each with its source line.

    Path APIs are matched by method name on any declaring class; hardcoded
    paths and keywords are matched on string constants only. One ``memo`` per
    app carries lookups from one method of the app to the next.
    """
    strings = memo.strings
    hits = MarkSet([], [], [])
    for ins in m.body:
        if isinstance(ins, Invoke):
            t = ins.target
            if t.name in memo.path_apis:
                hits.path_source_hits.append(PathSourceHit(t.name, ins.source_line))
            if t.name in memo.sink_names and (t.class_descriptor, t.name) in memo.sinks:
                hits.write_sink_hits.append(WriteSinkHit(t, ins.source_line))
        elif isinstance(ins, StringConst):
            value = ins.value
            match = strings.get(value)
            if match is None:
                match = strings[value] = (match_keyword(value, memo.keywords),
                                          (value + "/").startswith(memo.path_prefixes))
            for kw in match[0]:
                hits.keyword_hits.append(KeywordHit(value, kw, ins.source_line))
            if match[1]:
                hits.path_source_hits.append(PathSourceHit(value, ins.source_line))
    return hits


def load_ruleset(file: str | os.PathLike) -> RuleSet:
    """Load a ruleset file; sections not present inherit the defaults.

    Format: ``[section]`` headers named after ``RuleSet``'s fields, one entry
    per line, ``#`` starts a comment line; a leading BOM is skipped.
    Write-sink entries are ``Lpkg/Cls;::methodName``.
    """
    with open(file, encoding="utf-8-sig") as f:
        text = f.read()
    names = RuleSet._fields
    sections: dict[str, list] = {}
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
        if current == "write_sinks":
            cls, sep, method = line.partition("::")
            if not (cls and sep and method):
                raise RuleFormatError(f"bad write_sink entry {line!r} (expected Lpkg/Cls;::name)")
            line = (cls, method)
        sections[current].append(line.lower() if current == "keywords" else line)
    defaults = default_ruleset()
    return RuleSet(**{name: sections.get(name, getattr(defaults, name)) for name in names})


def ruleset_digest(rules: RuleSet) -> str:
    """Stable sha256 over the effective ruleset, for report attribution."""
    text = json.dumps({n: getattr(rules, n) for n in rules._fields}, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
