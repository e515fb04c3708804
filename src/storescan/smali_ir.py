"""Parser for a pragmatic subset of the smali class-file format.

The model holds what the scan reads: each class's descriptor, ``.super``
and methods, and in each method body its ``invoke-*`` and ``const-string``
(including ``/jumbo``) lines, in order, each with its line number. The
``.class``, ``.super``, ``.method`` and ``.end method`` lines are checked for
the structure they must have. Everything else is read past: flags, fields,
annotations, comments and every other instruction, ``new-instance`` among
them.

``parse_app_dir`` gives the files of one app one memo: each distinct
``invoke-*`` or ``const-string`` line is matched once per app, and each method
identity is one ``MethodRef`` object, shared by every call to it and by its
``.method`` key. A line that fails its grammar is not stored.

String literals take smali's escapes: ``\\`` followed by one of ``"'\\ntrbf0``,
or ``\\u`` followed by exactly four hex digits. Any other backslash is kept as
it stands.
"""

from __future__ import annotations

import os
import re
from typing import NamedTuple

SMALI_EXTENSION = ".smali"


class SmaliParseError(Exception):
    """A class file could not be parsed. ``line`` is 1-based when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DuplicateClassError(Exception):
    """Two files in one app directory declare the same class descriptor."""


class MethodRef(NamedTuple):
    """Identity of a method: owner descriptor, method name, smali proto. Invoke
    targets are ``MethodRef``s, and each ``MethodDef`` holds its own as ``key``.
    Within one app, equal ``MethodRef``s are one object."""

    class_descriptor: str
    name: str
    proto: str

    def __str__(self) -> str:
        return f"{self.class_descriptor}->{self.name}{self.proto}"


class Record:
    """Base of the model and result records. ``_fields`` names a record's fields
    in order. Records of one type are equal when the fields ``_compared`` names,
    by default all, are; a record is mutable, so unhashable."""

    __slots__ = ()
    _compared: tuple[str, ...] = ()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, n) == getattr(other, n) for n in self._compared or self._fields)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self._fields)})"


class Invoke(Record):
    """``kind`` is virtual, super, direct, static or interface. ``source_line``, here and in
    ``StringConst``, is provenance for rule hits, left out of equality."""

    __slots__ = _fields = ("kind", "target", "source_line")
    _compared = _fields[:2]

    def __init__(self, kind: str, target: MethodRef, source_line: int = 0):
        self.kind, self.target, self.source_line = kind, target, source_line


class StringConst(Record):
    __slots__ = _fields = ("value", "source_line")
    _compared = _fields[:1]

    def __init__(self, value: str, source_line: int = 0):
        self.value, self.source_line = value, source_line


class MethodDef(Record):
    __slots__ = _fields = ("key", "body")

    def __init__(self, key: MethodRef, body: list[Invoke | StringConst] | None = None):
        self.key, self.body = key, [] if body is None else body


class ClassDef(Record):
    __slots__ = _fields = ("descriptor", "super_descriptor", "methods")

    def __init__(self, descriptor: str, super_descriptor: str = "", methods: list[MethodDef] | None = None):
        self.descriptor, self.super_descriptor = descriptor, super_descriptor
        self.methods = [] if methods is None else methods


class AppModel(Record):
    """One app's parsed classes; ``app_id`` is corpus-unique."""

    __slots__ = _fields = ("app_id", "classes")

    def __init__(self, app_id: str, classes: list[ClassDef] | None = None):
        self.app_id, self.classes = app_id, [] if classes is None else classes


_CLASS_DESC_RE = re.compile(r"^L[^\s;]+;$")
# The owner is a class descriptor that does not contain "->": runs of other
# characters, each "-" not followed by ">". It ends at its first ";", so the
# match is linear in the line's length.
_INVOKE_RE = re.compile(
    r"^invoke-(virtual|super|direct|static|interface)(?:/range)?\s+"
    r"\{[^}]*\}\s*,\s*(L(?=[^\s;])[^\s;-]*(?:-(?!>)[^\s;-]*)*;)->([^\s(]+)(\([^)]*\)\S+)$"
)
_CONST_STRING_RE = re.compile(r'^const-string(?:/jumbo)?\s+[vp]\d+\s*,\s*"(.*)"\s*$')
_METHOD_SIG_RE = re.compile(r"^([^\s(]+)(\([^)]*\)\S+)$")

#: Smali's one-letter escapes: the letter after the backslash -> its character.
_UNESCAPES = {'"': '"', "'": "'", "\\": "\\", "n": "\n", "t": "\t",
              "r": "\r", "b": "\b", "f": "\f", "0": "\0"}
_UNESCAPE_RE = re.compile(r"""\\(u[0-9a-fA-F]{4}|["'\\ntrbf0])""")
# Rendering writes NUL and the control characters without a letter as \uXXXX.
_ESCAPES = {c: "\\" + letter for letter, c in _UNESCAPES.items() if letter != "0"}
_ESCAPE_RE = re.compile(r'[\\"\x00-\x1f]')


def _unescape_string(s: str) -> str:
    if "\\" not in s:
        return s
    return _UNESCAPE_RE.sub(lambda m: _UNESCAPES.get(m[1]) or chr(int(m[1][1:], 16)), s)


def _escape_string(s: str) -> str:
    return _ESCAPE_RE.sub(lambda m: _ESCAPES.get(m[0]) or f"\\u{ord(m[0]):04x}", s)


def _parse_header(stripped: str, lineno: int, grammar: re.Pattern, what: str) -> re.Match:
    """Match the last token of a `.class` or `.method` line, the one after its flags."""
    tokens = stripped.split()
    if len(tokens) < 2:
        raise SmaliParseError(f"missing {what} in {tokens[0]}", lineno)
    m = grammar.match(tokens[-1])
    if not m:
        raise SmaliParseError(f"bad {what} {tokens[-1]!r}", lineno)
    return m


def parse_class(text: str, memo: dict | None = None) -> ClassDef:
    """Parse one smali class file into a ClassDef.

    ``memo`` is the app's memo (see ``parse_app_dir``); a fresh one when
    omitted. Raises SmaliParseError carrying the offending line number.
    """
    if memo is None:
        memo = {}
    canonical = memo.setdefault
    descriptor: str | None = None
    super_descriptor = ""
    methods: list[MethodDef] = []
    seen_methods: set[MethodRef] = set()

    cur: MethodDef | None = None  # the open method, declared at line cur_line
    cur_line = 0

    for lineno, raw in enumerate(text.split("\n"), 1):
        stripped = raw.strip()
        if cur is not None:
            # Dispatch on the first character. Most body lines start with none of "i"
            # (invoke-), "c" (const-string) or "." (directive) and add nothing to the
            # body, as does a line that fails its family's grammar. Only lines that
            # parse enter the memo: if-*, iget, const/4 and the like would bloat it.
            first = stripped[:1]
            if first == "i":
                hit = memo.get(stripped)
                if hit is None and (m := _INVOKE_RE.match(stripped)):
                    ref = MethodRef._make(m.group(2, 3, 4))
                    hit = memo[stripped] = (m[1], canonical(ref, ref))
                if hit is not None:
                    body.append(Invoke(hit[0], hit[1], lineno))
            elif first == "c":
                value = memo.get(stripped)
                if value is None and (m := _CONST_STRING_RE.match(stripped)):
                    value = memo[stripped] = _unescape_string(m[1])
                if value is not None:
                    body.append(StringConst(value, lineno))
            elif first == ".":
                if stripped == ".end method":
                    methods.append(cur)
                    cur = None
                elif stripped.startswith(".method") and stripped.split(maxsplit=1)[0] == ".method":
                    raise SmaliParseError(
                        f".method {cur.key.name}{cur.key.proto} (line {cur_line}) not closed before next .method",
                        lineno,
                    )
            continue

        # Directives and ".end method" start with "."; other lines need no head token.
        head = stripped.split(maxsplit=1)[0] if stripped.startswith(".") else ""
        if head == ".class":
            if descriptor is not None:
                raise SmaliParseError("duplicate .class directive", lineno)
            descriptor = _parse_header(stripped, lineno, _CLASS_DESC_RE, "class descriptor")[0]
        elif head == ".super":
            tokens = stripped.split()
            if len(tokens) != 2 or not _CLASS_DESC_RE.match(tokens[1]):
                raise SmaliParseError("bad .super directive", lineno)
            if super_descriptor:
                raise SmaliParseError("duplicate .super directive", lineno)
            super_descriptor = tokens[1]
        elif head == ".method":
            if descriptor is None:
                raise SmaliParseError(".method before .class", lineno)
            m = _parse_header(stripped, lineno, _METHOD_SIG_RE, "method signature")
            key = MethodRef(descriptor, *m.groups())
            key = canonical(key, key)
            if key in seen_methods:
                raise SmaliParseError(f"duplicate method {key.name}{key.proto}", lineno)
            seen_methods.add(key)
            cur, cur_line = MethodDef(key), lineno
            body = cur.body
        elif stripped == ".end method":
            raise SmaliParseError(".end method outside a method", lineno)

    if cur is not None:
        raise SmaliParseError(
            f".method {cur.key.name}{cur.key.proto} has no matching .end method", cur_line
        )
    if descriptor is None:
        raise SmaliParseError("no .class directive found", 1)
    return ClassDef(descriptor, super_descriptor, methods)


def unreadable_reason(exc: OSError | UnicodeDecodeError) -> str:
    """``unreadable: <reason>``. An OSError's own text names the absolute path;
    a report names relative paths only."""
    return "unreadable: " + str(OSError(exc.errno, exc.strerror) if isinstance(exc, OSError) else exc)


def parse_app_dir(root: str | os.PathLike, app_id: str) -> tuple[AppModel, list[str]]:
    """Parse every ``*.smali`` entry under ``root``, not descending symlinked
    directories, into an AppModel whose classes are ordered by POSIX path relative
    to ``root``. Subdirectories that cannot be listed, then files that fail to
    read or parse, are skipped and reported in the returned diagnostics by that
    path. Raises DuplicateClassError when two files declare the same descriptor,
    and the OS's own OSError when root is missing, not a directory or unreadable.

    Every ``parse_class`` call for the app shares one memo, dropped on return:
    it maps each parsed instruction line to its kind and target or its string,
    and each ``MethodRef`` to the app's one object for that identity.
    """
    top = os.fspath(root)
    cut = len(os.path.join(top, ""))  # os.walk names each entry os.path.join(dirpath, name)
    # The directories os.walk cannot list. A Python onerror that raised would keep
    # the exception in a frame its own traceback holds: a reference cycle.
    unlisted: list[OSError] = []
    files = []
    for dirpath, dirnames, filenames in os.walk(top, onerror=unlisted.append):
        for name in dirnames + filenames:  # a directory named *.smali is an unreadable file
            if name.endswith(SMALI_EXTENSION):
                path = os.path.join(dirpath, name)
                files.append((path[cut:], path))
    if unlisted and unlisted[0].filename == top:
        raise unlisted.pop()
    diagnostics = sorted(f"{exc.filename[cut:]}: {unreadable_reason(exc)}" for exc in unlisted)
    unlisted.clear()  # each traceback holds os.walk's frame, which holds this list
    files.sort()
    classes: list[ClassDef] = []
    seen: dict[str, str] = {}
    memo: dict = {}
    for rel, path in files:
        try:
            with open(path, "rb", buffering=0) as f:
                text = f.read().decode("utf-8-sig")
        except (OSError, UnicodeDecodeError) as exc:
            diagnostics.append(f"{rel}: {unreadable_reason(exc)}")
            continue
        if "\r" in text:  # newlines as text mode reads them
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        try:
            cls = parse_class(text, memo)
        except SmaliParseError as exc:
            diagnostics.append(f"{rel}: {exc}")
            continue
        if cls.descriptor in seen:
            raise DuplicateClassError(
                f"class {cls.descriptor} declared in both {seen[cls.descriptor]} and {rel}"
            )
        seen[cls.descriptor] = rel
        classes.append(cls)
    return AppModel(app_id, classes), diagnostics
