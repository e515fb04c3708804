"""Parser and renderer for a pragmatic subset of the smali class-file format.

Only the instruction families the detection rules consume are interpreted:
``invoke-*`` and ``const-string`` (including ``/jumbo``). Every other body
line, ``new-instance`` included, is kept verbatim as an opaque instruction,
so a parsed class can be rendered back without losing information.

String literals take smali's escapes: ``\\`` followed by one of ``"'\\ntrbf0``,
or ``\\u`` followed by exactly four hex digits. Any other backslash is kept as
it stands.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

SMALI_EXTENSION = ".smali"


class SmaliParseError(Exception):
    """A class file could not be parsed. ``line`` is 1-based when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class MalformedDirectiveError(SmaliParseError):
    """Bad `.class`, `.super`, or `.method` syntax."""


class UnterminatedMethodError(SmaliParseError):
    """A `.method` with no matching `.end method`."""


class DuplicateMethodError(SmaliParseError):
    """Two methods in one class share (name, proto)."""


class DuplicateClassError(Exception):
    """Two files in one app directory declare the same class descriptor."""


class MethodRef(NamedTuple):
    """Identity of a method: owner descriptor, method name, smali proto. Invoke
    targets are ``MethodRef``s, and each ``MethodDef`` holds its own as ``key``."""

    class_descriptor: str
    name: str
    proto: str

    def __str__(self) -> str:
        return f"{self.class_descriptor}->{self.name}{self.proto}"


# source_line and raw_line are provenance, excluded from equality so that
# structural comparison survives re-rendering.


@dataclass(slots=True)
class Invoke:
    kind: str  # virtual | super | direct | static | interface
    target: MethodRef
    source_line: int = field(default=0, compare=False)
    raw_line: str | None = field(default=None, compare=False, repr=False)


@dataclass(slots=True)
class StringConst:
    value: str
    source_line: int = field(default=0, compare=False)
    raw_line: str | None = field(default=None, compare=False, repr=False)


@dataclass(slots=True)
class Opaque:
    """Any body line we do not interpret, kept byte-for-byte."""

    raw_line: str
    source_line: int = field(default=0, compare=False)


Instruction = Invoke | StringConst | Opaque


@dataclass(slots=True)
class MethodDef:
    key: MethodRef
    flags: list[str] = field(default_factory=list)
    body: list[Instruction] = field(default_factory=list)


@dataclass(slots=True)
class ClassDef:
    descriptor: str
    super_descriptor: str = ""
    flags: list[str] = field(default_factory=list)
    #: Non-directive-critical lines outside method bodies (fields, annotations,
    #: comments), kept verbatim in source order.
    metadata: list[str] = field(default_factory=list)
    methods: list[MethodDef] = field(default_factory=list)
    source_file: str = ""


@dataclass(slots=True)
class AppModel:
    """One app's parsed classes; ``app_id`` is corpus-unique."""

    app_id: str
    classes: list[ClassDef] = field(default_factory=list)


_CLASS_DESC_RE = re.compile(r"^L[^\s;]+;$")
_INVOKE_RE = re.compile(
    r"^invoke-(virtual|super|direct|static|interface)(?:/range)?\s+"
    r"\{[^}]*\}\s*,\s*(\S+?)->([^\s(]+)(\([^)]*\)\S+)$"
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


def _parse_instruction(raw: str, stripped: str, lineno: int) -> Instruction:
    # Lines that look like an interpreted family but fail its grammar fall
    # back to opaque; only directives raise.
    if stripped.startswith("invoke-"):
        m = _INVOKE_RE.match(stripped)
        if m:
            kind, cls, name, proto = m.groups()
            if _CLASS_DESC_RE.match(cls):
                return Invoke(kind, MethodRef(cls, name, proto), lineno, raw)
    elif stripped.startswith("const-string"):
        m = _CONST_STRING_RE.match(stripped)
        if m:
            return StringConst(_unescape_string(m.group(1)), lineno, raw)
    return Opaque(raw, lineno)


def _parse_header(stripped: str, lineno: int, grammar: re.Pattern, what: str) -> tuple[list[str], re.Match]:
    """Split a `.class` or `.method` line into its flags and the match of its last token."""
    tokens = stripped.split()
    if len(tokens) < 2:
        raise MalformedDirectiveError(f"missing {what} in {tokens[0]}", lineno)
    m = grammar.match(tokens[-1])
    if not m:
        raise MalformedDirectiveError(f"bad {what} {tokens[-1]!r}", lineno)
    return tokens[1:-1], m


def parse_class(text: str, source_file: str = "") -> ClassDef:
    """Parse one smali class file into a ClassDef.

    Raises MalformedDirectiveError, UnterminatedMethodError, or
    DuplicateMethodError, each carrying the offending line number.
    """
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()

    descriptor: str | None = None
    super_descriptor = ""
    class_flags: list[str] = []
    metadata: list[str] = []
    methods: list[MethodDef] = []
    seen_methods: set[MethodRef] = set()

    cur: MethodDef | None = None  # the open method, declared at line cur_line
    cur_line = 0

    for lineno, raw in enumerate(lines, 1):
        stripped = raw.strip()
        # Directives and ".end method" start with "."; other lines need no head token.
        head = stripped.split(maxsplit=1)[0] if stripped.startswith(".") else ""

        if cur is not None:
            if stripped == ".end method":
                methods.append(cur)
                cur = None
            elif head == ".method":
                raise UnterminatedMethodError(
                    f".method {cur.key.name}{cur.key.proto} (line {cur_line}) not closed before next .method",
                    lineno,
                )
            else:
                cur.body.append(_parse_instruction(raw, stripped, lineno))
            continue

        if head == ".class":
            if descriptor is not None:
                raise MalformedDirectiveError("duplicate .class directive", lineno)
            class_flags, m = _parse_header(stripped, lineno, _CLASS_DESC_RE, "class descriptor")
            descriptor = m[0]
        elif head == ".super":
            tokens = stripped.split()
            if len(tokens) != 2 or not _CLASS_DESC_RE.match(tokens[1]):
                raise MalformedDirectiveError("bad .super directive", lineno)
            if super_descriptor:
                raise MalformedDirectiveError("duplicate .super directive", lineno)
            super_descriptor = tokens[1]
        elif head == ".method":
            if descriptor is None:
                raise MalformedDirectiveError(".method before .class", lineno)
            flags, m = _parse_header(stripped, lineno, _METHOD_SIG_RE, "method signature")
            key = MethodRef(descriptor, *m.groups())
            if key in seen_methods:
                raise DuplicateMethodError(f"duplicate method {key.name}{key.proto}", lineno)
            seen_methods.add(key)
            cur, cur_line = MethodDef(key, flags), lineno
        elif stripped == ".end method":
            raise MalformedDirectiveError(".end method outside a method", lineno)
        elif stripped:
            metadata.append(raw)

    if cur is not None:
        raise UnterminatedMethodError(
            f".method {cur.key.name}{cur.key.proto} has no matching .end method", cur_line
        )
    if descriptor is None:
        raise MalformedDirectiveError("no .class directive found", 1)
    return ClassDef(descriptor, super_descriptor, class_flags, metadata, methods, source_file)


def parse_app_dir(root: str | Path, app_id: str) -> tuple[AppModel, list[str]]:
    """Parse every ``*.smali`` file under ``root`` (recursively) into an AppModel.

    Files that fail to parse are skipped and reported in the returned
    diagnostics list; classes are ordered by relative path so repeated runs
    produce identical models. Raises DuplicateClassError when two files
    declare the same descriptor, and OSError when root is unreadable.
    """
    root = Path(root)
    if not root.exists():
        raise FileNotFoundError(f"app directory not found: {root}")
    if not root.is_dir():
        raise NotADirectoryError(f"not a directory: {root}")

    files = sorted((p.relative_to(root).as_posix(), p) for p in root.rglob(f"*{SMALI_EXTENSION}"))
    classes: list[ClassDef] = []
    diagnostics: list[str] = []
    seen: dict[str, str] = {}
    for rel, path in files:
        try:
            text = path.read_text(encoding="utf-8-sig")
        except (OSError, UnicodeDecodeError) as exc:
            # An OSError's own text names the absolute path; the report names rel only.
            # A str, since an exception kept in a local would cycle through this frame.
            reason = str(OSError(exc.errno, exc.strerror) if isinstance(exc, OSError) else exc)
            diagnostics.append(f"{rel}: unreadable: {reason}")
            continue
        try:
            cls = parse_class(text, source_file=rel)
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


def _render_instruction(ins: Instruction) -> str:
    if ins.raw_line is not None:
        return ins.raw_line
    if isinstance(ins, Invoke):
        return f"    invoke-{ins.kind} {{}}, {ins.target}"
    return f'    const-string v0, "{_escape_string(ins.value)}"'


def render_class(cls: ClassDef) -> str:
    """Emit smali text whose re-parse is structurally identical to ``cls``."""
    parts = [" ".join([".class", *cls.flags, cls.descriptor])]
    if cls.super_descriptor:
        parts.append(f".super {cls.super_descriptor}")
    parts.extend(cls.metadata)
    for m in cls.methods:
        parts.append("")
        parts.append(" ".join([".method", *m.flags, f"{m.key.name}{m.key.proto}"]))
        parts.extend(_render_instruction(ins) for ins in m.body)
        parts.append(".end method")
    return "\n".join(parts) + "\n"
