import contextlib
import errno
import operator
import os
import random
import re
import string
import time
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from storescan import smali_ir
from storescan.detector import DetectorConfig
from storescan.report import scan_corpus
from storescan.rules import RuleFormatError, RuleSet
from storescan.smali_ir import (
    AppModel,
    ClassDef,
    DuplicateClassError,
    Invoke,
    MethodDef,
    MethodRef,
    SmaliParseError,
    StringConst,
    parse_app_dir,
    parse_class,
)

from appgen import (
    class_text,
    const_string_line,
    fixture_classes,
    invoke_line,
    method_text,
    random_instance,
    render_class,
)
from oracle import invoke_oracle


class TestParseClass:
    def test_empty_class(self):
        cls = parse_class(".class Lcom/a/B;\n.super Ljava/lang/Object;")
        assert cls.descriptor == "Lcom/a/B;"
        assert cls.super_descriptor == "Ljava/lang/Object;"
        assert cls.methods == []

    def test_class_flags(self):
        # Flags on the class and method lines are read past: the descriptor and
        # the method key are the tokens after them.
        text = ".class public final Lcom/a/B;\n.super Ljava/lang/Object;\n.method private static final f()V\n.end method\n"
        cls = parse_class(text)
        assert cls.descriptor == "Lcom/a/B;"
        assert [m.key for m in cls.methods] == [MethodRef("Lcom/a/B;", "f", "()V")]

    def test_invoke_static(self):
        text = class_text(
            "Lcom/a/B;",
            methods=[
                method_text(
                    "f",
                    body=["    invoke-static {}, Landroid/os/Environment;->getExternalStorageDirectory()Ljava/io/File;"],
                )
            ],
        )
        (m,) = parse_class(text).methods
        (ins,) = m.body
        assert ins == Invoke(
            MethodRef("Landroid/os/Environment;", "getExternalStorageDirectory", "()Ljava/io/File;"),
        )

    def test_const_string(self):
        text = class_text(
            "Lcom/a/B;",
            methods=[method_text("f", body=['    const-string v0, "/sdcard/foo"'])],
        )
        (m,) = parse_class(text).methods
        assert m.body == [StringConst("/sdcard/foo")]

    def test_const_string_jumbo(self):
        text = class_text(
            "Lcom/a/B;",
            methods=[method_text("f", body=['    const-string/jumbo v256, "big"'])],
        )
        (m,) = parse_class(text).methods
        assert m.body == [StringConst("big")]

    def test_const_string_escapes(self):
        text = class_text(
            "Lcom/a/B;",
            methods=[
                method_text(
                    "f",
                    body=['    const-string v0, "a\\"b\\\\c\\nd\\u0041"'],
                )
            ],
        )
        (m,) = parse_class(text).methods
        assert m.body == [StringConst('a"b\\c\nd' + "A")]

    @pytest.mark.parametrize("escape", ["\\u+041", "\\u0x41", "\\u 041", "\\u0_41", "\\u-041", "\\u004"])
    def test_unicode_escape_needs_four_hex_digits(self, escape):
        # Anything but exactly four hex digits after \u is kept literally.
        line = f'    const-string v0, "/sdcard/{escape}"'
        (m,) = parse_class(class_text("Lcom/a/B;", methods=[method_text("f", body=[line])])).methods
        assert m.body == [StringConst("/sdcard/" + escape)]

    def test_new_instance(self):
        text = class_text(
            "Lcom/a/B;",
            methods=[method_text("f", body=["    new-instance v0, Ljava/io/File;"])],
        )
        (m,) = parse_class(text).methods
        assert m.body == []

    def test_invoke_kinds_and_range(self):
        body = [
            "    invoke-virtual {p0}, La/A;->v()V",
            "    invoke-super {p0}, La/A;->s()V",
            "    invoke-direct {p0}, La/A;-><init>()V",
            "    invoke-static {}, La/A;->t()V",
            "    invoke-interface {p0}, La/I;->i()V",
            "    invoke-virtual/range {v0 .. v5}, La/A;->r(IIIII)V",
        ]
        text = class_text("Lcom/a/B;", methods=[method_text("f", body=body)])
        (m,) = parse_class(text).methods
        assert m.body == [
            Invoke(MethodRef("La/A;", "v", "()V")),
            Invoke(MethodRef("La/A;", "s", "()V")),
            Invoke(MethodRef("La/A;", "<init>", "()V")),
            Invoke(MethodRef("La/A;", "t", "()V")),
            Invoke(MethodRef("La/I;", "i", "()V")),
            Invoke(MethodRef("La/A;", "r", "(IIIII)V")),
        ]
        lines = text.split("\n")
        assert [lines[ins.source_line - 1] for ins in m.body] == body

    def test_source_lines_are_recorded(self):
        # Interpreted lines carry their line number for rule hits.
        text = (
            ".class Lcom/a/B;\n.super Ljava/lang/Object;\n.method f()V\n    nop\n"
            '    const-string v0, "x.y"\n    invoke-static {}, La/A;->t()V\n.end method\n'
        )
        (m,) = parse_class(text).methods
        assert m.body == [StringConst("x.y"), Invoke(MethodRef("La/A;", "t", "()V"))]
        assert [ins.source_line for ins in m.body] == [5, 6]

    def test_uninterpreted_lines_are_opaque(self):
        body = ["    .locals 2", "    nop", "", "    # comment", "    :label_0"]
        text = class_text("Lcom/a/B;", methods=[method_text("f", body=body)])
        (m,) = parse_class(text).methods
        assert m.body == []

    def test_interpretation_completeness_on_fixtures(self):
        # The body holds every invoke-*/const-string line of a fixture and nothing else.
        for fixture in fixture_classes():
            body = [ins for m in parse_class(fixture.text).methods for ins in m.body]
            assert all(isinstance(ins, (Invoke, StringConst)) for ins in body)
            invokes = sum(isinstance(ins, Invoke) for ins in body)
            assert (invokes, len(body) - invokes) == (fixture.invokes, fixture.strings)

    def test_source_lines_on_fixtures(self):
        # Each item is what the line its source_line names parses to on its own,
        # so the lines the body leaves out shift nothing.
        for fixture in fixture_classes():
            lines = fixture.text.split("\n")
            for m in parse_class(fixture.text).methods:
                for ins in m.body:
                    alone = class_text("La/A;", methods=[method_text("f", body=[lines[ins.source_line - 1]])])
                    assert parse_class(alone).methods[0].body == [ins]

    def test_uninterpreted_content_changes_nothing(self):
        # Flags, metadata and every uninterpreted body line leave the model as it
        # is without them; source lines, which equality ignores, are checked apart.
        plain = (
            ".class La/B;\n"
            ".super Ljava/lang/Object;\n"
            ".method f()V\n"
            '    const-string v0, "/sdcard/x"\n'
            "    invoke-static {}, La/A;->t()V\n"
            ".end method\n"
        )
        rich = (
            "# header comment\n"
            ".class public final La/B;\n"
            ".super Ljava/lang/Object;\n"
            '.source "B.java"\n'
            ".implements Ljava/lang/Runnable;\n"
            "\n"
            ".field private x:I\n"
            ".annotation system Ldalvik/annotation/MemberClasses;\n"
            "    value = { La/B$X; }\n"
            ".end annotation\n"
            "\n"
            ".method public static final f()V\n"
            "    .locals 2\n"
            "    # body comment\n"
            "    nop\n"
            "\n"
            '    const-string v0, "/sdcard/x"\n'
            "    new-instance v1, Ljava/io/File;\n"
            "    invoke-static {}, La/A;->t()V\n"
            "    return-void\n"
            ".end method\n"
        )
        assert parse_class(rich) == parse_class(plain)

        def source_lines(text):
            return [ins.source_line for m in parse_class(text).methods for ins in m.body]

        assert source_lines(plain) == [4, 5]
        assert source_lines(rich) == [17, 19]

    def test_metadata_retained_verbatim(self):
        # Of the lines outside methods only .super is kept, as written.
        text = (
            ".class Lcom/a/B;\n"
            ".super Lcom/a/Base$Inner;\n"
            '.source "Other.java"\n'
            ".implements Ljava/lang/Runnable;\n"
            ".field private x:I\n"
            "# a comment\n"
        )
        assert parse_class(text) == ClassDef("Lcom/a/B;", "Lcom/a/Base$Inner;", [])

    # Diagnostics are report bytes ("rel: message"), so their full text is pinned.

    def test_unterminated_method(self):
        with pytest.raises(SmaliParseError) as exc:
            parse_class(".class Lcom/a/B;\n.method foo()V")
        assert str(exc.value) == "line 2: .method foo()V has no matching .end method"

    def test_nested_method_reports_unterminated(self):
        text = ".class La/B;\n.method f()V\n.method g()V\n.end method\n"
        with pytest.raises(SmaliParseError) as exc:
            parse_class(text)
        assert str(exc.value) == "line 3: .method f()V (line 2) not closed before next .method"

    def test_malformed_class_directive_has_line(self):
        with pytest.raises(SmaliParseError) as exc:
            parse_class(".class NotADescriptor\n")
        assert exc.value.line == 1
        assert str(exc.value) == "line 1: bad class descriptor 'NotADescriptor'"

    def test_missing_class_descriptor(self):
        with pytest.raises(SmaliParseError) as exc:
            parse_class("# header\n.class\n")
        assert str(exc.value) == "line 2: missing class descriptor in .class"

    def test_malformed_method_signature(self):
        with pytest.raises(SmaliParseError) as exc:
            parse_class(".class La/B;\n.super Ljava/lang/Object;\n.method public broken\n.end method\n")
        assert exc.value.line == 3
        assert str(exc.value) == "line 3: bad method signature 'broken'"

    def test_missing_method_signature(self):
        with pytest.raises(SmaliParseError) as exc:
            parse_class(".class La/B;\n.method\n.end method\n")
        assert str(exc.value) == "line 2: missing method signature in .method"

    def test_missing_class_directive(self):
        with pytest.raises(SmaliParseError, match=r"^line 1: no \.class directive found$"):
            parse_class(".super Ljava/lang/Object;\n")

    def test_duplicate_method(self):
        text = class_text(
            "Lcom/a/B;",
            methods=[method_text("f", body=[]), method_text("f", body=[])],
        )
        with pytest.raises(SmaliParseError, match=r"^line 7: duplicate method f\(\)V$"):
            parse_class(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            (".class La/B;\n.class La/C;\n", r"^line 2: duplicate \.class directive$"),
            (".class La/B;\n.super NotADescriptor\n", r"^line 2: bad \.super directive$"),
            (".class La/B;\n\n.super La/C; extra\n", r"^line 3: bad \.super directive$"),
            (".class La/B;\n.super La/C;\n.super La/D;\n", r"^line 3: duplicate \.super directive$"),
            # No dex class name holds ">", and no invoke can target a descriptor holding "->".
            (".class public La->b;\n", r"^line 1: bad class descriptor 'La->b;'$"),
            (".class La/B;\n.super La->b;\n", r"^line 2: bad \.super directive$"),
        ],
        ids=["duplicate-class", "bad-super", "super-extra-token", "duplicate-super", "arrow-class", "arrow-super"],
    )
    def test_bad_class_header(self, text, message):
        with pytest.raises(SmaliParseError, match=message):
            parse_class(text)

    def test_same_name_different_proto_is_fine(self):
        text = class_text(
            "Lcom/a/B;",
            methods=[method_text("f", body=[]), method_text("f", proto="(I)V", body=[])],
        )
        assert len(parse_class(text).methods) == 2

    def test_stray_end_method(self):
        with pytest.raises(SmaliParseError, match=r"^line 2: \.end method outside a method$"):
            parse_class(".class La/B;\n.end method\n")

    def test_owner_is_set_from_class(self):
        text = class_text("Lcom/a/B;", methods=[method_text("f", body=[])])
        cls = parse_class(text)
        assert cls.methods[0].key.class_descriptor == "Lcom/a/B;"
        assert cls.methods[0].key == ("Lcom/a/B;", "f", "()V")


_TOKENS = ["L", "a", "b/c", "$", ";", "->", "-", ">", "(", ")", "V", "I", " ", "\t"]
_PART = st.lists(st.sampled_from(_TOKENS), max_size=5).map("".join)


class TestInvokeGrammar:
    """The one-regex invoke grammar against the two-regex reference, ``invoke_oracle``."""

    @staticmethod
    def parse(tail: str) -> Invoke | None:
        """The one instruction of a body line ``invoke-static {v0}, <tail>``, or None."""
        line = f"    invoke-static {{v0}}, {tail}"
        (m,) = parse_class(class_text("La/A;", methods=[method_text("f", body=[line])])).methods
        (ins,) = m.body or [None]
        return ins

    @given(
        st.one_of(
            st.builds(
                lambda owner, end, name, params, ret: f"L{owner}{end}->{name}({params}){ret}",
                _PART, st.sampled_from([";", ""]), _PART, _PART, _PART,
            ),
            st.lists(st.sampled_from(_TOKENS), max_size=16).map("".join),
        )
    )
    @example("La;->b()V")
    @example("La->b;->c()V")
    @example("La->(;->b()V")
    def test_matches_the_two_regex_reference(self, tail):
        got = self.parse(tail)
        want = invoke_oracle(f"invoke-static {{v0}}, {tail}".strip())
        if want is not None and "->" in want[1]:
            want = None  # see test_owner_containing_an_arrow_is_no_class
        if want is None:
            assert got is None
        else:
            assert isinstance(got, Invoke) and tuple(got.target) == want[1:]

    def test_owner_containing_an_arrow_is_no_class(self):
        # The reference's lazy owner group reaches past a "->" when the rest after
        # the first one fails, and its descriptor check lets "La->(;" through.
        assert invoke_oracle("invoke-static {}, La->(;->b()V") == ("static", "La->(;", "b", "()V")
        assert self.parse("La->(;->b()V") is None

    @pytest.mark.parametrize(
        "tail",
        [
            "La" + "->a" * 21_800,  # no "(": the reference retries at every "->"
            "La;->" + "a" * 65_000,
            "La;->a(" + "I" * 65_000,
            "La;->a()" + " V" * 32_500,
            "L" + "a-" * 32_500 + ";->b()V",
        ],
        ids=["arrows", "name", "params", "return", "dashes"],
    )
    def test_a_64k_line_parses_in_linear_time(self, tail):
        start = time.perf_counter()
        self.parse(tail)
        assert time.perf_counter() - start < 0.1

    @staticmethod
    def headers_read(s: str) -> list[bool]:
        """Whether ``.class public <s>`` and ``.super <s>`` each read the descriptor ``s``."""
        read = []
        for text, field in ((f".class public {s}\n", "descriptor"), (f".class La;\n.super {s}\n", "super_descriptor")):
            try:
                read.append(getattr(parse_class(text), field) == s)
            except SmaliParseError:
                read.append(False)
        return read

    @given(st.text(alphabet="L;->/$ ab", max_size=8))
    @example("La;")
    @example("La->b;")
    @example("L-;")
    @example("La;->b;")
    @example("La;\n")  # re's "$" also matches before a final newline
    def test_one_class_descriptor_grammar(self, s):
        # .class, .super, an invoke's owner and a write-sink class accept the same descriptors.
        ins = self.parse(f"{s}->m()V")
        accepted = isinstance(ins, Invoke) and ins.target.class_descriptor == s
        assert self.headers_read(s) == [accepted, accepted]
        with contextlib.nullcontext() if accepted else pytest.raises(RuleFormatError):
            RuleSet([], [], [], [(s, "m")])

    @given(st.text(alphabet="L;->/$ab()VI", max_size=10))
    @example("a(I)V")
    @example("a->b;(V")
    @example("a)(I)V")
    def test_one_method_signature_grammar(self, sig):
        # A .method header and an invoke's "-><name><proto>" split a signature alike.
        try:
            (m,) = parse_class(f".class La;\n.method public {sig}\n.end method\n").methods
            declared = m.key[1:]
        except SmaliParseError:
            declared = None
        ins = self.parse(f"La;->{sig}")
        assert declared == (ins.target[1:] if ins else None)


# Strategies for whole classes, and for the lines and flags the parser reads past:
# opcodes that are neither invoke-*, const-string nor directives, and metadata.
_IDENT = st.text(alphabet=string.ascii_letters + string.digits + "_$éж", min_size=1, max_size=6)
_CLASS_DESC = st.lists(_IDENT, min_size=1, max_size=3).map(lambda parts: "L" + "/".join(parts) + ";")
_TYPE = st.builds(operator.add, st.sampled_from(["", "["]), st.one_of(st.sampled_from("ZBSCIJFD"), _CLASS_DESC))
_PROTO = st.builds(
    lambda params, ret: f"({''.join(params)}){ret}", st.lists(_TYPE, max_size=3), st.one_of(st.just("V"), _TYPE)
)
_METHOD_NAME = st.one_of(st.sampled_from(["<init>", "<clinit>"]), _IDENT)
_INVOKE = st.builds(Invoke, st.builds(MethodRef, _CLASS_DESC, _METHOD_NAME, _PROTO))
_SPECIAL_CHARS = '\\"\'\n\t\r\b\f\x00\x1f\x7féж€😀/._ '  # escapes, controls, non-ASCII
_STRING_CONST = st.builds(StringConst, st.one_of(st.text(), st.text(alphabet=_SPECIAL_CHARS)))
_OPAQUE = st.builds(
    lambda op, operands: f"    {op}{operands}",
    st.sampled_from(
        ["nop", "return-void", "return-object", "move-result-object", "const/4", "const-wide/16",
         "const-class", "new-instance", "check-cast", "iget-object", "sput", "if-eqz", "goto", "throw"]
    ),
    st.sampled_from(["", " v0", " v1, v2", " p0, La/B;->f:I", " :cond_0", " v0, 0x1"]),
)
_METADATA = st.one_of(
    st.builds(lambda name, t: f".field private {name}:{t}", _IDENT, _TYPE),
    st.builds(lambda name: f'.source "{name}.java"', _IDENT),
    st.builds(lambda desc: f".implements {desc}", _CLASS_DESC),
    st.builds(lambda text: f"# {text}", _IDENT),
)
_UNINTERPRETED = st.one_of(_OPAQUE, _METADATA, st.sampled_from(["", "    .locals 2", "    .line 7"]))
_FLAGS = st.lists(
    st.sampled_from(["public", "private", "static", "final", "abstract", "synthetic", "constructor", "native"]),
    max_size=3,
)


@st.composite
def class_defs(draw) -> ClassDef:
    desc = draw(_CLASS_DESC)
    signatures = draw(st.lists(st.tuples(_METHOD_NAME, _PROTO), max_size=4, unique=True))
    methods = [
        MethodDef(MethodRef(desc, name, proto), draw(st.lists(st.one_of(_INVOKE, _STRING_CONST), max_size=8)))
        for name, proto in signatures
    ]
    return ClassDef(desc, draw(st.one_of(st.just(""), _CLASS_DESC)), methods)


@st.composite
def noisy_renders(draw) -> tuple[ClassDef, str]:
    """A class and its rendering with random flags on each header, a random kind,
    with or without ``/range``, on each invoke, and random uninterpreted lines
    before each line."""
    cls = draw(class_defs())
    lines = []
    for line in render_class(cls).split("\n"):
        lines.extend(draw(st.lists(_UNINTERPRETED, max_size=2)))
        if line.startswith((".class ", ".method ")):
            directive, *_, last = line.split(" ")
            line = " ".join([directive, *draw(_FLAGS), last])
        elif line.startswith("    invoke-"):
            kind = draw(st.sampled_from(["virtual", "super", "direct", "static", "interface"]))
            kind += draw(st.sampled_from(["", "/range"]))
            line = f"    invoke-{kind} {{}}, {line.split(', ', 1)[1]}"
        lines.append(line)
    return cls, "\n".join(lines)


class TestRenderRoundTrip:
    def test_empty_class_renders_two_lines(self):
        cls = ClassDef("Lcom/a/B;", "Ljava/lang/Object;")
        assert render_class(cls) == ".class public Lcom/a/B;\n.super Ljava/lang/Object;\n"

    def test_method_text_is_pinned(self):
        # Generated corpora whose report digests are pinned are written by
        # render_class; a line added or dropped here would move every source line.
        key = MethodRef("La/B;", "f", "()V")
        cls = ClassDef("La/B;", "Ljava/lang/Object;", [MethodDef(key, [StringConst("x"), Invoke(key)])])
        assert render_class(cls) == (
            ".class public La/B;\n.super Ljava/lang/Object;\n\n.method public static f()V\n    .locals 3\n"
            '    const-string v0, "x"\n    invoke-static {}, La/B;->f()V\n.end method\n'
        )

    def test_invoke_roundtrip(self):
        text = class_text(
            "Lcom/a/B;",
            methods=[
                method_text(
                    "f",
                    body=["    invoke-static {}, Landroid/os/Environment;->getExternalStorageDirectory()Ljava/io/File;"],
                )
            ],
        )
        first = parse_class(text)
        second = parse_class(render_class(first))
        assert second.methods[0].body == first.methods[0].body

    def test_opaque_byte_identical(self):
        # Uninterpreted lines leave no trace in the model, so a class read with
        # them renders to the same bytes as one read without them, and rendered
        # text, its own .locals line included, renders back byte for byte.
        call = "    invoke-static {}, La/A;->t()V"
        bare = parse_class(class_text("Lcom/a/B;", methods=[method_text("f", body=[call])]))
        noisy = parse_class(class_text("Lcom/a/B;", methods=[method_text("f", body=["    nop", call, "    return-void"])]))
        rendered = render_class(bare)
        assert render_class(noisy) == rendered
        assert render_class(parse_class(rendered)) == rendered

    def test_roundtrip_fixture_corpus(self):
        for fixture in fixture_classes():
            first = parse_class(fixture.text)
            second = parse_class(render_class(first))
            assert second == first

    def test_synthetic_instructions_render(self):
        cls = ClassDef(
            "Lsyn/A;",
            "Ljava/lang/Object;",
            methods=[
                MethodDef(
                    MethodRef("Lsyn/A;", "f", "()V"),
                    [Invoke(MethodRef("Lsyn/B;", "g", "()V")), StringConst("hello.world")],
                )
            ],
        )
        reparsed = parse_class(render_class(cls))
        assert reparsed.methods[0].body == cls.methods[0].body

    @given(st.text())
    def test_string_value_roundtrip(self, value):
        cls = ClassDef(
            "Lsyn/S;",
            "Ljava/lang/Object;",
            methods=[MethodDef(MethodRef("Lsyn/S;", "f", "()V"), [StringConst(value)])],
        )
        reparsed = parse_class(render_class(cls))
        assert reparsed.methods[0].body == [StringConst(value)]

    @given(noisy_renders())
    def test_class_roundtrip(self, cls_and_text):
        cls, noisy = cls_and_text
        assert parse_class(render_class(cls)) == cls
        assert parse_class(noisy) == cls


class TestParseAppDir:
    def test_empty_directory(self, tmp_path):
        app, diags = parse_app_dir(tmp_path, "empty")
        assert app == AppModel("empty", [])
        assert diags == []

    def test_two_classes_path_sorted(self, tmp_path):
        # "B.smali" sorts before "b/A.smali", so path order is not descriptor order.
        (tmp_path / "b").mkdir()
        (tmp_path / "b" / "A.smali").write_text(class_text("Lx/A;"), encoding="utf-8")
        (tmp_path / "B.smali").write_text(class_text("Lx/B;"), encoding="utf-8")
        app, diags = parse_app_dir(tmp_path, "two")
        assert [c.descriptor for c in app.classes] == ["Lx/B;", "Lx/A;"]
        assert diags == []

    @pytest.mark.parametrize(
        "content, message",
        [
            (b".class Lx/B;\n.method broken()V\n", "line 2: .method broken()V has no matching"),
            (b"", "line 1: no .class directive found"),
            (b".class Lx/B;\n\xff\xfe\n", "unreadable: 'utf-8' codec can't decode"),
            # The position counts from the byte after the BOM.
            (b"\xef\xbb\xbf.class Lx/B;\n\xff\n",
             "unreadable: 'utf-8' codec can't decode byte 0xff in position 13: invalid start byte"),
            (None, "unreadable: [Errno 21] Is a directory"),
            (b".class public La->b;\n", "line 1: bad class descriptor 'La->b;'"),
            (b".class public Lx/B;\n.super La->b;\n", "line 2: bad .super directive"),
        ],
        ids=["unterminated-method", "empty", "non-utf8", "bom-non-utf8", "directory", "arrow-class", "arrow-super"],
    )
    def test_malformed_file_becomes_diagnostic(self, tmp_path, content, message):
        # One bad file costs exactly one diagnostic; its good sibling still parses.
        (tmp_path / "A.smali").write_text(class_text("Lx/A;"), encoding="utf-8")
        bad = tmp_path / "B.smali"
        if content is None:
            bad.mkdir()
        else:
            bad.write_bytes(content)
        app, diags = parse_app_dir(tmp_path, "mixed")
        assert [c.descriptor for c in app.classes] == ["Lx/A;"]
        assert len(diags) == 1
        assert diags[0].startswith(f"B.smali: {message}")

    def test_utf8_bom_is_skipped(self, tmp_path):
        text = class_text("Lx/A;", methods=[method_text("f", body=["    nop"])])
        (tmp_path / "A.smali").write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        app, diags = parse_app_dir(tmp_path, "bom")
        assert diags == []
        assert app.classes == [parse_class(text)]

    def test_crlf_matches_lf_twin(self, tmp_path):
        text = class_text(
            "Lx/A;",
            methods=[method_text("f", body=['    const-string v0, "/sdcard/log"', "    nop"])],
            metadata=[".field private x:I"],
        )
        apps = {}
        for name, newline in (("lf", "\n"), ("crlf", "\r\n"), ("cr", "\r")):
            (tmp_path / name).mkdir()
            (tmp_path / name / "A.smali").write_bytes(text.replace("\n", newline).encode("utf-8"))
            app, diags = parse_app_dir(tmp_path / name, "app")
            assert diags == []
            apps[name] = app
        assert apps["crlf"] == apps["lf"] == apps["cr"]

        def source_lines(app):
            return [ins.source_line for c in app.classes for m in c.methods for ins in m.body]

        assert source_lines(apps["crlf"]) == source_lines(apps["lf"]) == source_lines(apps["cr"])

    def test_non_smali_files_ignored(self, tmp_path):
        (tmp_path / "README.txt").write_text("not smali", encoding="utf-8")
        app, diags = parse_app_dir(tmp_path, "other")
        assert app.classes == [] and diags == []

    def test_duplicate_class(self, tmp_path):
        (tmp_path / "A.smali").write_text(class_text("Lx/A;"), encoding="utf-8")
        (tmp_path / "A2.smali").write_text(class_text("Lx/A;"), encoding="utf-8")
        with pytest.raises(DuplicateClassError):
            parse_app_dir(tmp_path, "dup")

    def test_missing_root(self, tmp_path):
        with pytest.raises(OSError):
            parse_app_dir(tmp_path / "nope", "gone")

    def test_file_root(self, tmp_path):
        (tmp_path / "A.smali").write_text(class_text("Lx/A;"), encoding="utf-8")
        with pytest.raises(NotADirectoryError):
            parse_app_dir(tmp_path / "A.smali", "file")

    def test_unreadable_root_raises(self, tmp_path, monkeypatch):
        # Root cannot be denied read access, so listing fails by patch; a
        # recursive glob alone would skip the root and return an empty app.
        (tmp_path / "A.smali").write_text(class_text("Lx/A;"), encoding="utf-8")

        def scandir(path="."):
            raise PermissionError(errno.EACCES, "Permission denied", str(path))

        monkeypatch.setattr(os, "scandir", scandir)
        with pytest.raises(PermissionError):
            parse_app_dir(tmp_path, "locked")

    def test_directory_symlink_loop_not_followed(self, tmp_path):
        (tmp_path / "smali").mkdir()
        (tmp_path / "smali" / "A.smali").write_text(class_text("Lx/A;"), encoding="utf-8")
        (tmp_path / "smali" / "loop").symlink_to(tmp_path, target_is_directory=True)
        app, diags = parse_app_dir(tmp_path, "loop")
        assert [c.descriptor for c in app.classes] == ["Lx/A;"]
        assert diags == []

    @pytest.mark.parametrize("as_root", [Path, str, lambda p: f"{p}/"], ids=["path", "str", "trailing-slash"])
    def test_walk_lists_exactly_these_entries(self, tmp_path, as_root):
        # The expected listing is spelled out, not taken from rglob, whose handling
        # of symlinks and errors differs between Python versions.
        app, outside = tmp_path / "app", tmp_path / "outside"
        for rel, descriptor in [("A.smali", "Lx/A;"), (".hidden/B.smali", "Lx/B;"), ("x/y/z/C.smali", "Lx/C;"),
                                ("dir.smali/D.smali", "Lx/D;"), ("x/y/notes.txt", None)]:
            (app / rel).parent.mkdir(parents=True, exist_ok=True)
            (app / rel).write_text(class_text(descriptor) if descriptor else "", encoding="utf-8")
        outside.mkdir()
        (outside / "E.txt").write_text(class_text("Lx/E;"), encoding="utf-8")
        (outside / "F.smali").write_text(class_text("Lx/F;"), encoding="utf-8")
        (app / "link.smali").symlink_to(outside / "E.txt")
        (app / "broken.smali").symlink_to(tmp_path / "nowhere")
        (app / "linkdir").symlink_to(outside, target_is_directory=True)  # not descended
        model, diags = parse_app_dir(as_root(app), "app")
        # In path order: .hidden/B, A, dir.smali/D, link (to E.txt), x/y/z/C.
        assert [c.descriptor for c in model.classes] == ["Lx/B;", "Lx/A;", "Lx/D;", "Lx/E;", "Lx/C;"]
        assert diags == [
            "broken.smali: unreadable: [Errno 2] No such file or directory",
            "dir.smali: unreadable: [Errno 21] Is a directory",
        ]

    @pytest.mark.parametrize("as_root", [Path, str, lambda p: f"{p}/"], ids=["path", "str", "trailing-slash"])
    def test_unreadable_subdirectory_becomes_diagnostic(self, tmp_path, monkeypatch, as_root):
        # Root cannot be denied read access, so listing fails by patch. A recursive
        # glob would drop the subdirectory's classes without a word.
        for rel, descriptor in [("A.smali", "Lx/A;"), ("a/locked/B.smali", "Lx/B;"),
                                ("a/open/C.smali", "Lx/C;"), ("z/locked/D.smali", "Lx/D;")]:
            (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / rel).write_text(class_text(descriptor), encoding="utf-8")
        (tmp_path / "z" / "E.smali").write_bytes(b".class Lx/E;\n.method f()V\n")
        real_scandir = os.scandir

        def scandir(path="."):
            if os.path.basename(path) == "locked":
                raise PermissionError(errno.EACCES, "Permission denied", path)
            return real_scandir(path)

        monkeypatch.setattr(os, "scandir", scandir)
        app, diags = parse_app_dir(as_root(tmp_path), "locked")
        assert [c.descriptor for c in app.classes] == ["Lx/A;", "Lx/C;"]
        assert diags == [
            "a/locked: unreadable: [Errno 13] Permission denied",
            "z/locked: unreadable: [Errno 13] Permission denied",
            "z/E.smali: line 2: .method f()V has no matching .end method",
        ]

    @pytest.mark.skipif(os.geteuid() == 0, reason="root can list a directory whatever its mode")
    def test_unreadable_subdirectory_for_real(self, tmp_path):
        (tmp_path / "A.smali").write_text(class_text("Lx/A;"), encoding="utf-8")
        (tmp_path / "sub").mkdir()
        (tmp_path / "sub" / "B.smali").write_text(class_text("Lx/B;"), encoding="utf-8")
        (tmp_path / "sub").chmod(0)
        try:
            app, diags = parse_app_dir(tmp_path, "locked")
        finally:
            (tmp_path / "sub").chmod(0o755)
        assert [c.descriptor for c in app.classes] == ["Lx/A;"]
        assert diags == ["sub: unreadable: [Errno 13] Permission denied"]

    def test_megabyte_const_string_kept_intact(self, tmp_path):
        value = "/sdcard/" + "x" * (1 << 20)
        text = class_text("Lx/A;", methods=[method_text("f", body=[f'    const-string v0, "{value}"'])])
        (tmp_path / "A.smali").write_text(text, encoding="utf-8")
        app, diags = parse_app_dir(tmp_path, "big")
        assert diags == []
        (string,) = app.classes[0].methods[0].body
        assert string == StringConst(value)

    def test_class_in_two_dex_directories_fails_whole_app(self, tmp_path):
        # A class in both the primary and a secondary dex directory is
        # ambiguous, so the app is not scanned rather than guessed at.
        app_dir = tmp_path / "corpus" / "multidex"
        for dex in ("smali", "smali_classes2"):
            (app_dir / dex).mkdir(parents=True)
            (app_dir / dex / "A.smali").write_text(class_text("Lx/A;"), encoding="utf-8")
        (app_dir / "smali" / "B.smali").write_text(class_text("Lx/B;"), encoding="utf-8")
        message = "class Lx/A; declared in both smali/A.smali and smali_classes2/A.smali"
        with pytest.raises(DuplicateClassError, match=re.escape(message)):
            parse_app_dir(app_dir, "multidex")
        (row,) = scan_corpus(tmp_path / "corpus", DetectorConfig()).apps
        assert row.findings == []
        assert row.diagnostics == [f"app not scanned: {message}"]

    def test_deterministic_across_runs(self, tmp_path):
        for i in range(4):
            (tmp_path / f"C{i}.smali").write_text(
                class_text(f"Lx/C{i};", methods=[method_text("f", body=["    nop"])]),
                encoding="utf-8",
            )
        first, _ = parse_app_dir(tmp_path, "det")
        second, _ = parse_app_dir(tmp_path, "det")
        assert first == second


# Lines that start like an interpreted family but fail its grammar, and lines
# that parse, repeated within and across files at different line numbers.
FAILING_LINES = [
    "if-eqz v0, :cond_0",
    "const/4 v0, 0x1",
    "invoke-virtual {v0}, Lx/A;->broken",
    "invoke-custom {v0}, call_site_0(Ljava/lang/String;)V",
    "iget v0, p0, Lx/A;->f:I",
    "check-cast v0, Ljava/lang/String;",
    "cmp-long v0, v1, v2",
    "const-string v0, unquoted",
]
REPEATED_LINES = [
    invoke_line("static", "Landroid/os/Environment;", "getExternalStorageDirectory", "()Ljava/io/File;"),
    invoke_line("static", "Lnoise/N0;", "f", "()V", "{v0}"),
    const_string_line('tab\\there \\"q\\" \\u00e9'),
    const_string_line("/sdcard/backup"),
]


def noise_classes() -> dict[str, str]:
    """Two classes, both calling ``Lnoise/N0;->f()V``, that repeat
    ``REPEATED_LINES`` after ``FAILING_LINES``, at line numbers that differ
    between the files."""
    body = ["    .locals 3", *("    " + line for line in FAILING_LINES), *REPEATED_LINES, *REPEATED_LINES]
    files = {}
    for i in range(2):
        methods = [method_text("f", body=body), method_text("g", body=REPEATED_LINES[::-1])]
        metadata = [f".field private x{j}:I" for j in range(3 * i)]
        files[f"noise/N{i}.smali"] = class_text(f"Lnoise/N{i};", methods=methods, metadata=metadata)
    return files


def method_refs(app: AppModel) -> list[MethodRef]:
    return [ref for c in app.classes for m in c.methods
            for ref in (m.key, *(ins.target for ins in m.body if isinstance(ins, Invoke)))]


def model_strings(app: AppModel) -> list[str]:
    """Every class descriptor and proto string the model holds, one entry per place."""
    return [s for c in app.classes for s in (c.descriptor, c.super_descriptor) if s] + [
        s for ref in method_refs(app) for s in (ref.class_descriptor, ref.proto)]


@pytest.fixture
def memos(monkeypatch):
    """The memo of every ``parse_class`` call ``parse_app_dir`` makes."""
    seen = []

    def spy(text, memo):
        seen.append(memo)
        return parse_class(text, memo)

    monkeypatch.setattr(smali_ir, "parse_class", spy)
    return seen


class TestAppMemo:
    def test_one_methodref_per_identity_across_files(self, tmp_path):
        g = invoke_line("static", "Lx/B;", "g", "()V")
        (tmp_path / "A.smali").write_text(
            class_text("Lx/A;", methods=[method_text("f", body=[g, "    nop", g]), method_text("h", body=[g])]),
            encoding="utf-8",
        )
        (tmp_path / "B.smali").write_text(
            class_text("Lx/B;", methods=[method_text("g"), method_text("k", body=[g])]), encoding="utf-8"
        )
        app, diags = parse_app_dir(tmp_path, "app")
        assert diags == []
        a, b = app.classes
        targets = [ins.target for m in (*a.methods, b.methods[1]) for ins in m.body]
        assert len(targets) == 4 and targets[0] == MethodRef("Lx/B;", "g", "()V")
        assert all(t is b.methods[0].key for t in targets)

    def test_two_apps_share_no_methodref(self, tmp_path):
        for app_id in ("one", "two"):
            for rel, text in noise_classes().items():
                (tmp_path / app_id / rel).parent.mkdir(parents=True, exist_ok=True)
                (tmp_path / app_id / rel).write_text(text, encoding="utf-8")
        one, _ = parse_app_dir(tmp_path / "one", "one")
        two, _ = parse_app_dir(tmp_path / "two", "two")
        assert method_refs(one) == method_refs(two)
        assert {id(r) for r in method_refs(one)}.isdisjoint(id(r) for r in method_refs(two))

    def test_standalone_parse_class_uses_a_fresh_memo(self):
        text = noise_classes()["noise/N0.smali"]
        first, second = parse_class(text), parse_class(text)
        assert first == second
        f, g = first.methods
        assert f.body[1].target is f.body[5].target is g.body[-2].target is f.key
        assert f.key is not second.methods[0].key

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_parsing_each_file_alone(self, tmp_path, memos, seed):
        if seed == 0:
            files = {f"fix/F{i}.smali": fixture.text for i, fixture in enumerate(fixture_classes())}
        else:
            app = random_instance(random.Random(seed)).app
            files = {f"{c.descriptor[1:-1]}.smali": render_class(c) for c in app.classes}
        files.update(noise_classes())
        for rel, text in files.items():
            (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / rel).write_text(text, encoding="utf-8")

        model, diags = parse_app_dir(tmp_path, "app")
        alone = [parse_class(files[rel]) for rel in sorted(files)]
        assert diags == [] and model == AppModel("app", alone)

        def lines(classes):
            return [(ins.source_line, ins) for c in classes for m in c.methods for ins in m.body]

        assert lines(model.classes) == lines(alone)  # source_line is compare=False
        # One memo for the whole app, keyed by exactly the lines that parsed and
        # the class descriptors and protos the model holds, each its one object.
        assert len(memos) == len(files) and all(memo is memos[0] for memo in memos)
        memo = memos[0]
        parsed = {files[rel].split("\n")[ins.source_line - 1].strip()
                  for rel, c in zip(sorted(files), alone) for m in c.methods for ins in m.body}
        shared = model_strings(model)
        assert {key for key in memo if isinstance(key, str)} == parsed | set(shared)
        assert parsed.isdisjoint(FAILING_LINES)
        assert all(memo[ref] is ref for ref in method_refs(model))
        assert all(memo[s] is s for s in shared)

    def test_one_string_per_descriptor_and_proto_across_files(self, tmp_path):
        files = {f"{c.descriptor[1:-1]}.smali": render_class(c)
                 for c in random_instance(random.Random(5)).app.classes}
        files.update(noise_classes())
        for rel, text in files.items():
            (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / rel).write_text(text, encoding="utf-8")
        model, diags = parse_app_dir(tmp_path, "app")
        assert diags == [] and len(model.classes) == len(files) >= 4
        owners = [s for s in model_strings(model) if s.startswith("L")]
        protos = [s for s in model_strings(model) if s.startswith("(")]
        for strings in (owners, protos):
            assert len(strings) > len(set(strings)) > 1
            assert len({id(s) for s in strings}) == len(set(strings))
