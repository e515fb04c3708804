import operator
import re
import string

import pytest
from hypothesis import given
from hypothesis import strategies as st

from storescan.detector import DetectorConfig
from storescan.report import scan_corpus
from storescan.smali_ir import (
    AppModel,
    ClassDef,
    DuplicateClassError,
    DuplicateMethodError,
    Invoke,
    MalformedDirectiveError,
    MethodDef,
    MethodRef,
    Opaque,
    StringConst,
    UnterminatedMethodError,
    parse_app_dir,
    parse_class,
    render_class,
)

from appgen import class_text, fixture_classes, method_text


class TestParseClass:
    def test_empty_class(self):
        cls = parse_class(".class Lcom/a/B;\n.super Ljava/lang/Object;")
        assert cls.descriptor == "Lcom/a/B;"
        assert cls.super_descriptor == "Ljava/lang/Object;"
        assert cls.methods == []

    def test_class_flags(self):
        cls = parse_class(".class public final Lcom/a/B;\n.super Ljava/lang/Object;")
        assert cls.flags == ["public", "final"]
        assert cls.descriptor == "Lcom/a/B;"

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
            "static",
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
        assert m.body == [Opaque("    new-instance v0, Ljava/io/File;")]

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
        kinds = [ins.kind for ins in m.body]
        assert kinds == ["virtual", "super", "direct", "static", "interface", "virtual"]

    def test_source_lines_are_recorded(self):
        text = ".class Lcom/a/B;\n.super Ljava/lang/Object;\n.method f()V\n    nop\n    const-string v0, \"x.y\"\n.end method\n"
        (m,) = parse_class(text).methods
        assert [ins.source_line for ins in m.body] == [4, 5]

    def test_uninterpreted_lines_are_opaque(self):
        body = ["    .locals 2", "    nop", "", "    # comment", "    :label_0"]
        text = class_text("Lcom/a/B;", methods=[method_text("f", body=body)])
        (m,) = parse_class(text).methods
        assert all(isinstance(ins, Opaque) for ins in m.body)
        assert [ins.raw_line for ins in m.body] == body

    def test_interpretation_completeness_on_fixtures(self):
        # Every invoke-*/const-string body line in a fixture is interpreted;
        # every other body line, new-instance included, stays opaque.
        for fixture in fixture_classes():
            cls = parse_class(fixture.text)
            invokes = strings = news = 0
            for m in cls.methods:
                for ins in m.body:
                    if isinstance(ins, Invoke):
                        invokes += 1
                    elif isinstance(ins, StringConst):
                        strings += 1
                    elif isinstance(ins, Opaque) and ins.raw_line.lstrip().startswith(
                        "new-instance"
                    ):
                        news += 1
            assert (invokes, strings, news) == (
                fixture.invokes,
                fixture.strings,
                fixture.new_instances,
            )

    def test_metadata_retained_verbatim(self):
        text = (
            ".class Lcom/a/B;\n"
            ".super Ljava/lang/Object;\n"
            ".implements Ljava/lang/Runnable;\n"
            ".field private x:I\n"
            "# a comment\n"
        )
        cls = parse_class(text)
        assert cls.metadata == [
            ".implements Ljava/lang/Runnable;",
            ".field private x:I",
            "# a comment",
        ]

    # Diagnostics are report bytes ("rel: message"), so their full text is pinned.

    def test_unterminated_method(self):
        with pytest.raises(UnterminatedMethodError) as exc:
            parse_class(".class Lcom/a/B;\n.method foo()V")
        assert str(exc.value) == "line 2: .method foo()V has no matching .end method"

    def test_nested_method_reports_unterminated(self):
        text = ".class La/B;\n.method f()V\n.method g()V\n.end method\n"
        with pytest.raises(UnterminatedMethodError) as exc:
            parse_class(text)
        assert str(exc.value) == "line 3: .method f()V (line 2) not closed before next .method"

    def test_malformed_class_directive_has_line(self):
        with pytest.raises(MalformedDirectiveError) as exc:
            parse_class(".class NotADescriptor\n")
        assert exc.value.line == 1
        assert str(exc.value) == "line 1: bad class descriptor 'NotADescriptor'"

    def test_missing_class_descriptor(self):
        with pytest.raises(MalformedDirectiveError) as exc:
            parse_class("# header\n.class\n")
        assert str(exc.value) == "line 2: missing class descriptor in .class"

    def test_malformed_method_signature(self):
        with pytest.raises(MalformedDirectiveError) as exc:
            parse_class(".class La/B;\n.super Ljava/lang/Object;\n.method public broken\n.end method\n")
        assert exc.value.line == 3
        assert str(exc.value) == "line 3: bad method signature 'broken'"

    def test_missing_method_signature(self):
        with pytest.raises(MalformedDirectiveError) as exc:
            parse_class(".class La/B;\n.method\n.end method\n")
        assert str(exc.value) == "line 2: missing method signature in .method"

    def test_missing_class_directive(self):
        with pytest.raises(MalformedDirectiveError):
            parse_class(".super Ljava/lang/Object;\n")

    def test_duplicate_method(self):
        text = class_text(
            "Lcom/a/B;",
            methods=[method_text("f", body=[]), method_text("f", body=[])],
        )
        with pytest.raises(DuplicateMethodError):
            parse_class(text)

    def test_same_name_different_proto_is_fine(self):
        text = class_text(
            "Lcom/a/B;",
            methods=[method_text("f", body=[]), method_text("f", proto="(I)V", body=[])],
        )
        assert len(parse_class(text).methods) == 2

    def test_stray_end_method(self):
        with pytest.raises(MalformedDirectiveError):
            parse_class(".class La/B;\n.end method\n")

    def test_owner_is_set_from_class(self):
        text = class_text("Lcom/a/B;", methods=[method_text("f", body=[])])
        cls = parse_class(text, source_file="com/a/B.smali")
        assert cls.methods[0].key.class_descriptor == "Lcom/a/B;"
        assert cls.methods[0].key == ("Lcom/a/B;", "f", "()V")
        assert cls.source_file == "com/a/B.smali"


# Strategies for whole classes. Every generated line is one the parser keeps
# as what it was made from: interpreted families parse back to their type,
# the opaque opcodes are neither invoke-*, const-string nor directives.
_IDENT = st.text(alphabet=string.ascii_letters + string.digits + "_$éж", min_size=1, max_size=6)
_CLASS_DESC = st.lists(_IDENT, min_size=1, max_size=3).map(lambda parts: "L" + "/".join(parts) + ";")
_TYPE = st.builds(operator.add, st.sampled_from(["", "["]), st.one_of(st.sampled_from("ZBSCIJFD"), _CLASS_DESC))
_PROTO = st.builds(
    lambda params, ret: f"({''.join(params)}){ret}", st.lists(_TYPE, max_size=3), st.one_of(st.just("V"), _TYPE)
)
_METHOD_NAME = st.one_of(st.sampled_from(["<init>", "<clinit>"]), _IDENT)
_INVOKE = st.builds(
    Invoke,
    st.sampled_from(["virtual", "super", "direct", "static", "interface"]),
    st.builds(MethodRef, _CLASS_DESC, _METHOD_NAME, _PROTO),
)
_SPECIAL_CHARS = '\\"\'\n\t\r\b\f\x00\x1f\x7féж€😀/._ '  # escapes, controls, non-ASCII
_STRING_CONST = st.builds(StringConst, st.one_of(st.text(), st.text(alphabet=_SPECIAL_CHARS)))
_OPAQUE = st.builds(
    lambda op, operands: Opaque(f"    {op}{operands}"),
    st.sampled_from(
        ["nop", "return-void", "return-object", "move-result-object", "const/4", "const-wide/16",
         "const-class", "new-instance", "check-cast", "iget-object", "sput", "if-eqz", "goto", "throw"]
    ),
    st.sampled_from(["", " v0", " v1, v2", " p0, La/B;->f:I", " :cond_0", " v0, 0x1"]),
)
_INSTRUCTION = st.one_of(_INVOKE, _STRING_CONST, _OPAQUE)
_METADATA = st.one_of(
    st.builds(lambda name, t: f".field private {name}:{t}", _IDENT, _TYPE),
    st.builds(lambda name: f'.source "{name}.java"', _IDENT),
    st.builds(lambda desc: f".implements {desc}", _CLASS_DESC),
    st.builds(lambda text: f"# {text}", _IDENT),
)
_CLASS_FLAGS = st.lists(st.sampled_from(["public", "final", "abstract", "interface", "synthetic", "enum"]), max_size=3)
_METHOD_FLAGS = st.lists(
    st.sampled_from(["public", "private", "static", "final", "synthetic", "bridge", "constructor", "native"]),
    max_size=3,
)


@st.composite
def class_defs(draw) -> ClassDef:
    desc = draw(_CLASS_DESC)
    signatures = draw(st.lists(st.tuples(_METHOD_NAME, _PROTO), max_size=4, unique=True))
    methods = [
        MethodDef(MethodRef(desc, name, proto), draw(_METHOD_FLAGS), draw(st.lists(_INSTRUCTION, max_size=8)))
        for name, proto in signatures
    ]
    return ClassDef(
        desc,
        draw(st.one_of(st.just(""), _CLASS_DESC)),
        draw(_CLASS_FLAGS),
        draw(st.lists(_METADATA, max_size=4)),
        methods,
    )


class TestRenderRoundTrip:
    def test_empty_class_renders_two_lines(self):
        cls = ClassDef("Lcom/a/B;", "Ljava/lang/Object;")
        assert render_class(cls) == ".class Lcom/a/B;\n.super Ljava/lang/Object;\n"

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
        text = class_text("Lcom/a/B;", methods=[method_text("f", body=["    nop"])])
        rendered = render_class(parse_class(text))
        assert "    nop" in rendered.split("\n")

    def test_roundtrip_fixture_corpus(self):
        for fixture in fixture_classes():
            first = parse_class(fixture.text, source_file="x.smali")
            second = parse_class(render_class(first), source_file="x.smali")
            assert second == first

    def test_synthetic_instructions_render(self):
        cls = ClassDef(
            "Lsyn/A;",
            "Ljava/lang/Object;",
            methods=[
                MethodDef(
                    MethodRef("Lsyn/A;", "f", "()V"),
                    ["public"],
                    [
                        Invoke("static", MethodRef("Lsyn/B;", "g", "()V")),
                        StringConst("hello.world"),
                        Opaque("    new-instance v0, Lsyn/C;"),
                        Opaque("    nop"),
                    ],
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
            methods=[MethodDef(MethodRef("Lsyn/S;", "f", "()V"), [], [StringConst(value)])],
        )
        reparsed = parse_class(render_class(cls))
        assert reparsed.methods[0].body == [StringConst(value)]

    @given(class_defs())
    def test_class_roundtrip(self, cls):
        assert parse_class(render_class(cls)) == cls


class TestParseAppDir:
    def test_empty_directory(self, tmp_path):
        app, diags = parse_app_dir(tmp_path, "empty")
        assert app == AppModel("empty", [])
        assert diags == []

    def test_two_classes_path_sorted(self, tmp_path):
        (tmp_path / "b").mkdir()
        (tmp_path / "b" / "B.smali").write_text(class_text("Lx/B;"), encoding="utf-8")
        (tmp_path / "A.smali").write_text(class_text("Lx/A;"), encoding="utf-8")
        app, diags = parse_app_dir(tmp_path, "two")
        assert [c.descriptor for c in app.classes] == ["Lx/A;", "Lx/B;"]
        assert [c.source_file for c in app.classes] == ["A.smali", "b/B.smali"]
        assert diags == []

    @pytest.mark.parametrize(
        "content, message",
        [
            (b".class Lx/B;\n.method broken()V\n", "line 2: .method broken()V has no matching"),
            (b"", "line 1: no .class directive found"),
            (b".class Lx/B;\n\xff\xfe\n", "unreadable: 'utf-8' codec can't decode"),
            (None, "unreadable: [Errno 21] Is a directory"),
        ],
        ids=["unterminated-method", "empty", "non-utf8", "directory"],
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
        assert app.classes == [parse_class(text, source_file="A.smali")]

    def test_crlf_matches_lf_twin(self, tmp_path):
        text = class_text(
            "Lx/A;",
            methods=[method_text("f", body=['    const-string v0, "/sdcard/log"', "    nop"])],
            metadata=[".field private x:I"],
        )
        apps = {}
        for name, newline in (("lf", "\n"), ("crlf", "\r\n")):
            (tmp_path / name).mkdir()
            (tmp_path / name / "A.smali").write_bytes(text.replace("\n", newline).encode("utf-8"))
            app, diags = parse_app_dir(tmp_path / name, "app")
            assert diags == []
            apps[name] = app
        assert apps["crlf"] == apps["lf"]

        def source_lines(app):
            return [ins.source_line for c in app.classes for m in c.methods for ins in m.body]

        assert source_lines(apps["crlf"]) == source_lines(apps["lf"])

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

    def test_directory_symlink_loop_not_followed(self, tmp_path):
        (tmp_path / "smali").mkdir()
        (tmp_path / "smali" / "A.smali").write_text(class_text("Lx/A;"), encoding="utf-8")
        (tmp_path / "smali" / "loop").symlink_to(tmp_path, target_is_directory=True)
        app, diags = parse_app_dir(tmp_path, "loop")
        assert [c.source_file for c in app.classes] == ["smali/A.smali"]
        assert diags == []

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
