import re
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from storescan import detector as detector_module
from storescan import rules as rules_module
from storescan.detector import DetectorConfig, detect_app
from storescan.rules import (
    MarkMemo,
    RuleFormatError,
    RuleSet,
    default_ruleset,
    load_ruleset,
    mark_function,
    match_keyword,
    ruleset_digest,
)
from storescan.smali_ir import AppModel, ClassDef, Invoke, MethodDef, MethodRef, StringConst, parse_class

from appgen import KEYWORD_STRINGS, PATH_API_CALLS, SAFE_STRINGS, SDCARD_STRINGS, class_text, method_text


class TestDefaultRuleset:
    def test_keywords_exact(self):
        assert default_ruleset().keywords == [
            "log", "cache", "files", "file", "data", "temp",
            "tmp", "account", "meta", "uid", "history",
        ]

    def test_uid_present(self):
        assert "uid" in default_ruleset().keywords

    def test_path_api_names_exact(self):
        assert default_ruleset().path_apis == [
            "getExternalStorageDirectory",
            "getExternalStoragePublicDirectory",
            "getExternalFilesDir",
            "getExternalFilesDirs",
            "getExternalCacheDir",
            "getExternalCacheDirs",
        ]

    def test_hardcoded_prefixes_exact(self):
        assert default_ruleset().hardcoded_paths == ["/sdcard", "/sdcard0", "/sdcard1"]

    def test_write_sinks(self):
        sinks = default_ruleset().write_sinks
        assert ("Ljava/io/FileOutputStream;", "<init>") in sinks
        assert ("Ljava/io/File;", "mkdir") in sinks
        assert ("Ljava/io/File;", "mkdirs") in sinks

    def test_invariants_enforced(self):
        with pytest.raises(RuleFormatError, match=r"^duplicate entry in keywords$"):
            RuleSet(["log", "log"], [], [], [])
        with pytest.raises(RuleFormatError, match=r"^keywords must be lowercase$"):
            RuleSet(["LOG"], [], [], [])
        with pytest.raises(RuleFormatError, match=r"^empty entry in keywords$"):
            RuleSet([""], [], [], [])
        with pytest.raises(RuleFormatError, match=r"^bad write_sink entry \('La;', ''\)$"):
            RuleSet([], [], [], [("La;", "")])
        with pytest.raises(RuleFormatError, match=r"^bad write_sink entry \['La;', 'b'\]$"):
            RuleSet([], [], [], [["La;", "b"]])
        with pytest.raises(RuleFormatError, match=r"^bad write_sink entry \('La;', 1\)$"):
            RuleSet([], [], [], [("La;", 1)])

    def test_first_fault_in_section_order_wins(self):
        # Keywords come before write sinks, so the duplicate keyword is named.
        with pytest.raises(RuleFormatError, match=r"^duplicate entry in keywords$"):
            RuleSet(["log", "log"], [], [], [("La;", "")])
        with pytest.raises(RuleFormatError, match=r"^empty entry in path_apis$"):
            RuleSet(["LOG"], [""], [], [])
        with pytest.raises(RuleFormatError, match=r"^keywords must be lowercase$"):
            RuleSet(["LOG"], [], [], [("La;", "")])


    def test_unmatchable_keyword_rejected(self):
        with pytest.raises(RuleFormatError, match=r"^keyword 'my\.log' can never match: it contains "):
            RuleSet(["log", "my.log"], [], [], [])
        for kw in ["a/b", "a\\b", "a_b", "a-b", "a b"]:
            with pytest.raises(RuleFormatError, match="can never match"):
                RuleSet([kw], [], [], [])

    def test_hardcoded_path_with_trailing_slash_rejected(self, tmp_path):
        # A match appends "/" to the entry, so "/sdcard/" would only ever match itself.
        message = r"^hardcoded path '/sdcard/' only matches itself: drop the trailing /$"
        with pytest.raises(RuleFormatError, match=message):
            RuleSet([], [], ["/mnt/sdcard", "/sdcard/"], [])
        with pytest.raises(RuleFormatError, match=r"^hardcoded path '/' only matches itself"):
            RuleSet([], [], ["/"], [])
        with pytest.raises(RuleFormatError, match=r"^empty entry in hardcoded_paths$"):
            RuleSet([], [], ["/sdcard/", ""], [])
        path = tmp_path / "rules.txt"
        path.write_text("[hardcoded_paths]\n/sdcard/\n", encoding="utf-8")
        with pytest.raises(RuleFormatError, match=message):
            load_ruleset(path)

    @pytest.mark.parametrize("name", ["getExternalStorageDirectory()", "get Dir", "get\tDir", "a.get",
                                      "get;", "get[", "java/get"])
    def test_unmatchable_path_api_rejected(self, tmp_path, name):
        # The invoke grammar reads a method name as [^\s(]+, and no dex method name holds . ; [ or /.
        message = rf"^path API {re.escape(repr(name))} can never match: a method name holds no whitespace"
        with pytest.raises(RuleFormatError, match=message):
            RuleSet([], ["getExternalCacheDir", name], [], [])
        f = tmp_path / "rules.txt"
        f.write_text(f"[path_apis]\n{name}\n", encoding="utf-8")
        with pytest.raises(RuleFormatError, match=message):
            load_ruleset(f)

    @pytest.mark.parametrize("entry, message", [
        ("java.io.File::mkdirs", r"^write_sink class 'java\.io\.File' can never match: expected a descriptor"),
        ("Ljava/io/File::mkdirs", r"^write_sink class 'Ljava/io/File' can never match"),
        ("Ljava/io/File;x;::mkdirs", r"^write_sink class 'Ljava/io/File;x;' can never match"),
        ("La b;::mkdirs", r"^write_sink class 'La b;' can never match"),
        ("La->b;::mkdirs", r"^write_sink class 'La->b;' can never match"),
        ("Ljava/io/File;::mkdirs (boolean)", r"^write_sink method 'mkdirs \(boolean\)' can never match"),
        ("Ljava/io/File;::mkdirs()Z", r"^write_sink method 'mkdirs\(\)Z' can never match"),
        ("Ljava/io/File;::File.mkdirs", r"^write_sink method 'File\.mkdirs' can never match"),
    ])
    def test_unmatchable_write_sink_rejected(self, tmp_path, entry, message):
        cls, _, name = entry.partition("::")
        with pytest.raises(RuleFormatError, match=message):
            RuleSet([], [], [], [("Ljava/io/File;", "mkdir"), (cls, name)])
        f = tmp_path / "rules.txt"
        f.write_text(f"[write_sinks]\nLjava/io/File;::mkdir\n{entry}\n", encoding="utf-8")
        with pytest.raises(RuleFormatError, match=message):
            load_ruleset(f)

    def test_constructor_and_dashed_names_accepted(self):
        sinks = [("Ljava/io/RandomAccessFile;", "<init>"), ("La-b;", "<clinit>"), ("La$1;", "access$000")]
        assert RuleSet([], ["get-x$y"], [], sinks).write_sinks == sinks


class TestMatchKeyword:
    @pytest.mark.parametrize(
        "s,expected",
        [
            ("/user_log", ["log"]),
            ("user.log", ["log"]),
            ("/log", ["log"]),
            ("user_log.txt", ["log"]),
            ("catalog.txt", []),
            ("blog.html", []),
            ("dialogue/", []),
            ("log", []),  # no '/' or '.', not path-like
            ("", []),
        ],
    )
    def test_golden_table(self, s, expected):
        assert match_keyword(s, default_ruleset().keywords) == expected

    def test_all_delimiters(self):
        kws = default_ruleset().keywords
        assert match_keyword("a/log", kws) == ["log"]
        assert match_keyword("a\\log.x", kws) == ["log"]
        assert match_keyword("a_log/", kws) == ["log"]
        assert match_keyword("a-log/", kws) == ["log"]
        assert match_keyword("a log/", kws) == ["log"]

    def test_results_in_keyword_list_order_and_deduped(self):
        kws = default_ruleset().keywords
        assert match_keyword("/cache/log/cache.log", kws) == ["log", "cache"]

    def test_case_insensitive(self):
        kws = default_ruleset().keywords
        assert match_keyword("/User_LOG", kws) == ["log"]

    @given(st.text())
    def test_case_insensitivity_property(self, s):
        kws = default_ruleset().keywords
        assert match_keyword(s.upper(), kws) == match_keyword(s, kws)

    @given(st.text())
    def test_output_subset_of_keywords(self, s):
        kws = default_ruleset().keywords
        result = match_keyword(s, kws)
        assert set(result) <= set(kws)
        assert match_keyword(s, kws) == result  # pure


def method_with(body) -> MethodDef:
    return MethodDef(MethodRef("La/A;", "f", "()V"), body)


class TestMarkFunction:
    def test_path_api_invoke(self):
        m = method_with([
            Invoke("static", MethodRef("Landroid/os/Environment;", "getExternalStorageDirectory", "()Ljava/io/File;"), 5)
        ])
        marks = mark_function(m, MarkMemo(default_ruleset()))
        assert [h.evidence for h in marks.path_source_hits] == ["getExternalStorageDirectory"]
        assert marks.path_source_hits[0].line == 5
        assert marks.keyword_hits == [] and marks.write_sink_hits == []

    def test_path_api_matched_on_any_class(self):
        m = method_with([
            Invoke("virtual", MethodRef("Lcom/app/MyActivity;", "getExternalFilesDir", "(Ljava/lang/String;)Ljava/io/File;"), 2)
        ])
        marks = mark_function(m, MarkMemo(default_ruleset()))
        assert len(marks.path_source_hits) == 1

    def test_hardcoded_path_string(self):
        m = method_with([StringConst("/sdcard/foo", 3)])
        marks = mark_function(m, MarkMemo(default_ruleset()))
        assert [h.evidence for h in marks.path_source_hits] == ["/sdcard/foo"]

    @pytest.mark.parametrize(
        "value,hits",
        [
            ("/sdcard", True),
            ("/sdcard/", True),
            ("/sdcard/x", True),
            ("/sdcard0/x", True),
            ("/sdcard1", True),
            ("/sdcards/x", False),
            ("/sdcardx", False),
            ("x/sdcard", False),
        ],
    )
    def test_prefix_boundary(self, value, hits):
        m = method_with([StringConst(value, 1)])
        marks = mark_function(m, MarkMemo(default_ruleset()))
        assert bool(marks.path_source_hits) == hits

    def test_empty_method(self):
        marks = mark_function(method_with([]), MarkMemo(default_ruleset()))
        assert marks.keyword_hits == []
        assert marks.path_source_hits == []
        assert marks.write_sink_hits == []

    def test_mkdir_and_keyword_string(self):
        m = method_with([
            Invoke("virtual", MethodRef("Ljava/io/File;", "mkdir", "()Z"), 4),
            StringConst("/Yixin/log/", 6),
        ])
        marks = mark_function(m, MarkMemo(default_ruleset()))
        assert len(marks.write_sink_hits) == 1
        assert marks.keyword_hits == [("/Yixin/log/", "log", 6)]

    def test_fileoutputstream_init_is_sink(self):
        m = method_with([
            Invoke("direct", MethodRef("Ljava/io/FileOutputStream;", "<init>", "(Ljava/lang/String;)V"), 9)
        ])
        marks = mark_function(m, MarkMemo(default_ruleset()))
        assert marks.write_sink_hits[0].line == 9

    def test_other_init_is_not_sink(self):
        m = method_with([
            Invoke("direct", MethodRef("Ljava/lang/StringBuilder;", "<init>", "()V"), 1)
        ])
        assert mark_function(m, MarkMemo(default_ruleset())).write_sink_hits == []

    def test_multiple_keywords_in_one_string(self):
        m = method_with([StringConst("/cache/user_log", 2)])
        marks = mark_function(m, MarkMemo(default_ruleset()))
        assert [(h.keyword) for h in marks.keyword_hits] == ["log", "cache"]

    def test_malformed_unicode_escape_is_no_keyword(self):
        # "\u+06c" is not an escape, so the string holds no "log" token.
        line = '    const-string v0, "/sdcard/\\u+06cog"'
        (m,) = parse_class(class_text("La/B;", methods=[method_text("f", body=[line])])).methods
        marks = mark_function(m, MarkMemo(default_ruleset()))
        assert marks.keyword_hits == []
        assert [h.evidence for h in marks.path_source_hits] == ["/sdcard/\\u+06cog"]

    def test_opaque_lines_never_match(self):
        line = '    const-string v0 "/user_log"'  # malformed: no comma, so not a string constant
        (m,) = parse_class(class_text("La/B;", methods=[method_text("f", body=[line])])).methods
        marks = mark_function(m, MarkMemo(default_ruleset()))
        assert marks.keyword_hits == []

    def test_evidence_lines_point_at_matching_instruction(self):
        m = method_with([
            StringConst("/sdcard/user_log", 11),
            Invoke("virtual", MethodRef("Ljava/io/File;", "mkdirs", "()Z"), 12),
        ])
        marks = mark_function(m, MarkMemo(default_ruleset()))
        by_line = {ins.source_line: ins for ins in m.body}
        for h in marks.keyword_hits:
            assert by_line[h.line].value == h.value
        for h in marks.path_source_hits:
            assert by_line[h.line].value == h.evidence
        for h in marks.write_sink_hits:
            assert by_line[h.line].target == h.target


def app_of(app_id: str, bodies: list[list]) -> AppModel:
    methods = [MethodDef(MethodRef("La/A;", f"f{i}", "()V"), body) for i, body in enumerate(bodies)]
    return AppModel(app_id, [ClassDef("La/A;", methods=methods)])


# Constants and invoke targets that hit each rule, and ones that hit none.
constants = st.sampled_from(KEYWORD_STRINGS + SDCARD_STRINGS + SAFE_STRINGS + ["/sdcards/log", "/sdcard/"]) | st.text()
targets = st.sampled_from(
    [MethodRef(cls, name, proto) for _, cls, name, proto in PATH_API_CALLS]
    + [MethodRef("Ljava/io/File;", "mkdirs", "()Z"), MethodRef("Lx/File;", "mkdirs", "()Z"),
       MethodRef("Ljava/io/FileOutputStream;", "<init>", "(Ljava/lang/String;)V")]
)
instructions = st.builds(StringConst, constants, st.integers(1, 99)) | st.builds(
    Invoke, st.just("virtual"), targets, st.integers(1, 99))


class TestMarkMemo:
    """``detect_app`` marks each app's methods with one ``MarkMemo``, which keeps
    each distinct string constant's match for that app only."""

    def test_match_keyword_runs_once_per_distinct_constant_per_app(self, monkeypatch):
        calls = []
        real = rules_module.match_keyword

        def counting(s, keywords):
            calls.append(s)
            return real(s, keywords)

        monkeypatch.setattr(rules_module, "match_keyword", counting)
        values = ["/user_log", "/sdcard/a", "/user_log", "plain", "/sdcard/a"]
        body = [StringConst(v, line) for line, v in enumerate(values, 1)]
        for app_id in ("one", "two"):
            result = detect_app(app_of(app_id, [body, body[::-1], body[:2]]), DetectorConfig())
            assert result.findings == []  # no write sink
        assert Counter(calls) == {"/user_log": 2, "/sdcard/a": 2, "plain": 2}

    def test_two_apps_share_no_memo(self, monkeypatch):
        memos = []  # holds every memo, so no two can share an id

        def recording(m, memo):
            memos.append(memo)
            return mark_function(m, memo)

        monkeypatch.setattr(detector_module, "mark_function", recording)
        body = [StringConst("/user_log", 1)]
        detect_app(app_of("one", [body, body]), DetectorConfig())
        detect_app(app_of("two", [body]), DetectorConfig())
        first, again, second = memos
        assert isinstance(first, MarkMemo) and first is again and second is not first
        assert list(second.strings) == ["/user_log"]

    @given(st.lists(st.lists(instructions, max_size=8), max_size=6))
    def test_one_memo_per_app_equals_a_fresh_memo_per_method(self, bodies):
        rules = default_ruleset()
        memo = MarkMemo(rules)
        methods = app_of("a", bodies).classes[0].methods
        assert [mark_function(m, memo) for m in methods] == [mark_function(m, MarkMemo(rules)) for m in methods]


class TestLoadRuleset:
    def test_keywords_only_inherits_rest(self, tmp_path):
        f = tmp_path / "rules.txt"
        f.write_text("[keywords]\nsecret\n", encoding="utf-8")
        rs = load_ruleset(f)
        assert rs.keywords == ["secret"]
        assert rs.path_apis == default_ruleset().path_apis
        assert rs.hardcoded_paths == default_ruleset().hardcoded_paths
        assert rs.write_sinks == default_ruleset().write_sinks

    def test_empty_file_is_defaults(self, tmp_path):
        f = tmp_path / "rules.txt"
        f.write_text("", encoding="utf-8")
        assert load_ruleset(f) == default_ruleset()

    def test_comments_and_blanks_ignored(self, tmp_path):
        f = tmp_path / "rules.txt"
        f.write_text("# header\n\n[keywords]\n# note\nsecret\n\n", encoding="utf-8")
        assert load_ruleset(f).keywords == ["secret"]

    def test_duplicate_keyword_rejected(self, tmp_path):
        f = tmp_path / "rules.txt"
        f.write_text("[keywords]\nsecret\nsecret\n", encoding="utf-8")
        with pytest.raises(RuleFormatError):
            load_ruleset(f)

    def test_unknown_section_rejected(self, tmp_path):
        f = tmp_path / "rules.txt"
        f.write_text("[nonsense]\nx\n", encoding="utf-8")
        with pytest.raises(RuleFormatError):
            load_ruleset(f)

    def test_entry_before_section_rejected(self, tmp_path):
        f = tmp_path / "rules.txt"
        f.write_text("secret\n", encoding="utf-8")
        with pytest.raises(RuleFormatError):
            load_ruleset(f)

    def test_write_sink_entries(self, tmp_path):
        f = tmp_path / "rules.txt"
        f.write_text("[write_sinks]\nLjava/io/RandomAccessFile;::<init>\n", encoding="utf-8")
        assert load_ruleset(f).write_sinks == [("Ljava/io/RandomAccessFile;", "<init>")]

    def test_bad_write_sink_entry(self, tmp_path):
        f = tmp_path / "rules.txt"
        f.write_text("[write_sinks]\nLjava/io/File;mkdir\n", encoding="utf-8")
        with pytest.raises(RuleFormatError):
            load_ruleset(f)

    def test_keywords_normalized_to_lowercase(self, tmp_path):
        f = tmp_path / "rules.txt"
        f.write_text("[keywords]\nSeCreT\n", encoding="utf-8")
        assert load_ruleset(f).keywords == ["secret"]

    def test_every_field_is_a_section(self, tmp_path):
        f = tmp_path / "rules.txt"
        f.write_text("".join(f"[{name}]\n" for name in RuleSet._fields), encoding="utf-8")
        assert load_ruleset(f) == RuleSet([], [], [], [])

    def test_utf8_bom_is_skipped(self, tmp_path):
        text = "[keywords]\nsecret\n[write_sinks]\nLjava/io/File;::mkdir\n"
        plain, bom = tmp_path / "plain.txt", tmp_path / "bom.txt"
        plain.write_text(text, encoding="utf-8")
        bom.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        assert ruleset_digest(load_ruleset(bom)) == ruleset_digest(load_ruleset(plain))
        assert load_ruleset(bom).keywords == ["secret"]

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_ruleset(tmp_path / "missing.txt")


class TestDigest:
    def test_default_digest_pinned(self):
        assert ruleset_digest(default_ruleset()) == (
            "e57dd783624643bb3a052d9b45263b6b8d6337d346ffb40adf5c731fed770cd8"
        )

    def test_loaded_digest_pinned(self, tmp_path):
        # Sections out of file order and mixed-case keywords: the digest sees
        # the effective ruleset, so neither changes it.
        f = tmp_path / "rules.txt"
        f.write_text(
            "[write_sinks]\nLjava/io/RandomAccessFile;::<init>\n"
            "[hardcoded_paths]\n/mnt/sdcard\n"
            "[keywords]\nSeCreT\nToken\n",
            encoding="utf-8",
        )
        assert ruleset_digest(load_ruleset(f)) == (
            "bdfb29c1bdb2957af9c6c94391227c7460b4405c6b7bf6e6f17198feb91cc8bc"
        )
        g = tmp_path / "ordered.txt"
        g.write_text(
            "[keywords]\nsecret\ntoken\n"
            "[hardcoded_paths]\n/mnt/sdcard\n"
            "[write_sinks]\nLjava/io/RandomAccessFile;::<init>\n",
            encoding="utf-8",
        )
        assert ruleset_digest(load_ruleset(g)) == ruleset_digest(load_ruleset(f))

    def test_stable_and_order_sensitive(self):
        a = ruleset_digest(default_ruleset())
        assert a == ruleset_digest(default_ruleset())
        assert len(a) == 64
        custom = default_ruleset()
        custom.keywords = list(reversed(custom.keywords))
        assert ruleset_digest(custom) != a
