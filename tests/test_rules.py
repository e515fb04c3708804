from dataclasses import fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from storescan.rules import (
    RuleFormatError,
    RuleSet,
    default_ruleset,
    load_ruleset,
    mark_function,
    match_keyword,
    ruleset_digest,
)
from storescan.smali_ir import Invoke, MethodDef, MethodRef, Opaque, StringConst, parse_class

from appgen import class_text, method_text


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
    return MethodDef(MethodRef("La/A;", "f", "()V"), [], body)


class TestMarkFunction:
    def test_path_api_invoke(self):
        m = method_with([
            Invoke("static", MethodRef("Landroid/os/Environment;", "getExternalStorageDirectory", "()Ljava/io/File;"), 5)
        ])
        marks = mark_function(m, default_ruleset())
        assert [h.evidence for h in marks.path_source_hits] == ["getExternalStorageDirectory"]
        assert marks.path_source_hits[0].line == 5
        assert marks.keyword_hits == [] and marks.write_sink_hits == []

    def test_path_api_matched_on_any_class(self):
        m = method_with([
            Invoke("virtual", MethodRef("Lcom/app/MyActivity;", "getExternalFilesDir", "(Ljava/lang/String;)Ljava/io/File;"), 2)
        ])
        marks = mark_function(m, default_ruleset())
        assert len(marks.path_source_hits) == 1

    def test_hardcoded_path_string(self):
        m = method_with([StringConst("/sdcard/foo", 3)])
        marks = mark_function(m, default_ruleset())
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
        marks = mark_function(m, default_ruleset())
        assert bool(marks.path_source_hits) == hits

    def test_empty_method(self):
        marks = mark_function(method_with([]), default_ruleset())
        assert marks.keyword_hits == []
        assert marks.path_source_hits == []
        assert marks.write_sink_hits == []

    def test_mkdir_and_keyword_string(self):
        m = method_with([
            Invoke("virtual", MethodRef("Ljava/io/File;", "mkdir", "()Z"), 4),
            StringConst("/Yixin/log/", 6),
        ])
        marks = mark_function(m, default_ruleset())
        assert len(marks.write_sink_hits) == 1
        assert marks.keyword_hits == [("/Yixin/log/", "log", 6)]

    def test_fileoutputstream_init_is_sink(self):
        m = method_with([
            Invoke("direct", MethodRef("Ljava/io/FileOutputStream;", "<init>", "(Ljava/lang/String;)V"), 9)
        ])
        marks = mark_function(m, default_ruleset())
        assert marks.write_sink_hits[0].line == 9

    def test_other_init_is_not_sink(self):
        m = method_with([
            Invoke("direct", MethodRef("Ljava/lang/StringBuilder;", "<init>", "()V"), 1)
        ])
        assert mark_function(m, default_ruleset()).write_sink_hits == []

    def test_multiple_keywords_in_one_string(self):
        m = method_with([StringConst("/cache/user_log", 2)])
        marks = mark_function(m, default_ruleset())
        assert [(h.keyword) for h in marks.keyword_hits] == ["log", "cache"]

    def test_malformed_unicode_escape_is_no_keyword(self):
        # "\u+06c" is not an escape, so the string holds no "log" token.
        line = '    const-string v0, "/sdcard/\\u+06cog"'
        (m,) = parse_class(class_text("La/B;", methods=[method_text("f", body=[line])])).methods
        marks = mark_function(m, default_ruleset())
        assert marks.keyword_hits == []
        assert [h.evidence for h in marks.path_source_hits] == ["/sdcard/\\u+06cog"]

    def test_opaque_lines_never_match(self):
        m = method_with([Opaque('    const-string v0 "/user_log"', 1)])  # malformed, stays opaque
        marks = mark_function(m, default_ruleset())
        assert marks.keyword_hits == []

    def test_evidence_lines_point_at_matching_instruction(self):
        m = method_with([
            StringConst("/sdcard/user_log", 11),
            Invoke("virtual", MethodRef("Ljava/io/File;", "mkdirs", "()Z"), 12),
        ])
        marks = mark_function(m, default_ruleset())
        by_line = {ins.source_line: ins for ins in m.body}
        for h in marks.keyword_hits:
            assert by_line[h.line].value == h.value
        for h in marks.path_source_hits:
            assert by_line[h.line].value == h.evidence
        for h in marks.write_sink_hits:
            assert by_line[h.line].target == h.target


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
        f.write_text("".join(f"[{field.name}]\n" for field in fields(RuleSet)), encoding="utf-8")
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
