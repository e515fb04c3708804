import pytest

import storescan
from storescan import detector, rules, smali_ir


def test_public_api_is_entry_points_and_error_types():
    expected = {
        "DetectorConfig": detector.DetectorConfig,
        "detect_app": detector.detect_app,
        "parse_app_dir": smali_ir.parse_app_dir,
        "SmaliParseError": smali_ir.SmaliParseError,
        "DuplicateClassError": smali_ir.DuplicateClassError,
        "RuleFormatError": rules.RuleFormatError,
    }
    assert sorted(storescan.__all__) == sorted(expected)
    for name, obj in expected.items():
        assert getattr(storescan, name) is obj


class TestRecords:
    """The model and result records are plain classes; they keep what the
    dataclasses they replaced gave."""

    REF = smali_ir.MethodRef("La;", "m", "()V")

    def test_positional_and_keyword_construction(self):
        assert smali_ir.Invoke(self.REF, 4) == smali_ir.Invoke(target=self.REF, source_line=4)
        assert smali_ir.ClassDef("La;", "Lb;", []) == smali_ir.ClassDef(descriptor="La;", super_descriptor="Lb;")
        assert detector.DetectionResult("a", [], ["d"]).diagnostics == ["d"]

    def test_records_of_different_types_never_compare_equal(self):
        assert smali_ir.AppModel("a", []) != detector.DetectionResult("a", [])
        assert detector.DetectionResult("a", []) != smali_ir.AppModel("a", [])
        assert smali_ir.StringConst("x") != ("x",)
        assert smali_ir.AppModel("a", []) == smali_ir.AppModel("a")
        assert smali_ir.AppModel("a", []) != smali_ir.AppModel("b", [])

    def test_source_line_is_left_out_of_equality_and_shown_in_repr(self):
        assert smali_ir.Invoke(self.REF, 3) == smali_ir.Invoke(self.REF, 9)
        assert smali_ir.Invoke(self.REF, 3) != smali_ir.Invoke(self.REF._replace(name="n"), 3)
        assert smali_ir.StringConst("x", 3) == smali_ir.StringConst("x", 9) != smali_ir.StringConst("y", 3)
        assert repr(smali_ir.StringConst("x", 3)) == "StringConst(value='x', source_line=3)"
        assert repr(smali_ir.Invoke(self.REF, 3)) == (
            "Invoke(target=MethodRef(class_descriptor='La;', name='m', proto='()V'), source_line=3)"
        )

    def test_omitted_lists_and_rules_are_fresh_each_time(self):
        first, second = smali_ir.MethodDef(self.REF), smali_ir.MethodDef(self.REF)
        assert first.body == [] and first.body is not second.body
        assert smali_ir.ClassDef("La;").methods is not smali_ir.ClassDef("La;").methods
        assert smali_ir.AppModel("a").classes is not smali_ir.AppModel("a").classes
        result = detector.DetectionResult("a")
        assert result.findings == result.diagnostics == [] and result.findings is not result.diagnostics
        config, again = detector.DetectorConfig(), detector.DetectorConfig()
        assert config.rules == rules.default_ruleset() and config.rules is not again.rules
        assert config.rules.keywords is not again.rules.keywords
        assert config == again and (config.depth, detector.DetectorConfig.depth) == (3, 3)

    def test_config_depth_below_one_raises(self):
        with pytest.raises(ValueError, match="depth must be >= 1"):
            detector.DetectorConfig(depth=0)

    def test_records_are_unhashable(self):
        for record in (smali_ir.StringConst("x"), detector.DetectorConfig(), rules.default_ruleset()):
            with pytest.raises(TypeError):
                hash(record)
