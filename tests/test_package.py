import storescan
from storescan import callgraph, detector, rules, smali_ir


def test_public_api_is_entry_points_and_error_types():
    expected = {
        "DetectorConfig": detector.DetectorConfig,
        "detect_app": detector.detect_app,
        "parse_app_dir": smali_ir.parse_app_dir,
        "SmaliParseError": smali_ir.SmaliParseError,
        "DuplicateClassError": smali_ir.DuplicateClassError,
        "RuleFormatError": rules.RuleFormatError,
        "UnknownNodeError": callgraph.UnknownNodeError,
    }
    assert sorted(storescan.__all__) == sorted(expected)
    for name, obj in expected.items():
        assert getattr(storescan, name) is obj
