"""storescan: flag Android apps that put app-private files on shared storage.

Works on disassembled (smali) app directories: parses a pragmatic subset of
the format, builds the app-internal call graph, marks methods against three
rule categories, and flags apps where one method reaches all three within a
bounded call depth.

The package root exports the documented entry points and the error types
callers catch; everything else is imported from its submodule.
"""

from .detector import DetectorConfig, detect_app
from .rules import RuleFormatError
from .smali_ir import DuplicateClassError, SmaliParseError, parse_app_dir

__all__ = [
    "DetectorConfig",
    "DuplicateClassError",
    "RuleFormatError",
    "SmaliParseError",
    "detect_app",
    "parse_app_dir",
]
