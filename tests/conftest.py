import os
from pathlib import Path

import pytest

from storescan.report import load_report_schema  # noqa: F401  (shared by test modules)

from appgen import class_text, const_string_line, method_text

SRC = Path(__file__).resolve().parent.parent / "src"


def cli_env() -> dict[str, str]:
    """Environment for a ``python -m storescan`` child that imports this checkout."""
    inherited = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), inherited]))}


VULN_CLASS = class_text(
    "Lfx/Vuln;",
    methods=[
        method_text(
            "run",
            body=[
                "    .locals 3",
                const_string_line("/sdcard/user_log"),
                "    new-instance v1, Ljava/io/FileOutputStream;",
                "    invoke-direct {v1, v0}, Ljava/io/FileOutputStream;-><init>(Ljava/lang/String;)V",
                "    return-void",
            ],
        )
    ],
)

CLEAN_CLASS = class_text(
    "Lfx/Clean;",
    methods=[
        method_text(
            "run",
            body=[
                "    .locals 1",
                const_string_line("/alpha/bravo"),
                "    return-void",
            ],
        )
    ],
)

PATH_ONLY_CLASS = class_text(
    "Lfx/PathOnly;",
    methods=[
        method_text(
            "run",
            body=[
                "    invoke-static {}, Landroid/os/Environment;->getExternalStorageDirectory()Ljava/io/File;",
                "    return-void",
            ],
        )
    ],
)


@pytest.fixture
def three_app_corpus(tmp_path):
    """Three parseable apps, exactly one of which is vulnerable."""
    root = tmp_path / "corpus"
    (root / "app_bad").mkdir(parents=True)
    (root / "app_bad" / "Vuln.smali").write_text(VULN_CLASS, encoding="utf-8")
    (root / "app_ok1").mkdir()
    (root / "app_ok1" / "Clean.smali").write_text(CLEAN_CLASS, encoding="utf-8")
    (root / "app_ok2").mkdir()
    (root / "app_ok2" / "PathOnly.smali").write_text(PATH_ONLY_CLASS, encoding="utf-8")
    return root
