"""``perfbench/tracing.py`` patches storescan functions by the names their
callers look up. A name the program no longer has makes its span read 0
without any error, so the set of such names is pinned here: a change that
drops another patched name has to update this set, and say so."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_patched_names_missing_from_the_program():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = {attr for module, attr, *_ in tracing.PATCHES if not hasattr(module, attr)}
    assert missing == {"accumulate", "distances_within", "report_to_dict"}
