"""``perfbench/tracing.py`` patches storescan functions by the names their
callers look up. A name the program no longer has makes its span read 0
without any error, so the set of such names is pinned here: a change that
drops another patched name has to update this set, and say so. Each name the
program still has must record a span in a traced scan, so a call routed around
it fails here. Its counters also read what those functions return, so a traced
scan must still count."""

import importlib.util
from pathlib import Path

from storescan.detector import DetectorConfig

from appgen import planted_corpus, write_corpus

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_patched_names_missing_from_the_program():
    tracing = load_tracing()
    missing = {attr for module, attr, *_ in tracing.PATCHES if not hasattr(module, attr)}
    assert missing == {"accumulate", "distances_within", "report_to_dict"}


def test_every_patched_name_the_program_has_records_spans(tmp_path):
    tracing = load_tracing()
    write_corpus(tmp_path, planted_corpus(n_vulnerable=5, n_clean=6))
    tracer = tracing.Tracer()
    tracing.run_pipeline(tmp_path, DetectorConfig(), tracer)
    present = {name for module, attr, name, *_ in tracing.PATCHES if hasattr(module, attr)}
    assert present == {"smali_ir.parse_app_dir", "smali_ir.parse_class", "detector.detect_app",
                       "callgraph.build_callgraph", "rules.mark_function"}
    assert present <= {span[0] for span in tracer.spans}


def test_traced_scan_counts_methods_edges_and_marks(tmp_path):
    # _count_graph reads CallGraph.edges; _count_marks reads what mark_function returns.
    tracing = load_tracing()
    apps = planted_corpus(n_vulnerable=5, n_clean=6)
    write_corpus(tmp_path, apps)
    tracer = tracing.Tracer()
    tracing.run_pipeline(tmp_path, DetectorConfig(), tracer)
    counts = tracer.counts
    assert counts["smali_ir.methods"] == sum(text.count("\n.method ") for a in apps for text in a.files.values())
    assert counts["callgraph.edges"] > 0 and counts["rules.marked_methods"] > 0
