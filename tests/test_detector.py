import gc
import random
import time
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from storescan import detector
from storescan.callgraph import CallGraph, build_callgraph
from storescan.detector import ConditionSet, DetectionResult, DetectorConfig, Evidence, _covering_seeds, detect_app
from storescan.report import CorpusReport, emit_report, load_report_schema
from storescan.rules import (
    CATEGORIES,
    KeywordHit,
    MarkMemo,
    MarkSet,
    PathSourceHit,
    WriteSinkHit,
    default_ruleset,
    mark_function,
)
from storescan.smali_ir import AppModel, ClassDef, Invoke, MethodDef, MethodRef, StringConst

from appgen import random_instance
from oracle import (
    UnknownNodeError,
    accumulate,
    evidence_oracle,
    flagged_oracle,
    satisfying_seeds_oracle,
    witness_chain_oracle,
)

OWNER = "Ld/D;"

PATH_API = Invoke(
    MethodRef("Landroid/os/Environment;", "getExternalStorageDirectory", "()Ljava/io/File;"),
)
SINK = Invoke(MethodRef("Ljava/io/FileOutputStream;", "<init>", "(Ljava/lang/String;)V"))


def make_app(layout: dict[str, tuple[list, list[str]]]) -> AppModel:
    """layout: name -> (mark instructions, callee names); one class, ()V methods."""
    methods = []
    for name, (mark_ins, callees) in layout.items():
        body = list(mark_ins)
        body.extend(Invoke(MethodRef(OWNER, c, "()V")) for c in callees)
        methods.append(MethodDef(MethodRef(OWNER, name, "()V"), body))
    return AppModel("app", [ClassDef(OWNER, "Ljava/lang/Object;", methods)])


def key(name: str):
    return (OWNER, name, "()V")


def marks_for(app: AppModel):
    rules = default_ruleset()
    return {m.key: mark_function(m, MarkMemo(rules)) for cls in app.classes for m in cls.methods}


CHAIN_APP = make_app(
    {
        "main": ([PATH_API], ["helper"]),
        "helper": ([StringConst("/cache/")], ["writer"]),
        "writer": ([SINK], []),
    }
)


class TestAccumulate:
    def test_depth_one_covers_seed_only(self):
        app = make_app({"solo": ([PATH_API, StringConst("/user_log"), SINK], [])})
        g = build_callgraph(app)
        cs = accumulate(key("solo"), g, marks_for(app), depth=1)
        assert all(cs)
        assert all(e.distance == 0 for e in cs.keyword + cs.path_source + cs.write_sink)

    def test_chain_satisfied_at_depth_three(self):
        # Union over nodes within 2 hops of main: {main, helper, writer}.
        g = build_callgraph(CHAIN_APP)
        cs = accumulate(key("main"), g, marks_for(CHAIN_APP), depth=3)
        assert all(cs)
        assert [e.distance for e in cs.write_sink] == [2]

    def test_chain_not_satisfied_at_depth_two(self):
        g = build_callgraph(CHAIN_APP)
        cs = accumulate(key("main"), g, marks_for(CHAIN_APP), depth=2)
        assert not all(cs)
        assert cs.write_sink == []  # writer at distance 2 is out of range

    def test_cycle_satisfied_and_terminates(self):
        app = make_app(
            {
                "f": ([StringConst("/user_log"), PATH_API], ["g"]),
                "g": ([SINK], ["f"]),
            }
        )
        g = build_callgraph(app)
        cs = accumulate(key("f"), g, marks_for(app), depth=3)
        assert all(cs)

    def test_fresh_per_seed(self):
        g = build_callgraph(CHAIN_APP)
        marks = marks_for(CHAIN_APP)
        accumulate(key("main"), g, marks, depth=3)
        cs_writer = accumulate(key("writer"), g, marks, depth=3)
        assert not all(cs_writer)
        assert cs_writer.keyword == [] and cs_writer.path_source == []

    def test_unknown_seed(self):
        g = build_callgraph(CHAIN_APP)
        with pytest.raises(UnknownNodeError):
            accumulate(key("ghost"), g, marks_for(CHAIN_APP), depth=3)

    def test_depth_must_be_positive(self):
        g = build_callgraph(CHAIN_APP)
        with pytest.raises(ValueError):
            accumulate(key("main"), g, marks_for(CHAIN_APP), depth=0)

    def test_evidence_matches_oracle_for_every_seed(self):
        # Every seed, satisfied or not: all three evidence lists, row for row.
        # Random graphs have cycles and self-loops, and node keys do not sort
        # in index order, so the (distance, method) order is exercised; the
        # extra hits give methods several hits in one category.
        rng = random.Random(53)
        extra = [
            StringConst("/sdcard/user_log", 90),
            Invoke(MethodRef("Ljava/io/File;", "mkdirs", "()Z"), 91),
        ]
        rows = unsatisfied = multi_hit = 0
        for _ in range(40):
            inst = random_instance(rng)
            for m in (m for c in inst.app.classes for m in c.methods):
                m.body.extend(ins for ins in extra if rng.random() < 0.3)
            g = build_callgraph(inst.app)
            marks = marks_for(inst.app)
            by_name = {k[1]: k for k in marks}
            node = [by_name[f"m{i}"] for i in range(len(marks))]
            adjacency = {node[a]: [node[b] for b in bs] for a, bs in inst.adjacency.items()}
            for depth in range(1, 9):
                for seed in node:
                    cs = accumulate(seed, g, marks, depth)
                    assert cs._asdict() == evidence_oracle(adjacency, marks, seed, depth)
                    rows += sum(map(len, cs))
                    unsatisfied += not all(cs)
                    multi_hit += any(a.method == b.method for ev in cs for a, b in zip(ev, ev[1:]))
        assert rows > 20_000 and unsatisfied > 1000 and multi_hit > 1000


HITS = (
    KeywordHit("/sdcard/user_log", "user_log", 1),
    PathSourceHit("getExternalStorageDirectory", 2),
    WriteSinkHit(SINK.target, 3),
)


def int_graph(adjacency: dict[int, list[int]], category_nodes: tuple[set[int], set[int], set[int]]):
    """Call graph and marks over nodes ``0..n-1``: node ``i`` has one hit in
    category ``c`` iff ``i in category_nodes[c]``. Returns (node keys, graph, marks)."""
    node = [key(f"m{i}") for i in range(len(adjacency))]
    g = CallGraph({node[a]: [node[b] for b in bs] for a, bs in adjacency.items()})
    marks = {
        node[i]: MarkSet._make([h] if i in nodes else [] for h, nodes in zip(HITS, category_nodes))
        for i in adjacency
    }
    return node, g, marks


class CountingList(list):
    """A callee list that counts, for all such lists together, how often it is read through."""

    reads = 0

    def __iter__(self):
        CountingList.reads += 1
        return super().__iter__()


def callee_reads(g: CallGraph, marks, depth: int) -> int:
    """How many times ``_covering_seeds`` reads through one of ``g``'s callee lists."""
    saved = g.callees
    g.callees = [CountingList(callees) for callees in saved]
    CountingList.reads = 0
    try:
        _covering_seeds(g, marks, depth)
        return CountingList.reads
    finally:
        g.callees = saved


@st.composite
def adjacency_and_marks(draw):
    n = draw(st.integers(1, 12))
    nodes = st.integers(0, n - 1)
    adjacency = {i: draw(st.lists(nodes, max_size=4, unique=True)) for i in range(n)}
    category_nodes = tuple(draw(st.sets(nodes, max_size=2)) for _ in ConditionSet._fields)
    return adjacency, category_nodes


class TestCoveringSeeds:
    """The bit-vector kernel against the per-seed reference ``accumulate``
    and the networkx oracle."""

    @staticmethod
    def assert_matches_references(adjacency, category_nodes, node, g, marks, depth):
        got = _covering_seeds(g, marks, depth)
        # Seeds come in source order, which is the order of ``marks``.
        assert got == [s for s in marks if all(accumulate(s, g, marks, depth))]
        want = satisfying_seeds_oracle(adjacency, *category_nodes, depth)
        assert set(got) == {node[i] for i in want}
        return got

    def test_random_instances_match_accumulate_and_oracle(self):
        rng = random.Random(61)
        satisfied = unsatisfied = 0
        for _ in range(40):
            inst = random_instance(rng)
            g = build_callgraph(inst.app)
            marks = marks_for(inst.app)
            by_name = {k[1]: k for k in marks}
            node = [by_name[f"m{i}"] for i in range(len(marks))]
            category_nodes = (inst.kw_nodes, inst.path_nodes, inst.sink_nodes)
            for depth in range(1, 9):
                got = self.assert_matches_references(
                    inst.adjacency, category_nodes, node, g, marks, depth
                )
                satisfied += len(got)
                unsatisfied += len(g.nodes) - len(got)
        assert satisfied > 500 and unsatisfied > 500

    @given(adjacency_and_marks(), st.integers(1, 50))
    def test_generated_graphs_match_accumulate_and_oracle(self, instance, depth):
        # Cycles, self-loops and unreachable nodes all occur in the drawn maps;
        # depths reach past the longest path of a 12-node graph.
        adjacency, category_nodes = instance
        self.assert_matches_references(adjacency, category_nodes, *int_graph(*instance), depth)

    def test_chain_longer_than_depth_runs_every_round(self):
        # m0 -> m1 -> ... -> m9, one category at each of m7, m8 and m9: each
        # round moves the bits one edge further, so no round is a fixpoint.
        # The kernel still reads each callee list once, to find callers; full
        # passes over the edges would read each list depth - 1 times.
        adjacency = {i: [i + 1] for i in range(9)} | {9: []}
        category_nodes = ({7}, {8}, {9})
        node, g, marks = int_graph(adjacency, category_nodes)
        for depth, want in ((2, []), (3, [7]), (5, [5, 6, 7]), (11, range(8))):
            got = self.assert_matches_references(adjacency, category_nodes, node, g, marks, depth)
            assert got == [node[i] for i in want]
            assert callee_reads(g, marks, depth) == len(node)
        # An 8,000-method chain at depth 8,001 that every method satisfies: full
        # passes would visit 8,000 x 8,000 edges, seconds of work.
        adjacency = {i: [i + 1] for i in range(7999)} | {7999: []}
        node, g, marks = int_graph(adjacency, ({7999}, {7999}, {7999}))
        start = time.perf_counter()
        assert _covering_seeds(g, marks, 8001) == node
        assert time.perf_counter() - start < 1.0

    def test_small_cycle_stops_at_the_fixpoint(self):
        # m0 <-> m1 and a self-loop on m2: every mask is final after one round,
        # so the next round gains nothing and ends the loop, long before
        # depth - 1 rounds: at depth 10^7 those would take minutes.
        adjacency = {0: [1], 1: [0], 2: [2]}
        category_nodes = ({0, 2}, {0}, {1})
        node, g, marks = int_graph(adjacency, category_nodes)
        for depth in (2, 3, 8):
            got = self.assert_matches_references(adjacency, category_nodes, node, g, marks, depth)
            assert got == node[:2] and callee_reads(g, marks, depth) == len(node)
        start = time.perf_counter()
        assert _covering_seeds(g, marks, 10**7) == node[:2]
        assert time.perf_counter() - start < 0.5


class TestEvidenceKernel:
    """``detect_app``'s one-BFS-per-finding kernel against the per-seed
    reference ``accumulate`` and the networkx oracles."""

    @staticmethod
    def assert_matches_references(app: AppModel, depth: int) -> list:
        g = build_callgraph(app)
        marks = marks_for(app)
        adjacency = g.edges
        marked = {c: {n for n in marks if marks[n][i]} for i, c in enumerate(ConditionSet._fields)}
        findings = detect_app(app, DetectorConfig(depth=depth)).findings
        seeds = _covering_seeds(g, marks, depth)
        assert [(f.seed, f.conditions) for f in findings] == [
            (s, accumulate(s, g, marks, depth)) for s in seeds
        ]
        for f in findings:
            assert f.conditions._asdict() == evidence_oracle(adjacency, marks, f.seed, depth)
            for category, chain in f.witness_chains.items():
                assert chain == witness_chain_oracle(adjacency, f.seed, marked[category], depth)
        return findings

    def test_random_instances_match_references(self):
        # Random graphs have cycles and self-loops, and node keys do not sort
        # in index order, so ring order and ties are exercised.
        rng = random.Random(71)
        findings = multi_hop = 0
        for _ in range(40):
            inst = random_instance(rng)
            for depth in range(1, 9):
                for f in self.assert_matches_references(inst.app, depth):
                    findings += 1
                    multi_hop += any(len(chain) > 2 for chain in f.witness_chains.values())
        assert findings > 500 and multi_hop > 200

    @given(adjacency_and_marks(), st.integers(1, 8))
    def test_generated_graphs_match_references(self, instance, depth):
        # Cycles, self-loops and unreachable nodes all occur in the drawn maps.
        adjacency, category_nodes = instance
        mark_ins = (StringConst("/user_log"), PATH_API, SINK)
        app = make_app(
            {
                f"m{i}": (
                    [ins for ins, nodes in zip(mark_ins, category_nodes) if i in nodes],
                    [f"m{j}" for j in callees],
                )
                for i, callees in adjacency.items()
            }
        )
        self.assert_matches_references(app, depth)

    def test_callee_order_of_a_given_graph_does_not_matter(self):
        # A graph passed in with its callee lists reversed gives the same
        # findings, witness chains included, as the one detect_app builds.
        rng = random.Random(73)
        for _ in range(20):
            inst = random_instance(rng)
            reversed_graph = CallGraph({n: cs[::-1] for n, cs in build_callgraph(inst.app).edges.items()})
            for depth in (2, 4, 6):
                config = DetectorConfig(depth=depth)
                got = detect_app(inst.app, config, graph=reversed_graph)
                assert got == detect_app(inst.app, config)

    def test_builds_each_row_once_per_app(self, monkeypatch):
        # Every row detect_app builds is reported, and a (method, distance)'s
        # rows are built once per app however many findings report them.
        built = []

        def counting(*args):
            built.append(Evidence(*args))
            return built[-1]

        monkeypatch.setattr(detector, "Evidence", counting)
        rng = random.Random(67)
        shared = 0
        for _ in range(30):
            inst = random_instance(rng)
            built.clear()
            findings = detect_app(inst.app, DetectorConfig(depth=5)).findings
            reported = [e for f in findings for ev in f.conditions for e in ev]
            assert {id(e) for e in built} == {id(e) for e in reported}
            marks = marks_for(inst.app)
            per_row = Counter((e.method, e.distance) for e in built)
            assert all(n == sum(map(len, marks[m])) for (m, _), n in per_row.items())
            shared += len(reported) - len(built)
        assert shared > 100  # rows that more than one finding reports

    def test_depth_far_beyond_the_graph_costs_nothing_more(self):
        # The BFS stops at its first empty ring, so a depth of 10^5 on a
        # one-method app allocates nothing per unreached distance.
        app = make_app({"solo": ([PATH_API, StringConst("/user_log"), SINK], [])})
        want = detect_app(app, DetectorConfig(depth=3)).findings
        assert len(want) == 1
        tracemalloc.start()
        try:
            got = detect_app(app, DetectorConfig(depth=10**5)).findings
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < 1_000_000

    def test_a_seeds_search_costs_what_it_reaches_not_the_app(self):
        # n seeds that each call one hub holding all three categories: every
        # seed is flagged and its search reaches two methods. Linear work reads
        # about 4x from 5,000 seeds to 20,000; work proportional to the app
        # per seed would read 16x.
        def best_time(n):
            layout = {"hub": ([PATH_API, StringConst("/user_log"), SINK], [])}
            layout.update((f"s{i}", ([], ["hub"])) for i in range(n))
            app, config = make_app(layout), DetectorConfig(depth=2)
            assert len(detect_app(app, config).findings) == n + 1
            times = []
            gc.disable()
            try:
                for _ in range(5):
                    start = time.perf_counter()
                    detect_app(app, config)
                    times.append(time.perf_counter() - start)
            finally:
                gc.enable()
            return min(times)

        assert best_time(20_000) < 8 * best_time(5_000)


class TestCategories:
    def test_condition_fields_are_the_report_categories(self):
        finding = load_report_schema()["definitions"]["finding"]["properties"]
        assert list(ConditionSet._fields) == finding["categories"]["required"]
        assert list(ConditionSet._fields) == finding["witness_chains"]["required"]

    def test_mark_fields_follow_condition_fields(self):
        assert tuple(f.removesuffix("_hits") for f in MarkSet._fields) == ConditionSet._fields

    def test_one_tuple_names_the_categories(self):
        assert CATEGORIES == ConditionSet._fields == ("keyword", "path_source", "write_sink")
        assert MarkSet._fields == ("keyword_hits", "path_source_hits", "write_sink_hits")

    def test_witness_chains_in_category_order(self):
        (finding,) = detect_app(CHAIN_APP, DetectorConfig(depth=3)).findings
        assert tuple(finding.witness_chains) == ConditionSet._fields


class TestDetectApp:
    def test_empty_app(self):
        result = detect_app(AppModel("empty", []), DetectorConfig(depth=3))
        assert result.flagged is False
        assert result.findings == []

    def test_chain_app_single_finding(self):
        result = detect_app(CHAIN_APP, DetectorConfig(depth=3))
        assert result.flagged
        assert len(result.findings) == 1
        finding = result.findings[0]
        assert finding.seed == key("main")
        assert set(finding.witness_chains) == {"keyword", "path_source", "write_sink"}
        assert finding.witness_chains["keyword"] == [key("main"), key("helper")]
        assert finding.witness_chains["path_source"] == [key("main")]
        assert finding.witness_chains["write_sink"] == [key("main"), key("helper"), key("writer")]

    def test_witness_chain_prefers_lexically_smaller_path(self):
        # Two shortest chains to the sink: via "aa" and via "bb".
        app = make_app(
            {
                "seed": ([StringConst("/user_log"), PATH_API], ["bb", "aa"]),
                "aa": ([], ["sink"]),
                "bb": ([], ["sink"]),
                "sink": ([SINK], []),
            }
        )
        (finding,) = detect_app(app, DetectorConfig(depth=3)).findings
        assert finding.witness_chains["write_sink"] == [key("seed"), key("aa"), key("sink")]

    def test_witness_target_tie_breaks_on_method_identity(self):
        # Two sinks at equal distance; the lexically smaller method wins.
        app = make_app(
            {
                "seed": ([StringConst("/user_log"), PATH_API], ["za", "ab"]),
                "za": ([SINK], []),
                "ab": ([SINK], []),
            }
        )
        (finding,) = detect_app(app, DetectorConfig(depth=2)).findings
        assert finding.witness_chains["write_sink"] == [key("seed"), key("ab")]

    def test_unreachable_categories_not_flagged(self):
        app = make_app(
            {
                "a": ([StringConst("/user_log"), PATH_API], []),
                "b": ([SINK], []),
            }
        )
        assert detect_app(app, DetectorConfig(depth=3)).flagged is False

    def test_app_missing_a_category_builds_no_call_graph(self, monkeypatch):
        # No seed can cover a category that no method of the app hits.
        built = []
        real = detector.build_callgraph
        monkeypatch.setattr(detector, "build_callgraph", lambda app: built.append(app.app_id) or real(app))
        two = make_app({"a": ([StringConst("/user_log"), PATH_API], ["b"]), "b": ([StringConst("/sdcard/x")], [])})
        assert detect_app(two, DetectorConfig(depth=50)) == DetectionResult("app", [])
        assert built == []
        assert detect_app(CHAIN_APP, DetectorConfig(depth=3)).flagged and built == ["app"]

    def test_flagged_iff_findings(self):
        for app in (CHAIN_APP, AppModel("none", [])):
            result = detect_app(app, DetectorConfig(depth=3))
            assert result.flagged == bool(result.findings)

    def test_witness_chains_are_edge_paths_ending_at_evidence(self):
        rng = random.Random(11)
        rules = default_ruleset()
        for _ in range(50):
            inst = random_instance(rng)
            result = detect_app(inst.app, DetectorConfig(depth=3, rules=rules))
            edges = build_callgraph(inst.app).edges
            marks = {m.key: mark_function(m, MarkMemo(rules)) for c in inst.app.classes for m in c.methods}
            for finding in result.findings:
                for category, chain in finding.witness_chains.items():
                    assert chain[0] == finding.seed
                    for a, b in zip(chain, chain[1:]):
                        assert b in edges[a]
                    tail = marks[chain[-1]]
                    hits = {
                        "keyword": tail.keyword_hits,
                        "path_source": tail.path_source_hits,
                        "write_sink": tail.write_sink_hits,
                    }[category]
                    assert hits

    def test_witness_chains_match_oracle(self):
        # Random graphs have cycles and self-loops; node keys do not sort in
        # index order, so ties exercise the lexical choice of target and path.
        rng = random.Random(41)
        compared = multi_hop = 0
        for _ in range(60):
            inst = random_instance(rng)
            keys = [m.key for c in inst.app.classes for m in c.methods]
            by_name = {k[1]: k for k in keys}
            node = [by_name[f"m{i}"] for i in range(len(keys))]
            adjacency = {node[a]: [node[b] for b in bs] for a, bs in inst.adjacency.items()}
            marked = {
                "keyword": {node[i] for i in inst.kw_nodes},
                "path_source": {node[i] for i in inst.path_nodes},
                "write_sink": {node[i] for i in inst.sink_nodes},
            }
            for depth in range(1, 7):
                for finding in detect_app(inst.app, DetectorConfig(depth=depth)).findings:
                    for category, chain in finding.witness_chains.items():
                        want = witness_chain_oracle(adjacency, finding.seed, marked[category], depth)
                        assert chain == want
                        compared += 1
                        multi_hop += len(chain) > 2
        assert compared > 1000 and multi_hop > 100

    def test_seed_order_permutation_never_changes_verdicts(self):
        rng = random.Random(23)
        for _ in range(20):
            inst = random_instance(rng)
            g = build_callgraph(inst.app)
            rules = default_ruleset()
            marks = {m.key: mark_function(m, MarkMemo(rules)) for c in inst.app.classes for m in c.methods}
            seeds = sorted(g.nodes)
            baseline = {s for s in seeds if all(accumulate(s, g, marks, 3))}
            for _ in range(3):
                shuffled = seeds[:]
                rng.shuffle(shuffled)
                got = {s for s in shuffled if all(accumulate(s, g, marks, 3))}
                assert got == baseline
            result = detect_app(inst.app, DetectorConfig(depth=3, rules=rules))
            assert {f.seed for f in result.findings} == baseline

    def test_evidence_distances_within_depth_bound(self):
        rng = random.Random(31)
        for depth in (1, 2, 3):
            for _ in range(20):
                inst = random_instance(rng)
                result = detect_app(inst.app, DetectorConfig(depth=depth))
                for finding in result.findings:
                    cs = finding.conditions
                    for e in cs.keyword + cs.path_source + cs.write_sink:
                        assert e.distance <= depth - 1

    def test_flagged_matches_bfs_union_oracle(self):
        rng = random.Random(5)
        for _ in range(100):
            inst = random_instance(rng)
            for depth in (1, 2, 3, 4):
                got = detect_app(inst.app, DetectorConfig(depth=depth)).flagged
                want = flagged_oracle(
                    inst.adjacency, inst.kw_nodes, inst.path_nodes, inst.sink_nodes, depth
                )
                assert got == want

    def test_satisfying_seeds_match_oracle(self):
        rng = random.Random(17)
        for _ in range(50):
            inst = random_instance(rng)
            result = detect_app(inst.app, DetectorConfig(depth=3))
            got = {f.seed for f in result.findings}
            want_idx = satisfying_seeds_oracle(
                inst.adjacency, inst.kw_nodes, inst.path_nodes, inst.sink_nodes, 3
            )
            keys = [m.key for c in inst.app.classes for m in c.methods]
            by_name = {k[1]: k for k in keys}
            want = {by_name[f"m{i}"] for i in want_idx}
            assert got == want

    def test_serialization_deterministic(self):
        result = detect_app(CHAIN_APP, DetectorConfig(depth=3))
        report = CorpusReport(DetectorConfig(depth=3), [result])
        again = detect_app(CHAIN_APP, DetectorConfig(depth=3))
        report2 = CorpusReport(DetectorConfig(depth=3), [again])
        assert emit_report(report, "json") == emit_report(report2, "json")

    def test_config_rejects_bad_depth(self):
        with pytest.raises(ValueError):
            DetectorConfig(depth=0)
