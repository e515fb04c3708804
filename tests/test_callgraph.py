import random

import pytest

from storescan.callgraph import (
    UnknownNodeError,
    build_callgraph,
    distances_within,
    edge_list_text,
)
from storescan.smali_ir import AppModel, ClassDef, Invoke, MethodDef, MethodRef

from appgen import random_instance
from oracle import reachable_oracle


def app_from_adjacency(adjacency: dict[str, list[str]]) -> AppModel:
    """One class, one ()V method per node; edges become invoke-static calls."""
    owner = "Lg/G;"
    methods = []
    for name in adjacency:
        body = [Invoke("static", MethodRef(owner, callee, "()V")) for callee in adjacency[name]]
        methods.append(MethodDef(owner, name, "()V", [], body))
    return AppModel("graph", [ClassDef(owner, "Ljava/lang/Object;", [], [], methods)])


def key(name: str) -> tuple[str, str, str]:
    return ("Lg/G;", name, "()V")


def reachable(g, seed, k):
    """Nodes within ``k`` call edges of ``seed``, the seed included."""
    return set(distances_within(g, seed, k))


class TestBuildCallgraph:
    def test_internal_edge_exact_triple(self):
        g = build_callgraph(app_from_adjacency({"f": ["g"], "g": []}))
        assert g.edges[key("f")] == [key("g")]

    def test_external_target_gets_no_edge(self):
        ref = MethodRef("Landroid/os/Environment;", "getExternalStorageDirectory", "()Ljava/io/File;")
        app = AppModel(
            "x",
            [
                ClassDef(
                    "La/A;",
                    "Ljava/lang/Object;",
                    methods=[MethodDef("La/A;", "f", "()V", [], [Invoke("static", ref)])],
                )
            ],
        )
        g = build_callgraph(app)
        assert g.edges[("La/A;", "f", "()V")] == []

    def test_proto_mismatch_gets_no_edge(self):
        app = AppModel(
            "x",
            [
                ClassDef(
                    "La/A;",
                    "Ljava/lang/Object;",
                    methods=[
                        MethodDef("La/A;", "f", "()V", [], [Invoke("static", MethodRef("La/A;", "g", "(I)V"))]),
                        MethodDef("La/A;", "g", "()V", [], []),
                    ],
                )
            ],
        )
        g = build_callgraph(app)
        assert g.edges[("La/A;", "f", "()V")] == []

    def test_keys_and_callees_are_method_refs(self):
        g = build_callgraph(app_from_adjacency({"f": ["g", "f"], "g": []}))
        assert all(type(k) is MethodRef for k in g.nodes)
        assert all(type(c) is MethodRef for callees in g.edges.values() for c in callees)
        assert [str(k) for k in g.nodes] == ["Lg/G;->f()V", "Lg/G;->g()V"]
        assert [str(c) for c in g.edges[key("f")]] == ["Lg/G;->g()V", "Lg/G;->f()V"]

    def test_no_invokes_means_no_edges(self):
        g = build_callgraph(app_from_adjacency({"f": [], "g": []}))
        assert g.nodes == {key("f"), key("g")}
        assert all(not callees for callees in g.edges.values())

    def test_duplicate_invokes_collapse_keeping_first_order(self):
        g = build_callgraph(app_from_adjacency({"f": ["h", "g", "h", "g"], "g": [], "h": []}))
        assert g.edges[key("f")] == [key("h"), key("g")]

    def test_every_edge_has_a_witnessing_invoke(self):
        rng = random.Random(7)
        for _ in range(20):
            inst = random_instance(rng)
            g = build_callgraph(inst.app)
            invoked = {
                (m.key, (i.target.class_descriptor, i.target.name, i.target.proto))
                for cls in inst.app.classes
                for m in cls.methods
                for i in m.body
                if isinstance(i, Invoke)
            }
            for caller, callees in g.edges.items():
                for callee in callees:
                    assert (caller, callee) in invoked


class TestReachability:
    def test_zero_hops_is_seed_only(self):
        g = build_callgraph(app_from_adjacency({"f": ["g"], "g": []}))
        assert reachable(g, key("f"), 0) == {key("f")}

    def test_chain_two_hops(self):
        # Brute-force check: f -> g -> h, two hops cover all three.
        g = build_callgraph(app_from_adjacency({"f": ["g"], "g": ["h"], "h": []}))
        assert reachable(g, key("f"), 2) == {key("f"), key("g"), key("h")}
        assert reachable(g, key("f"), 1) == {key("f"), key("g")}

    def test_cycle_terminates(self):
        g = build_callgraph(app_from_adjacency({"f": ["g"], "g": ["f"]}))
        assert reachable(g, key("f"), 5) == {key("f"), key("g")}

    def test_unknown_seed(self):
        g = build_callgraph(app_from_adjacency({"f": []}))
        # key() is a plain 3-tuple; the message still renders it as a method.
        with pytest.raises(UnknownNodeError, match=r"^unknown method Lg/G;->nope\(\)V$"):
            reachable(g, key("nope"), 1)

    def test_negative_bound_rejected(self):
        g = build_callgraph(app_from_adjacency({"f": []}))
        with pytest.raises(ValueError):
            reachable(g, key("f"), -1)

    def test_distances_are_shortest(self):
        g = build_callgraph(
            app_from_adjacency({"f": ["g", "h"], "g": ["h"], "h": []})
        )
        dist = distances_within(g, key("f"), 3)
        assert dist == {key("f"): 0, key("g"): 1, key("h"): 1}

    def test_matches_bfs_oracle_on_random_graphs(self):
        rng = random.Random(42)
        for _ in range(100):
            n = rng.randint(1, 30)
            names = [f"m{i}" for i in range(n)]
            adjacency = {name: [] for name in names}
            for _ in range(rng.randint(0, 2 * n)):
                a, b = rng.choice(names), rng.choice(names)
                if b not in adjacency[a]:
                    adjacency[a].append(b)
            g = build_callgraph(app_from_adjacency(adjacency))
            seed = rng.choice(names)
            for k in range(6):
                expected = {key(x) for x in reachable_oracle(adjacency, seed, k)}
                assert reachable(g, key(seed), k) == expected

    def test_monotone_and_fixpoint_in_k(self):
        rng = random.Random(3)
        for _ in range(50):
            n = rng.randint(1, 15)
            names = [f"m{i}" for i in range(n)]
            adjacency = {
                name: [x for x in names if rng.random() < 0.15] for name in names
            }
            g = build_callgraph(app_from_adjacency(adjacency))
            seed = key(rng.choice(names))
            prev = reachable(g, seed, 0)
            fixed_at = None
            for k in range(1, n + 3):
                cur = reachable(g, seed, k)
                assert prev <= cur
                if cur == prev and fixed_at is None:
                    fixed_at = k
                if fixed_at is not None:
                    assert cur == prev
                prev = cur


class TestEdgeListText:
    def test_sorted_tab_separated(self):
        g = build_callgraph(app_from_adjacency({"b": ["a"], "a": ["b", "a"]}))
        text = edge_list_text(g)
        lines = text.splitlines()
        assert lines == sorted(lines)
        assert lines[0] == "Lg/G;->a()V\tLg/G;->a()V"
        assert all("\t" in line for line in lines)

    def test_empty_graph(self):
        g = build_callgraph(app_from_adjacency({"a": []}))
        assert edge_list_text(g) == ""
