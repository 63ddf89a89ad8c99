import importlib
import itertools
import random
import re

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from almostplanar.classify import (
    GATE_ALMOST_PLANAR,
    GATE_NOT_3_CONNECTED,
    GATE_NOT_ALMOST_PLANAR,
    GATE_PLANAR,
    Classification,
    classify,
    predict_spectrum,
)
from almostplanar.errors import OracleCapError
from almostplanar.families import (
    H1,
    H2,
    Bicycle,
    K33Chain,
    Mobius,
    a_graph_spec,
    gen_bicycle,
    gen_mobius,
    gen_wheel,
    generate,
    instances,
)
from almostplanar.graph import Graph, _refine_colors, are_isomorphic
from almostplanar.oracle import cycle_spectrum
from almostplanar.planarity import almost_planar_verdict

# The package re-exports the function ``classify`` under the submodule's name.
classify_module = importlib.import_module("almostplanar.classify")
families_module = importlib.import_module("almostplanar.families")
graph_module = importlib.import_module("almostplanar.graph")
verify_module = importlib.import_module("almostplanar.verify")
planarity_module = importlib.import_module("almostplanar.planarity")


def test_planar_gate():
    res = classify(gen_wheel(6).graph)
    assert res.gate == GATE_PLANAR
    assert res.matched_spec is None and res.predicted is None


def test_not_3_connected_gate(k5):
    # K5 plus a pendant path is non-planar but has a cut vertex
    g = Graph.from_edges(7, list(k5.edges) + [(5, 6), (6, 7)])
    assert classify(g).gate == GATE_NOT_3_CONNECTED


def test_not_almost_planar_gate(k6, petersen):
    res = classify(k6)
    assert res.gate == GATE_NOT_ALMOST_PLANAR
    assert any("fails both" in note for note in res.evidence)
    # computed, not assumed: the Petersen graph also fails the third gate
    assert classify(petersen).gate == GATE_NOT_ALMOST_PLANAR


def test_k33_matches_with_documented_priority(k33):
    res = classify(k33)
    assert res.gate == GATE_ALMOST_PLANAR
    assert res.matched_spec == Mobius(3)
    kinds = [type(s).__name__ for s in res.all_matches]
    assert kinds == ["Mobius", "Bicycle", "H1", "H2", "K33Chain"]
    assert res.predicted.pancyclic is False
    assert res.predicted.hamiltonian is True
    assert res.predicted.hamiltonian_connected is None
    assert res.predicted.spectrum.lengths == frozenset({4, 6})


def test_b8_prediction():
    res = classify(gen_bicycle(8).graph)
    assert res.matched_spec == Bicycle(8, frozenset(), frozenset())
    assert res.predicted.pancyclic is True
    assert res.predicted.hamiltonian_connected is True
    assert res.predicted.spectrum.lengths == frozenset(range(3, 9))


def test_iso_map_direction():
    g = gen_mobius(4).graph
    shuffled = g.relabel({v: (v * 3) % 8 + 1 for v in g.vertices()})
    res = classify(shuffled)
    assert res.matched_spec == Mobius(4)
    cand = generate(res.matched_spec).graph
    for u, v in cand.edges:
        assert shuffled.has_edge(res.iso_map[u], res.iso_map[v])


@pytest.mark.parametrize(
    "spec",
    [
        Mobius(5),
        Bicycle(9),
        a_graph_spec(10),
        Bicycle(8, frozenset({2}), frozenset({4})),
        H1(2, 2, 2, frozenset({"ab", "bc", "ac"})),
        H2(2, 1, 3, frozenset({"ab"})),
        K33Chain(frozenset({"ab", "bc"})),
    ],
)
def test_round_trip(spec):
    g = generate(spec).graph
    res = classify(g)
    assert res.gate == GATE_ALMOST_PLANAR
    assert are_isomorphic(generate(res.matched_spec).graph, g)


def test_prediction_matches_oracle_for_samples():
    for spec in (Mobius(6), a_graph_spec(12), Bicycle(9), H2(2, 2, 2, frozenset())):
        g = generate(spec).graph
        res = classify(g)
        assert res.predicted.spectrum.lengths == cycle_spectrum(g).lengths


def test_predict_spectrum_op():
    assert predict_spectrum(Mobius(7)).lengths == frozenset({4, 6, 8, 10, 12, 14})
    assert predict_spectrum(a_graph_spec(9)).lengths == frozenset(range(3, 10))
    assert predict_spectrum(H1(1, 2, 1, frozenset({"ab", "bc", "ac"}))).lengths == frozenset(
        range(3, 8)
    )
    assert predict_spectrum(Bicycle(5, frozenset({1}), frozenset())) is None


def test_classification_json(k33):
    data = classify(k33).to_json()
    assert data["schema"] == 1
    assert data["gate"] == "almost-planar"
    assert data["spec"] == {"family": "mobius", "k": 3}
    assert data["predicted"]["pancyclic"] is False
    assert data["predicted"]["spectrum"] == [4, 6]
    assert len(data["all_matches"]) == 5


def test_classify_cap():
    with pytest.raises(OracleCapError):
        classify(gen_mobius(7).graph)  # n = 14 over the default cap
    res = classify(gen_mobius(7).graph, cap=14)
    assert res.matched_spec == Mobius(7)


@pytest.mark.parametrize("n", [12, 14])
def test_negative_input_builds_no_index(monkeypatch, n):
    # K_{3,n-3}: its hub degree pulls in the 3^(n-2)-pattern bicycle sweep.
    g = Graph.from_edges(n, [(a, b) for a in range(1, 4) for b in range(4, n + 1)])

    def no_index(*args):
        raise AssertionError("index built for a negative input")

    monkeypatch.setattr(classify_module, "_indexes", {})
    monkeypatch.setattr(classify_module, "_candidates", no_index)
    monkeypatch.setattr(families_module, "enumerate_b_minors", no_index)
    res = classify(g, cap=n)
    assert res.gate == GATE_NOT_ALMOST_PLANAR
    assert any("fails both" in note for note in res.evidence)


# A 3-connected almost-planar graph on 7 vertices that no family instance
# matches: the registry misses 3 of the 20 classes on 7 vertices.
UNMATCHED_7 = Graph.from_edges(7, [
    (1, 4), (1, 5), (1, 6), (1, 7), (2, 3), (2, 4), (2, 6), (2, 7),
    (3, 5), (3, 6), (4, 5), (4, 6), (5, 7),
])


def test_unmatched_almost_planar_graph_gets_a_null_spec(monkeypatch):
    G = _nx(UNMATCHED_7)
    assert not nx.check_planarity(G)[0] and nx.node_connectivity(G) >= 3
    for e in G.edges:
        deleted = G.copy()
        deleted.remove_edge(*e)
        contracted = nx.contracted_edge(G, e, self_loops=False)
        assert nx.check_planarity(deleted)[0] or nx.check_planarity(nx.Graph(contracted))[0]

    want = {
        "schema": 1,
        "gate": GATE_ALMOST_PLANAR,
        "spec": None,
        "iso_map": None,
        "predicted": None,
        "all_matches": [],
        "evidence": ["no family instance on 7 vertices matched"],
    }
    monkeypatch.setattr(classify_module, "_indexes", {})
    assert classify(UNMATCHED_7).to_json() == want  # cold: builds the index
    assert list(classify_module._indexes) == [(7, True)]
    assert classify(UNMATCHED_7).to_json() == want  # warm


def test_almost_planarity_criterion_fails_on_a_null_spec(monkeypatch):
    monkeypatch.setattr(
        verify_module, "classify_graph", lambda g, cap: Classification(GATE_ALMOST_PLANAR)
    )
    res = verify_module.criterion_almost_planarity(5)
    assert not res.passed and "matched no family instance" in res.detail


def _nx(g: Graph) -> nx.Graph:
    G = nx.Graph(list(g.edges))
    G.add_nodes_from(g.vertices())
    return G


def _relabelled(g: Graph, rng: random.Random) -> Graph:
    perm = list(g.vertices())
    rng.shuffle(perm)
    return g.relabel({v: perm[v - 1] for v in g.vertices()})


def _networkx_classes(pairs) -> set[frozenset]:
    """Isomorphism classes of the specs, found by networkx alone."""
    buckets: dict[tuple, list[tuple[nx.Graph, set]]] = {}
    for spec, g in pairs:
        G = _nx(g)
        invariant = (
            tuple(sorted(d for _, d in G.degree())),
            tuple(sorted(nx.triangles(G).values())),
        )
        reps = buckets.setdefault(invariant, [])
        for H, specs in reps:
            if nx.is_isomorphic(G, H):
                specs.add(spec)
                break
        else:
            reps.append((G, {spec}))
    return {frozenset(specs) for reps in buckets.values() for _, specs in reps}


@pytest.mark.parametrize("n", range(5, 10))
def test_candidate_classes_are_the_isomorphism_classes(n):
    pairs = instances(n)
    rank = {spec: i for i, (spec, _) in enumerate(pairs)}
    index = classify_module._candidates(n)
    classes = [cls for bucket in index.values() for cls in bucket]
    assert {frozenset(cls.specs) for cls in classes} == _networkx_classes(pairs)
    for sig, bucket in index.items():
        firsts = [rank[cls.specs[0]] for cls in bucket]
        assert firsts == sorted(firsts)
        for cls in bucket:
            assert [rank[s] for s in cls.specs] == sorted(rank[s] for s in cls.specs)
            assert cls.graph == pairs[rank[cls.specs[0]]][1]
            assert (cls.graph.n, cls.graph.m, _refine_colors(cls.graph)[1]) == sig


@pytest.mark.parametrize("n, count", [(10, 280), (11, 661)])
def test_distinct_signature_counts(n, count):
    assert len(classify_module._candidates(n)) == count


def _count_calls(monkeypatch, module, name) -> list:
    """From here on, record the first argument of every call of
    module.name."""
    calls: list = []
    original = getattr(module, name)

    def counted(first, *rest):
        calls.append(first)
        return original(first, *rest)

    monkeypatch.setattr(module, name, counted)
    return calls


def _count_lr_tests(monkeypatch) -> list[int]:
    """From here on, record the vertex count of every left-right test."""
    return _count_calls(monkeypatch, planarity_module, "_lr_planar")


def _count_refinements(monkeypatch) -> list[Graph]:
    """From here on, record the graph of every refinement, whether
    classify or the graph module asks for it."""
    calls: list[Graph] = []
    refine = graph_module._refine_colors

    def counted(g):
        calls.append(g)
        return refine(g)

    monkeypatch.setattr(graph_module, "_refine_colors", counted)
    monkeypatch.setattr(classify_module, "_refine_colors", counted)
    return calls


def test_decided_class_costs_no_planarity_test(monkeypatch):
    # A class that shares its signature bucket with another class.
    bucket = next(b for b in classify_module._candidates(9).values() if len(b) > 1)
    cls = bucket[-1]
    assert classify(cls.graph).gate == GATE_ALMOST_PLANAR  # decides the class
    query = _relabelled(cls.graph, random.Random(9))
    iso_calls = _count_calls(monkeypatch, classify_module, "_colored_isomorphism")
    lr_tests = _count_lr_tests(monkeypatch)
    res = classify(query)
    assert res.gate == GATE_ALMOST_PLANAR
    assert res.all_matches == cls.specs
    # a match implies both gates, and the verdict is the class's
    assert len(lr_tests) == 0
    assert len(iso_calls) <= len(bucket)
    assert generate(res.matched_spec).graph.relabel(res.iso_map) == query


def test_warm_match_refines_once_and_runs_no_gate(monkeypatch):
    g = generate(H2(2, 1, 3, frozenset({"ab"}))).graph
    classify(g)  # builds the index and decides the class
    query = _relabelled(g, random.Random(4))
    lr_tests = _count_lr_tests(monkeypatch)
    dfs_passes = _count_calls(monkeypatch, graph_module, "_biconnected_after_removal")
    refinements = _count_refinements(monkeypatch)
    assert classify(query).gate == GATE_ALMOST_PLANAR
    assert (len(lr_tests), len(dfs_passes), refinements) == (0, 0, [query])


def test_cold_index_refines_each_instance_once(monkeypatch):
    monkeypatch.setattr(classify_module, "_indexes", {})
    refinements = _count_refinements(monkeypatch)
    classify_module._candidates(9)
    assert refinements == [g for _, g in instances(9)]


def test_almost_planarity_criterion_op_counts(monkeypatch):
    monkeypatch.setattr(classify_module, "_indexes", {})
    refinements = _count_refinements(monkeypatch)
    dfs_passes = _count_calls(monkeypatch, graph_module, "_biconnected_after_removal")
    queries = []
    classify_graph = verify_module.classify_graph

    def counted(g, cap):
        before = len(refinements), len(dfs_passes)
        result = classify_graph(g, cap=cap)
        queries.append(
            (g.n, len(refinements) - before[0], len(dfs_passes) - before[1])
        )
        return result

    monkeypatch.setattr(verify_module, "classify_graph", counted)
    assert verify_module.criterion_almost_planarity(9).passed
    corpus = verify_module.family_corpus(9)
    assert len(queries) == len(corpus) == 488
    paying = {}
    for n in range(5, 10):
        rows = [(refined, passes) for q_n, refined, passes in queries if q_n == n]
        # the cold query refines itself and every instance on n vertices;
        # each warm one refines only itself
        assert [refined for refined, _ in rows] == [len(instances(n)) + 1] + [1] * (
            len(rows) - 1
        )
        paying.update({(n, i): passes for i, (_, passes) in enumerate(rows) if passes})
    # Only the cold query of each n runs a DFS pass: the 3-connectivity
    # gate, n passes.  The prediction of the class of B_n, the one
    # 4-connected instance, comes from its spec and runs none.
    assert paying == {(n, 0): n for n in range(5, 10)}
    assert (len(refinements), len(dfs_passes)) == (976, 35)


def test_cold_classify_b10_lr_test_count(monkeypatch):
    for cached in (
        planarity_module._planar_cached,
        planarity_module.almost_planar_verdict,
        families_module.instances,
        families_module.enumerate_b_minors,
    ):
        cached.cache_clear()
    monkeypatch.setattr(classify_module, "_indexes", {})
    lr_tests = _count_lr_tests(monkeypatch)
    assert classify(gen_bicycle(10).graph).gate == GATE_ALMOST_PLANAR
    # 17 to decide B_10 (the planar gate is the m > 3n - 6 shortcut); the
    # bicycle sweep of the n = 10 index reads planarity from the spoke rule
    assert len(lr_tests) == 17


def test_prediction_is_computed_once_per_class(monkeypatch):
    b10 = gen_bicycle(10).graph
    four_connectivity_checks = []
    is_k_connected = classify_module.is_k_connected

    def counted(g, k):
        if k == 4:
            four_connectivity_checks.append(g)
        return is_k_connected(g, k)

    monkeypatch.setattr(classify_module, "_indexes", {})
    monkeypatch.setattr(classify_module, "is_k_connected", counted)
    monkeypatch.setattr(graph_module, "is_k_connected", counted)
    first = classify(_relabelled(b10, random.Random(1)))
    second = classify(_relabelled(b10, random.Random(2)))
    assert first.predicted is second.predicted
    assert first.predicted.hamiltonian_connected is True
    # 4-connectivity comes from the spec rule, never from a graph test
    assert four_connectivity_checks == []


def test_moved_edge_mutant_reports_its_labelled_failing_edge():
    rng = random.Random(3)
    pairs = instances(9)
    while True:
        g = _relabelled(pairs[rng.randrange(len(pairs))][1], rng)
        drop = rng.choice(sorted(g.edges))
        add = tuple(sorted(rng.sample(range(1, 10), 2)))
        if add in g.edges:
            continue
        mutant = Graph(9, (g.edges - {drop}) | {add})
        G = _nx(mutant)
        if (
            not nx.check_planarity(G)[0]
            and nx.node_connectivity(G) >= 3
            and not almost_planar_verdict(mutant)[0]
        ):
            break
    res = classify(mutant)
    assert res.gate == GATE_NOT_ALMOST_PLANAR
    found = [re.search(r"edge \((\d+), (\d+)\) fails both", note) for note in res.evidence]
    u, v = (int(x) for x in next(m for m in found if m).groups())
    assert (u, v) == almost_planar_verdict(mutant)[1]
    deleted = G.copy()
    deleted.remove_edge(u, v)
    contracted = nx.contracted_edge(G, (u, v), self_loops=False)
    assert not nx.check_planarity(deleted)[0]
    assert not nx.check_planarity(nx.Graph(contracted))[0]


@st.composite
def _differential_inputs(draw) -> Graph:
    """A relabelled family instance, a one-edge-moved mutant of one, or a
    random sparse graph, all with n <= 9."""
    kind = draw(st.sampled_from(["instance", "mutant", "sparse"]))
    if kind == "sparse":
        n = draw(st.integers(0, 9))
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        chosen = draw(st.sets(st.sampled_from(pairs), max_size=3 * n)) if pairs else ()
        return Graph(n, frozenset(chosen))
    pool = [g for n in range(5, 10) for _, g in instances(n)]
    g = draw(st.sampled_from(pool))
    free = sorted(set(itertools.combinations(g.vertices(), 2)) - g.edges)
    if kind == "mutant" and free:
        drop = draw(st.sampled_from(g.sorted_edges()))
        g = Graph(g.n, (g.edges - {drop}) | {draw(st.sampled_from(free))})
    perm = draw(st.permutations(list(g.vertices())))
    return g.relabel({v: perm[v - 1] for v in g.vertices()})


@given(_differential_inputs())
@settings(max_examples=300, deadline=None)
def test_warm_classify_equals_cold(g):
    built = classify_module._indexes
    classify_module._indexes = {}
    planarity_module._planar_cached.cache_clear()
    planarity_module.almost_planar_verdict.cache_clear()
    try:
        cold = classify(g).to_json()
    finally:
        classify_module._indexes = built
    classify_module._candidates(g.n)
    assert classify(g).to_json() == cold

    G = _nx(g)
    if nx.check_planarity(G)[0]:
        assert cold["gate"] == GATE_PLANAR
    elif nx.node_connectivity(G) < 3:
        assert cold["gate"] == GATE_NOT_3_CONNECTED
    else:
        assert cold["gate"] in (GATE_ALMOST_PLANAR, GATE_NOT_ALMOST_PLANAR)
