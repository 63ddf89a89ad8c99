import importlib
import itertools
import random
import re

import networkx as nx
import pytest

from almostplanar.classify import (
    GATE_ALMOST_PLANAR,
    GATE_NOT_3_CONNECTED,
    GATE_NOT_ALMOST_PLANAR,
    GATE_PLANAR,
    classify,
    predict_spectrum,
)
from almostplanar.errors import FalsificationError, OracleCapError
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
from almostplanar.graph import Graph, are_isomorphic, refinement_signature
from almostplanar.oracle import cycle_spectrum
from almostplanar.planarity import is_almost_planar

# The package re-exports the function ``classify`` under the submodule's name.
classify_module = importlib.import_module("almostplanar.classify")
families_module = importlib.import_module("almostplanar.families")


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


def test_falsification_message_reports_degrees(monkeypatch, k33):
    monkeypatch.setattr(classify_module, "_candidates", lambda n, include_bicycle: {})
    degrees = str(k33.degree_sequence())
    with pytest.raises(FalsificationError, match=re.escape(f"degrees={degrees}")):
        classify(k33)


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
            assert refinement_signature(cls.graph) == sig


@pytest.mark.parametrize("n, count", [(10, 280), (11, 661)])
def test_distinct_signature_counts(n, count):
    assert len(classify_module._candidates(n)) == count


def test_decided_class_costs_one_planarity_test(monkeypatch):
    # A class that shares its signature bucket with another class.
    bucket = next(b for b in classify_module._candidates(9).values() if len(b) > 1)
    cls = bucket[-1]
    assert classify(cls.graph).gate == GATE_ALMOST_PLANAR  # decides the class
    query = _relabelled(cls.graph, random.Random(9))
    lr_tests = []
    iso_calls = []
    check_planarity = nx.check_planarity
    isomorphism = classify_module.isomorphism

    def counted_check(*args, **kwargs):
        lr_tests.append(args)
        return check_planarity(*args, **kwargs)

    def counted_isomorphism(g1, g2):
        iso_calls.append(g1)
        return isomorphism(g1, g2)

    monkeypatch.setattr(nx, "check_planarity", counted_check)
    monkeypatch.setattr(classify_module, "isomorphism", counted_isomorphism)
    res = classify(query)
    assert res.gate == GATE_ALMOST_PLANAR
    assert res.all_matches == cls.specs
    assert len(lr_tests) == 1  # the planar gate; the verdict is the class's
    assert len(iso_calls) <= len(bucket)
    assert generate(res.matched_spec).graph.relabel(res.iso_map) == query


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
            and not is_almost_planar(mutant).verdict
        ):
            break
    res = classify(mutant)
    assert res.gate == GATE_NOT_ALMOST_PLANAR
    found = [re.search(r"edge \((\d+), (\d+)\) fails both", note) for note in res.evidence]
    u, v = (int(x) for x in next(m for m in found if m).groups())
    assert (u, v) == is_almost_planar(mutant).failing_edge
    deleted = G.copy()
    deleted.remove_edge(u, v)
    contracted = nx.contracted_edge(G, (u, v), self_loops=False)
    assert not nx.check_planarity(deleted)[0]
    assert not nx.check_planarity(nx.Graph(contracted))[0]
