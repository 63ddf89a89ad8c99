import importlib
import itertools
import re

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
)
from almostplanar.graph import Graph, are_isomorphic
from almostplanar.oracle import cycle_spectrum


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


def test_falsification_message_reports_degrees(monkeypatch, k33):
    # The package re-exports the function under the submodule's name.
    classify_module = importlib.import_module("almostplanar.classify")
    monkeypatch.setattr(classify_module, "_candidates", lambda n, include_bicycle: ())
    degrees = str(k33.degree_sequence())
    with pytest.raises(FalsificationError, match=re.escape(f"degrees={degrees}")):
        classify(k33)
