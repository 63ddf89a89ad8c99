import itertools

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from almostplanar import oracle
from almostplanar.errors import OracleCapError
from almostplanar.families import enumerate_b_minors, gen_a_graph, gen_bicycle, gen_mobius, generate
from almostplanar.graph import Graph, delete_edge
from almostplanar.oracle import (
    cycle_spectrum,
    hamiltonian_connectivity,
    hamiltonian_cycle,
    hamiltonian_path,
    is_hamiltonian,
    is_pancyclic,
    validate_cycle,
    validate_path,
)


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i % n + 1) for i in range(1, n + 1)])


def test_spectrum_k4(k4):
    spec = cycle_spectrum(k4, witnesses=True)
    assert spec.lengths == frozenset({3, 4})
    for length, seq in spec.witnesses.items():
        assert validate_cycle(k4, seq, length)


def test_spectrum_v8():
    g = gen_mobius(4).graph
    assert cycle_spectrum(g).lengths == frozenset({4, 5, 6, 7, 8})


def test_spectrum_a8():
    g = gen_a_graph(8).graph
    assert cycle_spectrum(g).lengths == frozenset({4, 6, 8})


def test_spectrum_json():
    g = gen_a_graph(8).graph
    data = cycle_spectrum(g, witnesses=True).to_json()
    assert data["lengths"] == [4, 6, 8]
    assert data["pancyclic"] is False
    assert data["hamiltonian"] is True
    assert set(data["witnesses"]) == {"4", "6", "8"}


def test_pancyclic(k33):
    assert is_pancyclic(gen_bicycle(7).graph)
    assert not is_pancyclic(k33)
    assert not is_pancyclic(cycle_graph(5))


def test_hamiltonian(petersen):
    star = Graph.from_edges(4, [(1, 2), (1, 3), (1, 4)])
    assert not is_hamiltonian(star)
    assert not is_hamiltonian(petersen)  # famously not
    for k in range(3, 8):
        g = gen_mobius(k).graph
        cyc = hamiltonian_cycle(g)
        assert cyc is not None
        assert validate_cycle(g, cyc, g.n)


@pytest.mark.parametrize("n", range(6, 10))
def test_b_minors_hamiltonian(n):
    for spec in enumerate_b_minors(n):
        assert is_hamiltonian(generate(spec).graph)


def test_hamiltonian_connected(k4):
    assert hamiltonian_connectivity(k4) == (True, None)
    for n in range(5, 8):
        assert hamiltonian_connectivity(gen_bicycle(n).graph) == (True, None)
    ok, pair = hamiltonian_connectivity(cycle_graph(5))
    assert not ok
    assert pair is not None
    u, v = pair
    assert hamiltonian_path(cycle_graph(5), u, v) is None


def test_hamiltonian_path_endpoints():
    g = gen_bicycle(6).graph
    path = hamiltonian_path(g, 2, 5)
    assert path is not None
    assert path[0] == 2 and path[-1] == 5
    assert validate_path(g, path, 6)
    with pytest.raises(ValueError):
        hamiltonian_path(g, 3, 3)
    for u, v in ((0, 2), (2, 0), (1, 7), (1, 9), (-1, 3)):
        with pytest.raises(ValueError, match="out of range"):
            hamiltonian_path(g, u, v)


def test_oracle_cap(monkeypatch):
    big = Graph(19, frozenset())
    with pytest.raises(OracleCapError, match="too large"):
        cycle_spectrum(big)
    monkeypatch.setenv("APK_ORACLE_CAP", "20")
    assert cycle_spectrum(big).lengths == frozenset()
    monkeypatch.delenv("APK_ORACLE_CAP")
    assert cycle_spectrum(big, cap=25).lengths == frozenset()


@pytest.mark.parametrize("value", ["abc", "1_8", "-1", "+18", " 18", "1.8", "\u0661\u0668"])
def test_oracle_cap_env_takes_ascii_digits_only(monkeypatch, value):
    monkeypatch.setenv("APK_ORACLE_CAP", value)
    with pytest.raises(ValueError, match="APK_ORACLE_CAP"):
        oracle.oracle_cap()
    # an explicit cap never reads the variable
    assert oracle.oracle_cap(5) == 5


def test_oracle_cap_env_empty_keeps_the_default(monkeypatch):
    monkeypatch.setenv("APK_ORACLE_CAP", "")
    assert oracle.oracle_cap() == oracle.DEFAULT_CAP == 18
    monkeypatch.setenv("APK_ORACLE_CAP", "007")
    assert oracle.oracle_cap() == 7


def test_validate_cycle_reasons(k4):
    assert validate_cycle(k4, [1, 2, 3], 3)
    assert validate_cycle(k4, [1, 2, 3, 4], 4)
    bad = validate_cycle(k4, [1, 2, 1], 3)
    assert not bad and bad.reason == "duplicate vertex"
    bad = validate_cycle(k4, [1, 2, 3], 4)
    assert not bad and bad.reason == "wrong length"
    bad = validate_cycle(k4, [1, 2, 5], 3)
    assert not bad and bad.reason == "vertex out of range"
    g = cycle_graph(5)
    bad = validate_cycle(g, [1, 2, 4], 3)
    assert not bad and "missing edge" in bad.reason


def test_validate_path(k4):
    assert validate_path(k4, [1, 2], 2)
    bad = validate_path(cycle_graph(5), [1, 2, 4], 3)
    assert not bad and "missing edge" in bad.reason


def test_spectrum_monotone_under_deletion():
    g = gen_bicycle(7).graph
    lengths = cycle_spectrum(g).lengths
    for e in g.sorted_edges():
        assert cycle_spectrum(delete_edge(g, e)).lengths <= lengths


def test_spoke_addition_is_monotone():
    # adding a spoke to a bicycle minor never removes a cycle length
    base = gen_a_graph(8)
    spec = base.family
    lengths = cycle_spectrum(base.graph).lengths
    richer = gen_bicycle(8, spec.removed_s - {2}, spec.removed_t).graph
    assert lengths <= cycle_spectrum(richer).lengths


def test_bipartite_iff_no_odd_lengths():
    for g in (
        gen_a_graph(8).graph,
        gen_a_graph(9).graph,
        gen_mobius(4).graph,
        gen_mobius(5).graph,
        gen_bicycle(6).graph,
    ):
        has_odd = any(length % 2 == 1 for length in cycle_spectrum(g).lengths)
        assert has_odd == (not nx.is_bipartite(nx.Graph(list(g.edges))))


@given(st.randoms())
@settings(max_examples=20, deadline=None)
def test_spectrum_invariant_under_relabeling(rng):
    g = gen_a_graph(7).graph
    perm = list(g.vertices())
    rng.shuffle(perm)
    h = g.relabel({v: perm[v - 1] for v in g.vertices()})
    assert cycle_spectrum(h).lengths == cycle_spectrum(g).lengths


# -- independent references ------------------------------------------------------


@st.composite
def _small_graphs(draw, max_n: int) -> Graph:
    n = draw(st.integers(0, max_n))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    chosen = draw(st.sets(st.sampled_from(pairs), max_size=2 * n)) if pairs else ()
    return Graph(n, frozenset(chosen))


@given(_small_graphs(9))
@settings(max_examples=150, deadline=None)
def test_cycle_lengths_agree_with_networkx(g):
    G = nx.Graph(list(g.edges))
    G.add_nodes_from(g.vertices())
    want = {len(c) for c in nx.simple_cycles(G, length_bound=g.n)}
    spec = cycle_spectrum(g, witnesses=True)
    assert spec.lengths == want
    assert is_pancyclic(g) == (want == set(range(3, g.n + 1)))
    for length, seq in spec.witnesses.items():
        assert validate_cycle(g, seq, length)


def _first_spanning_path(g: Graph, u: int, v: int):
    """The lexicographically first spanning u-v path, by trying every
    order of the other vertices."""
    inner = [w for w in g.vertices() if w not in (u, v)]
    for order in itertools.permutations(inner):
        seq = [u, *order, v]
        if all(g.has_edge(a, b) for a, b in zip(seq, seq[1:])):
            return seq
    return None


@given(_small_graphs(7))
@settings(max_examples=60, deadline=None)
def test_hamiltonian_path_agrees_with_brute_force(g):
    # The search tries neighbours in sorted order, so its first path is
    # the lexicographically first one.
    first_failing = None
    for u, v in itertools.permutations(g.vertices(), 2):
        want = _first_spanning_path(g, u, v)
        assert hamiltonian_path(g, u, v) == want
        if want is None and u < v and first_failing is None:
            first_failing = (u, v)
    assert hamiltonian_connectivity(g) == (first_failing is None, first_failing)


@pytest.mark.parametrize("query", [hamiltonian_connectivity, cycle_spectrum])
def test_one_distance_table_per_call(monkeypatch, query):
    calls = []
    real = oracle._distances

    def counted(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(oracle, "_distances", counted)
    query(gen_bicycle(10).graph)
    assert len(calls) == 1
