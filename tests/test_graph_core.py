import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from almostplanar.graph import (
    Graph,
    add_edge,
    are_isomorphic,
    contract_edge,
    delete_edge,
    edge,
    format_edge_list,
    is_bipartite,
    is_connected,
    is_k_connected,
    isomorphism,
    parse_edge_list,
    refinement_signature,
    two_coloring,
)


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i % n + 1) for i in range(1, n + 1)])


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(3, frozenset({(0, 2)}))
    with pytest.raises(ValueError):
        Graph(3, frozenset({(2, 4)}))


def test_delete_edge_basics(k4):
    g = delete_edge(k4, (1, 2))
    assert g.n == 4 and g.m == 5
    assert is_connected(g)
    with pytest.raises(ValueError, match="no such edge"):
        delete_edge(g, (1, 2))
    # path on 3 vertices loses its middle edge and falls apart
    p3 = Graph.from_edges(3, [(1, 2), (2, 3)])
    broken = delete_edge(p3, (2, 3))
    assert broken.m == 1 and not is_connected(broken)


def test_delete_then_add_is_identity(k5):
    for e in k5.sorted_edges():
        assert add_edge(delete_edge(k5, e), e) == k5


def test_contract_k6_gives_k5(k6, k5):
    g = contract_edge(k6, (2, 5))
    assert g.n == 5
    assert g == k5  # complete graph again after parallel collapse


def test_contract_triangle_gives_single_edge():
    tri = cycle_graph(3)
    g = contract_edge(tri, (1, 3))
    assert g.n == 2 and g.edges == frozenset({(1, 2)})


def test_contract_renumbering_rule():
    # merged vertex keeps min(u, v); vertices above max(u, v) shift down
    g = Graph.from_edges(5, [(1, 2), (2, 4), (4, 5), (3, 5)])
    h = contract_edge(g, (2, 4))
    assert h.n == 4
    assert h.edges == frozenset({(1, 2), (2, 4), (3, 4)})


def test_is_k_connected_examples(k5):
    assert is_k_connected(k5, 4)
    assert not is_k_connected(k5, 5)  # needs k+1 vertices
    c6 = cycle_graph(6)
    assert is_k_connected(c6, 2)
    assert not is_k_connected(c6, 3)
    with pytest.raises(ValueError):
        is_k_connected(c6, 0)


def test_k_connectivity_is_monotone(k33):
    for k in range(2, 5):
        if is_k_connected(k33, k):
            assert is_k_connected(k33, k - 1)


def test_bipartite(k33):
    assert is_bipartite(k33)
    col = two_coloring(k33)
    assert {frozenset(v for v in k33.vertices() if col[v] == side) for side in (0, 1)} == {
        frozenset({1, 2, 3}),
        frozenset({4, 5, 6}),
    }
    assert not is_bipartite(cycle_graph(3))
    assert is_bipartite(cycle_graph(4))


def test_isomorphism_finds_mapping(k33):
    shuffled = k33.relabel({1: 3, 2: 5, 3: 1, 4: 2, 5: 6, 6: 4})
    mapping = isomorphism(k33, shuffled)
    assert mapping is not None
    for u, v in k33.edges:
        assert shuffled.has_edge(mapping[u], mapping[v])


def test_isomorphism_rejects(k33, k4):
    c6 = cycle_graph(6)
    assert not are_isomorphic(k33, c6)
    assert not are_isomorphic(k33, k4)
    # same degree sequence, different structure: C6 vs two triangles
    two_tri = Graph.from_edges(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
    assert not are_isomorphic(c6, two_tri)


def test_edge_list_round_trip(k33):
    text = format_edge_list(k33)
    assert text.splitlines()[0] == "6 9"
    assert parse_edge_list(text) == k33


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "2\n",
        "2 1\n1 1\n",
        "2 1\n2 1\n",
        "2 1\n1 3\n",
        "3 2\n1 2\n1 2\n",
        "3 1\n1 2\n2 3\n",
    ],
)
def test_edge_list_rejects(bad):
    with pytest.raises(ValueError):
        parse_edge_list(bad)


def graphs(max_n: int = 8):
    return st.integers(2, max_n).flatmap(
        lambda n: st.frozensets(
            st.tuples(st.integers(1, n), st.integers(1, n)).filter(
                lambda t: t[0] != t[1]
            ),
            max_size=n * (n - 1) // 2,
        ).map(lambda pairs: Graph.from_edges(n, pairs))
    )


@given(graphs())
@settings(max_examples=60, deadline=None)
def test_contract_counts(g):
    if not g.edges:
        return
    e = min(g.edges)
    h = contract_edge(g, e)
    assert h.n == g.n - 1
    assert h.m <= g.m - 1


@given(graphs(9), st.randoms())
@settings(max_examples=60, deadline=None)
def test_relabeled_graphs_are_isomorphic(g, rng):
    perm = list(g.vertices())
    rng.shuffle(perm)
    mapping = {v: perm[v - 1] for v in g.vertices()}
    h = g.relabel(mapping)
    assert refinement_signature(h) == refinement_signature(g)
    got = isomorphism(g, h)
    assert got is not None
    for u, v in g.edges:
        assert h.has_edge(got[u], got[v])


@given(graphs(7), st.randoms(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_isomorphism_agrees_with_networkx(g, rng, move_edge):
    import networkx as nx

    perm = list(g.vertices())
    rng.shuffle(perm)
    h = g.relabel({v: perm[v - 1] for v in g.vertices()})
    absent = sorted(set(itertools.combinations(h.vertices(), 2)) - h.edges)
    if move_edge and h.edges and absent:
        h = Graph(h.n, (h.edges - {rng.choice(sorted(h.edges))}) | {rng.choice(absent)})
    G = nx.Graph(list(g.edges))
    G.add_nodes_from(g.vertices())
    H = nx.Graph(list(h.edges))
    H.add_nodes_from(h.vertices())
    got = isomorphism(g, h)
    assert (got is not None) == nx.is_isomorphic(G, H)
    assert are_isomorphic(g, h) == (got is not None)
    if got is not None:
        assert g.relabel(got) == h


def test_edge_normalization():
    assert edge(5, 2) == (2, 5)
    with pytest.raises(ValueError):
        edge(3, 3)
