import importlib
import itertools
import math
import random

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from almostplanar.families import Bicycle, gen_bicycle, generate
from almostplanar.graph import (
    Graph,
    are_isomorphic,
    contract_edge,
    delete_edge,
    edge,
    format_edge_list,
    is_connected,
    is_k_connected,
    isomorphism,
    parse_edge_list,
)

graph_module = importlib.import_module("almostplanar.graph")


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i % n + 1) for i in range(1, n + 1)])


def test_graph_rejects_bad_edges():
    # Graph(...) and from_edges check every edge; from_edges writes a
    # reversed pair smaller end first
    for n, pair in ((3, (0, 2)), (3, (2, 4)), (0, (1, 2)), (3, (2, 1)), (3, (2, 2))):
        with pytest.raises(ValueError, match="out of range"):
            Graph(n, frozenset({pair}))
    for n, pair in ((3, (0, 2)), (3, (2, 4)), (0, (1, 2)), (3, (1, 1))):
        with pytest.raises(ValueError, match="out of range|loop"):
            Graph.from_edges(n, [pair])
    assert Graph.from_edges(3, [(2, 1)]).edges == frozenset({(1, 2)})


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
    # C_5000 is far deeper than the recursion limit for the DFS.
    for n in (6, 5000):
        c = cycle_graph(n)
        assert is_k_connected(c, 2)
        assert not is_k_connected(c, 3)
    with pytest.raises(ValueError):
        is_k_connected(c, 0)


def test_k_connectivity_is_monotone(k33):
    for k in range(2, 5):
        if is_k_connected(k33, k):
            assert is_k_connected(k33, k - 1)


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
        # only ASCII digits spell a number
        "1_0 1\n+1 \u0662\n",
        "12 1\n1_0 2\n",
        "3 1\n+1 2\n",
        "3 1\n1 \uff12\n",
        "3 1\n1 \u0662\n",
        "+3 0\n",
    ],
)
def test_edge_list_rejects(bad):
    with pytest.raises(ValueError):
        parse_edge_list(bad)


@pytest.mark.parametrize(
    "text, message",
    [
        ("3 1\n1 x\n", "malformed edge line '1 x'"),
        ("3 1\n1 2 3\n", "malformed edge line '1 2 3'"),
        ("n m\n", "header must be 'n m', got 'n m'"),
        # up to 80 characters a line is echoed whole, above it cut to 40
        ("3 1\n1 " + "x" * 78 + "\n", "malformed edge line '1 " + "x" * 78 + "'"),
        (
            "3 1\n1 " + "x" * 79 + "\n",
            "malformed edge line '1 " + "x" * 38 + "'...(81 characters)",
        ),
        ("y" * 81 + "\n", "header must be 'n m', got '" + "y" * 40 + "'...(81 characters)"),
    ],
)
def test_edge_list_echoes_a_bounded_line(text, message):
    with pytest.raises(ValueError) as info:
        parse_edge_list(text)
    assert str(info.value) == message


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
def test_derived_graphs_pass_the_edge_check(g, rng):
    # relabel, delete_edge and contract_edge build their graphs unchecked
    perm = list(g.vertices())
    rng.shuffle(perm)
    derived = [g.relabel({v: perm[v - 1] for v in g.vertices()})]
    if g.edges:
        e = rng.choice(sorted(g.edges))
        derived += [delete_edge(g, e), contract_edge(g, e)]
    for h in derived:
        assert type(h.edges) is frozenset
        assert Graph(h.n, h.edges) == h


@given(graphs(9), st.randoms())
@settings(max_examples=60, deadline=None)
def test_relabeled_graphs_are_isomorphic(g, rng):
    perm = list(g.vertices())
    rng.shuffle(perm)
    mapping = {v: perm[v - 1] for v in g.vertices()}
    h = g.relabel(mapping)
    assert graph_module._refine_colors(h)[1] == graph_module._refine_colors(g)[1]
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


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, itertools.combinations(range(1, n + 1), 2))


def complement(g: Graph) -> Graph:
    return Graph(g.n, frozenset(itertools.combinations(g.vertices(), 2)) - g.edges)


def disjoint_union(g: Graph, h: Graph) -> Graph:
    return Graph.from_edges(
        g.n + h.n, list(g.edges) + [(u + g.n, v + g.n) for u, v in h.edges]
    )


def _nx(g: Graph) -> nx.Graph:
    G = nx.Graph(list(g.edges))
    G.add_nodes_from(g.vertices())
    return G


@given(
    st.one_of(
        graphs(9),
        graphs(9).map(complement),
        st.integers(1, 9).map(complete_graph),
        st.tuples(graphs(4), graphs(5)).map(lambda gh: disjoint_union(*gh)),
    ),
    st.integers(1, 5),
)
@example(disjoint_union(complete_graph(4), complete_graph(5)), 1)
# Only the vertex count sees the second component.
@example(disjoint_union(complete_graph(4), complete_graph(5)), 3)
# Two triangles at vertex 1: the only cut vertex is the root of the DFS.
@example(Graph.from_edges(5, [(1, 2), (2, 3), (1, 3), (1, 4), (4, 5), (1, 5)]), 2)
@example(complete_graph(9), 5)
@example(complete_graph(5), 5)
@example(complete_graph(1), 1)
@settings(max_examples=300, deadline=None)
def test_is_k_connected_agrees_with_networkx(g, k):
    # Sparse and dense graphs, complete graphs, disconnected unions and
    # n < k + 1 are all drawn.
    kappa = nx.node_connectivity(_nx(g)) if g.n > 1 else 0
    assert is_k_connected(g, k) == (g.n >= k + 1 and kappa >= k)


def random_minor(rng: random.Random, n: int) -> Graph:
    """A random non-planar bicycle minor in which every rim vertex keeps a
    spoke and each hub keeps at least two, so it is 3-connected."""
    while True:
        pattern = "".join(rng.choice("BST") for _ in range(n - 2))
        if pattern.count("T") > n - 5 or pattern.count("S") > n - 5:
            continue
        g = generate(
            Bicycle(
                n,
                removed_s=frozenset(i + 1 for i, ch in enumerate(pattern) if ch == "T"),
                removed_t=frozenset(i + 1 for i, ch in enumerate(pattern) if ch == "S"),
            )
        ).graph
        if not nx.check_planarity(_nx(g))[0]:
            return g


def test_large_minor_and_planted_two_cut():
    n = 120
    g = random_minor(random.Random(120), n)
    assert is_k_connected(g, 3)
    # Rim vertices 30 and 41 cut off the arc 31..40 once its spokes are
    # gone; chords i -- i+2 inside the arc keep every degree >= 3, so the
    # minimum-degree shortcut does not see the cut.
    arc = range(31, 41)
    hubs = (n - 1, n)
    planted = Graph.from_edges(
        n,
        [(u, v) for u, v in g.edges if not (u in arc and v in hubs)]
        + [(i, i + 2) for i in range(31, 39)],
    )
    assert min(planted.degree(v) for v in planted.vertices()) >= 3
    rest = _nx(planted)
    rest.remove_nodes_from([30, 41])
    assert nx.number_connected_components(rest) == 2
    assert is_k_connected(planted, 2)
    assert not is_k_connected(planted, 3)


@pytest.mark.parametrize("n", [8, 11])
def test_dfs_passes_per_k(monkeypatch, n):
    passes = []
    helper = graph_module._biconnected_after_removal

    def counted(g, removed):
        passes.append(removed)
        return helper(g, removed)

    monkeypatch.setattr(graph_module, "_biconnected_after_removal", counted)
    b = gen_bicycle(n).graph
    assert is_k_connected(b, 3)
    assert len(passes) == n
    passes.clear()
    assert is_k_connected(b, 4)
    assert len(passes) == math.comb(n, 2)

