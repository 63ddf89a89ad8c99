import itertools

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from almostplanar.families import gen_bicycle, gen_mobius, gen_wheel, instances
from almostplanar.graph import (
    Graph,
    contract_edge,
    delete_edge,
    edge,
    is_connected,
)
from almostplanar.planarity import (
    _lr_planar,
    almost_planar_verdict,
    is_planar,
)

from kuratowski import is_planar_kuratowski


def test_planar_basics(k4, k5, k33):
    assert is_planar(k4)
    assert not is_planar(k5)
    assert not is_planar(k33)
    assert is_planar(gen_wheel(6).graph)


@pytest.mark.parametrize("n", range(6, 11))
def test_bicycle_minus_axle_planar(n):
    g = gen_bicycle(n).graph
    assert not is_planar(g)
    assert is_planar(delete_edge(g, edge(n - 1, n)))


def test_planar_euler_bound_consistency(k5, k33, petersen):
    # never planar when m > 3n-6; bipartite inputs obey m <= 2n-4
    for g in (k5, k33, petersen, gen_bicycle(7).graph):
        if g.m > 3 * g.n - 6:
            assert not is_planar(g)
    assert k33.m > 2 * k33.n - 4  # bipartite bound violated, so non-planar


def test_kuratowski_oracle_agrees_on_corpus(k4, k5, k6, k33, petersen):
    corpus = [
        k4,
        k5,
        k6,
        k33,
        petersen,
        gen_wheel(7).graph,
        gen_bicycle(7).graph,
        delete_edge(gen_bicycle(7).graph, edge(6, 7)),
        gen_mobius(4).graph,
        gen_mobius(5).graph,
        Graph.from_edges(3, [(1, 2), (2, 3)]),
        Graph(5, frozenset()),
    ]
    for g in corpus:
        assert is_planar(g) == is_planar_kuratowski(g), g


@given(st.randoms())
@settings(max_examples=25, deadline=None)
def test_planarity_invariant_under_relabeling(rng):
    g = gen_mobius(4).graph
    perm = list(g.vertices())
    rng.shuffle(perm)
    h = g.relabel({v: perm[v - 1] for v in g.vertices()})
    assert is_planar(h) == is_planar(g)


@given(st.integers(0, 500))
@settings(max_examples=30, deadline=None)
def test_random_small_graphs_against_kuratowski(seed):
    import random

    rng = random.Random(seed)
    n = rng.randint(4, 8)
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    m = rng.randint(0, len(pairs))
    g = Graph.from_edges(n, rng.sample(pairs, m))
    assert is_planar(g) == is_planar_kuratowski(g)


def test_almost_planar_mobius():
    for k in (4, 5):
        g = gen_mobius(k).graph
        assert almost_planar_verdict(g) == (True, None)
        assert all(
            is_planar(delete_edge(g, e)) or is_planar(contract_edge(g, e))
            for e in g.edges
        )


def test_almost_planar_rejects_k6(k6):
    assert almost_planar_verdict(k6) == (False, (1, 2))
    assert not is_planar(delete_edge(k6, (1, 2)))
    assert not is_planar(contract_edge(k6, (1, 2)))


def test_almost_planar_rejects_planar():
    assert almost_planar_verdict(gen_wheel(6).graph) == (False, None)


def test_almost_planar_rejects_disconnected(k5):
    # K5 plus an isolated vertex: every edge test passes but the notion
    # is reserved for connected graphs
    g = Graph(6, k5.edges)
    assert all(is_planar(delete_edge(g, e)) for e in g.edges)
    assert almost_planar_verdict(g) == (False, None)


# -- the left-right test against independent references ------------------------


def _adj(g: Graph) -> list[list[int]]:
    """0-based neighbour lists of g, in sorted order."""
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.sorted_edges():
        adj[u - 1].append(v - 1)
        adj[v - 1].append(u - 1)
    return adj


def _lr(g: Graph) -> bool:
    return _lr_planar(g.n, _adj(g))


def _nx_planar(g: Graph) -> bool:
    G = nx.Graph(list(g.edges))
    G.add_nodes_from(g.vertices())
    return nx.check_planarity(G)[0]


@st.composite
def graphs(draw, max_n: int) -> Graph:
    """Sparse graphs, or dense ones as the complement of a sparse edge
    set, under a drawn labelling: empty, disconnected and complete
    graphs included."""
    n = draw(st.integers(0, max_n))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    chosen = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    if draw(st.booleans()):
        chosen = set(pairs) - chosen
    perm = draw(st.permutations(range(1, n + 1)))
    return Graph.from_edges(n, ((perm[u - 1], perm[v - 1]) for u, v in chosen))


@given(graphs(10))
@settings(max_examples=400, deadline=None)
def test_lr_planar_agrees_with_networkx(g):
    assert _lr(g) == _nx_planar(g)


@given(graphs(8))
@settings(max_examples=100, deadline=None)
def test_lr_planar_agrees_with_kuratowski(g):
    assert _lr(g) == is_planar_kuratowski(g)


def test_lr_planar_agrees_with_networkx_on_corpus_minors():
    minors = {
        minor
        for n in range(5, 10)
        for _, g in instances(n)
        for e in g.sorted_edges()
        for minor in (delete_edge(g, e), contract_edge(g, e))
    }
    assert len(minors) > 7000
    for minor in minors:
        assert _lr(minor) == _nx_planar(minor), minor


def _near_family_graph(draw) -> Graph:
    """A relabelled family instance on at most 8 vertices with up to two
    edges toggled, so positives and near misses both occur."""
    pool = [g for n in range(5, 9) for _, g in instances(n)]
    g = draw(st.sampled_from(pool))
    pairs = list(itertools.combinations(g.vertices(), 2))
    toggled = draw(st.lists(st.sampled_from(pairs), max_size=2, unique=True))
    g = Graph(g.n, g.edges.symmetric_difference(toggled))
    perm = draw(st.permutations(list(g.vertices())))
    return g.relabel({v: perm[v - 1] for v in g.vertices()})


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_verdict_pass_agrees_with_table_and_kuratowski(data):
    if data.draw(st.booleans()):
        g = _near_family_graph(data.draw)
    else:
        g = data.draw(graphs(8))
    verdict = almost_planar_verdict(g)
    if is_planar_kuratowski(g) or not is_connected(g):
        want = (False, None)
    else:
        failing = next(
            (
                e
                for e in g.sorted_edges()
                if not is_planar_kuratowski(contract_edge(g, e))
                and not is_planar_kuratowski(delete_edge(g, e))
            ),
            None,
        )
        want = (failing is None, failing)
    assert verdict == want


def test_lr_planar_has_no_depth_limit():
    n = 5000
    cycle = Graph.from_edges(n, [(i, i % n + 1) for i in range(1, n + 1)])
    assert _lr(cycle)
    assert is_planar(cycle)
    bicycle = gen_bicycle(2000).graph  # m = 3n - 5, past the Euler shortcut
    assert not _lr(bicycle)
    assert _lr(delete_edge(bicycle, edge(1999, 2000)))
