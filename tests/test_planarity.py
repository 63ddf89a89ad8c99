import itertools

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from almostplanar.families import gen_bicycle, gen_mobius, gen_wheel, instances
from almostplanar.graph import (
    MAX_VERTICES,
    Graph,
    contract_edge,
    delete_edge,
    edge,
    is_connected,
)
from almostplanar.planarity import (
    _EDGE_BYTES,
    _contraction,
    _deletion,
    _lr_planar,
    _pack_edges,
    _planar_cached,
    _unpack_edges,
    almost_planar_verdict,
    almost_planar_verdict_within,
    is_planar,
)

from corpus import corpus_graphs
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


def _packed_minors(g: Graph):
    """Each edge's deletion and contraction of g, as a graph and as the
    key that the verdict builds; each key decodes to exactly the sorted
    edges of its graph."""
    edges = g.sorted_edges()
    codes = _pack_edges(edges)
    for i, e in enumerate(edges):
        for minor, key in (
            (delete_edge(g, e), _deletion(codes, i)),
            (contract_edge(g, e), _contraction(edges, e)),
        ):
            assert _unpack_edges(key) == minor.sorted_edges(), (g, e)
            yield minor, key


def test_lr_planar_agrees_with_networkx_on_corpus_minors():
    minors = {
        minor: key
        for n in range(5, 10)
        for _, g in instances(n)
        for minor, key in _packed_minors(g)
    }
    assert len(minors) > 7000
    for minor, key in minors.items():
        assert _lr(minor) == _nx_planar(minor) == _planar_cached(minor.n, key), minor


def _near_family_graph(draw) -> Graph:
    """A relabelled family instance on at most 8 vertices with up to two
    edges toggled, so positives and near misses both occur."""
    g = draw(st.sampled_from(corpus_graphs(8)))
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


def _nx_every_edge_deletes_or_contracts_to_planar(G: nx.Graph) -> bool:
    """Whether, by networkx alone, deleting or contracting each edge of G
    leaves a planar graph."""
    for u, v in G.edges:
        deleted = G.copy()
        deleted.remove_edge(u, v)
        contracted = nx.Graph(nx.contracted_edge(G, (u, v), self_loops=False))
        if not (nx.check_planarity(deleted)[0] or nx.check_planarity(contracted)[0]):
            return False
    return True


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_spanning_subgraphs_inherit_that_every_edge_deletes_or_contracts_to_planar(
    data,
):
    # The lemma behind `almost_planar_verdict_within`, checked with no
    # package planarity code.
    g = data.draw(st.sampled_from(corpus_graphs(8)))
    removed = data.draw(st.lists(st.sampled_from(g.sorted_edges()), unique=True))
    G = nx.Graph(g.sorted_edges())
    G.add_nodes_from(g.vertices())
    H = G.copy()
    H.remove_edges_from(removed)
    if _nx_every_edge_deletes_or_contracts_to_planar(G):
        assert _nx_every_edge_deletes_or_contracts_to_planar(H)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_verdict_within_a_cover_is_the_verdict(data):
    # The cover is a family instance, almost-planar, or a near miss that
    # may not be; g is a spanning subgraph of it, planar and disconnected
    # ones included, or that plus one edge the cover lacks.
    if data.draw(st.booleans()):
        cover = data.draw(st.sampled_from(corpus_graphs(8)))
    else:
        cover = _near_family_graph(data.draw)
    removed = data.draw(st.sets(st.sampled_from(cover.sorted_edges())))
    edges = cover.edges - removed
    free = sorted(set(itertools.combinations(cover.vertices(), 2)) - cover.edges)
    if free and data.draw(st.booleans()):
        edges |= {data.draw(st.sampled_from(free))}
    g = Graph(cover.n, edges)
    assert almost_planar_verdict_within(g, cover) == almost_planar_verdict(g)


def test_lr_planar_has_no_depth_limit():
    n = 5000
    cycle = Graph.from_edges(n, [(i, i % n + 1) for i in range(1, n + 1)])
    assert _lr(cycle)
    assert is_planar(cycle)
    bicycle = gen_bicycle(2000).graph  # m = 3n - 5, past the Euler shortcut
    assert not _lr(bicycle)
    assert _lr(delete_edge(bicycle, edge(1999, 2000)))


# -- the packed minors and the cache key -----------------------------------------


def test_cache_key_has_a_fixed_width_and_holds_the_vertex_bound(k4, k33):
    assert _EDGE_BYTES == 8
    for g in (Graph(3), k4, k33, gen_bicycle(9).graph):
        assert len(_pack_edges(g.sorted_edges())) == _EDGE_BYTES * g.m
    # past 2^16, so a 16-bit code could not hold it
    top = [(1, MAX_VERTICES), (65_535, 65_536), (99_999, 100_000)]
    codes = _pack_edges(top)
    assert len(codes) == 3 * _EDGE_BYTES
    assert _unpack_edges(codes) == top


def test_is_planar_hits_the_keys_of_the_verdicts_minors(k6):
    _planar_cached.cache_clear()
    almost_planar_verdict.cache_clear()
    assert almost_planar_verdict(k6) == (False, (1, 2))
    before = _planar_cached.cache_info()
    assert not is_planar(k6)
    assert not is_planar(contract_edge(k6, (1, 2)))
    assert not is_planar(delete_edge(k6, (1, 2)))
    after = _planar_cached.cache_info()
    assert (after.hits - before.hits, after.misses) == (3, before.misses)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_packed_minors_of_relabelled_and_mutated_instances(data):
    g = data.draw(st.sampled_from(corpus_graphs(9)))
    free = sorted(set(itertools.combinations(g.vertices(), 2)) - g.edges)
    if free and data.draw(st.booleans()):
        drop = data.draw(st.sampled_from(g.sorted_edges()))
        g = Graph(g.n, (g.edges - {drop}) | {data.draw(st.sampled_from(free))})
    perm = data.draw(st.permutations(list(g.vertices())))
    for minor, key in _packed_minors(g.relabel({v: perm[v - 1] for v in g.vertices()})):
        assert _planar_cached(minor.n, key) == _nx_planar(minor), minor
