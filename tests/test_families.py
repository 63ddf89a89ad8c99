import itertools
import re

import pytest

from almostplanar.families import (
    H1,
    H2,
    Bicycle,
    K33Chain,
    Mobius,
    Wheel,
    a_graph_spec,
    attach_fan,
    enumerate_b_minors,
    family_of,
    gen_a_graph,
    gen_bicycle,
    gen_h1,
    gen_h2,
    gen_k33_chain,
    gen_mobius,
    gen_wheel,
    generate,
    spec_from_json,
    spec_to_json,
)
from almostplanar.graph import are_isomorphic, edge, is_bipartite, is_k_connected
from almostplanar.planarity import is_almost_planar, is_planar
from almostplanar.verify import family_corpus


def test_mobius_shape():
    inst = gen_mobius(4)
    g = inst.graph
    assert g.n == 8 and g.m == 12
    assert all(g.degree(v) == 3 for v in g.vertices())
    assert inst.vertex_roles[1] == "ladder-left-1"
    assert inst.vertex_roles[8] == "ladder-right-4"
    with pytest.raises(ValueError):
        gen_mobius(2)


def test_mobius_is_k33_at_k3(k33):
    assert are_isomorphic(gen_mobius(3).graph, k33)


@pytest.mark.parametrize("k", range(3, 8))
def test_mobius_invariants(k):
    g = gen_mobius(k).graph
    assert g.m == 3 * k
    assert all(g.degree(v) == 3 for v in g.vertices())
    assert is_k_connected(g, 3)
    assert not is_k_connected(g, 4)  # cubic
    assert not is_planar(g)
    assert is_bipartite(g) == (k % 2 == 1)


def test_bicycle_full_shape():
    inst = gen_bicycle(8)
    g = inst.graph
    assert g.m == 3 * 8 - 5
    # hubs see every rim vertex plus each other
    assert g.degree(8) == 7 and g.degree(7) == 7
    assert all(g.degree(i) == 4 for i in range(1, 7))
    assert inst.edge_roles[edge(7, 8)] == "z"
    assert inst.edge_roles[edge(8, 1)] == "s1"
    assert inst.edge_roles[edge(7, 1)] == "t1"
    assert inst.edge_roles[edge(6, 1)] == "r6"


def test_bicycle_b5_is_k5(k5):
    assert are_isomorphic(gen_bicycle(5).graph, k5)


def test_bicycle_rejects_double_removal():
    with pytest.raises(ValueError, match="3-connectivity"):
        gen_bicycle(7, removed_s={2}, removed_t={2})
    inst = gen_bicycle(7, removed_s={2}, removed_t={2}, require_3_connected=False)
    assert inst.warnings
    assert inst.graph.degree(2) == 2


def test_a_graph_parities(k33):
    assert are_isomorphic(gen_a_graph(6).graph, k33)
    spec = a_graph_spec(8)
    assert spec.removed_s == frozenset({2, 4, 6})
    assert spec.removed_t == frozenset({1, 3, 5})
    for n in (6, 8, 10):
        assert is_bipartite(gen_a_graph(n).graph)
    for n in (7, 9):
        assert not is_bipartite(gen_a_graph(n).graph)


def test_a_graph_even_coloring_classes():
    from almostplanar.graph import two_coloring

    for n in (6, 8, 10):
        g = gen_a_graph(n).graph
        col = two_coloring(g)
        odd_side = frozenset(v for v in g.vertices() if col[v] == col[1])
        assert odd_side == frozenset(range(1, n + 1, 2))


def test_wheel_shape():
    g = gen_wheel(6).graph
    assert g.n == 6 and g.m == 10
    assert g.degree(6) == 5
    assert is_planar(g)


def test_k33_chain_variants(k33):
    assert are_isomorphic(gen_k33_chain(()).graph, k33)
    assert gen_k33_chain(("ab",)).graph.m == 10
    assert gen_k33_chain(("ab", "bc", "ac")).graph.m == 12
    with pytest.raises(ValueError):
        gen_k33_chain(("xy",))


def test_h1_identity_when_fans_are_length_one():
    assert gen_h1(1, 1, 1).graph == gen_k33_chain(("ab", "bc", "ac")).graph


@pytest.mark.parametrize("p,q,r", [(1, 1, 1), (2, 1, 1), (2, 3, 1), (3, 3, 3)])
def test_h_vertex_counts(p, q, r):
    for gen in (gen_h1, gen_h2):
        g = gen(p, q, r).graph
        assert g.n == p + q + r + 3
        assert g.m == 2 * g.n


def test_h1_h2_differ_only_in_third_fan():
    assert gen_h1(2, 2, 1).graph == gen_h2(2, 2, 1).graph
    assert gen_h1(2, 2, 2).graph != gen_h2(2, 2, 2).graph


def test_attach_fan_identity_and_growth():
    base = gen_k33_chain(("ab", "bc", "ac"))
    tri = (edge(1, 2), edge(2, 4), edge(1, 4))  # a-b, b-x1, a-x1
    same = attach_fan(base, tri, (edge(1, 2), edge(2, 4)), 1)
    assert same.graph == base.graph
    for length in (2, 3, 4):
        grown = attach_fan(base, tri, (edge(1, 2), edge(2, 4)), length)
        assert grown.graph.n == base.graph.n + length - 1
        assert grown.graph.m == base.graph.m + 2 * (length - 1)
        assert not grown.graph.has_edge(1, 4)  # third side deleted


def test_attach_fan_rejects_bad_triangles():
    base = gen_k33_chain(("ab", "bc", "ac"))
    with pytest.raises(ValueError, match="triangle"):
        attach_fan(base, (edge(1, 2), edge(2, 4), edge(3, 4)), (edge(1, 2), edge(2, 4)), 2)
    with pytest.raises(ValueError, match="share"):
        attach_fan(base, (edge(1, 2), edge(2, 4), edge(1, 4)), (edge(1, 2), edge(1, 2)), 2)


@pytest.mark.parametrize(
    "spec",
    [
        Mobius(4),
        Bicycle(8, frozenset({2}), frozenset({5})),
        Wheel(7),
        K33Chain(frozenset({"ab"})),
        H1(2, 1, 3, frozenset({"bc"})),
        H2(1, 2, 2, frozenset({"ab", "ac"})),
        pytest.param(None, id="corpus-n10"),
    ],
)
def test_spec_json_round_trip(spec):
    specs = [spec] if spec is not None else [s for s, _ in family_corpus(10)]
    for s in specs:
        assert spec_from_json(spec_to_json(s)) == s
        assert generate(s).graph.n == family_of(s).vertex_count(s), s


@pytest.mark.parametrize(
    "data, message",
    [
        ({"family": "mobius"}, "missing field 'k'"),
        ({"family": "h1", "p": 1, "q": 1}, "missing field 'r'"),
        ({"family": "bicycle", "n": 8, "removed_s": "12"}, "'removed_s' must be a list"),
        ({"family": "h2", "p": 1, "q": 1, "r": 1, "deleted": "ab"}, "'deleted' must be a list"),
        ({"family": "bicycle", "n": 8, "removed_t": [1, "2"]}, "'removed_t' needs int"),
        ({"family": "mobius", "k": "4"}, "'k' needs int"),
        ({"family": "mobius", "k": True}, "'k' needs int"),
        ({"family": "wheel", "n": 7.0}, "'n' needs int"),
        ({"family": "k33chain", "extra_edges": [1]}, "'extra_edges' needs str"),
        ({"family": "petersen"}, "unknown family"),
        ({}, "unknown family"),
        (["mobius", 4], "JSON object"),
    ],
)
def test_spec_from_json_rejects_malformed(data, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        spec_from_json(data)


def test_spec_from_json_missing_set_field_is_empty():
    assert spec_from_json({"family": "bicycle", "n": 8}) == Bicycle(8)
    assert spec_from_json({"family": "k33chain"}) == K33Chain()


def test_generated_instances_are_almost_planar():
    specs = [
        Mobius(3),
        Mobius(5),
        Bicycle(7),
        a_graph_spec(8),
        K33Chain(frozenset()),
        K33Chain(frozenset({"ab", "bc", "ac"})),
        H1(2, 2, 2, frozenset({"ab", "bc", "ac"})),
        H2(2, 1, 2, frozenset()),
    ]
    for spec in specs:
        g = generate(spec).graph
        assert is_k_connected(g, 3), spec
        assert not is_planar(g), spec
        assert is_almost_planar(g).verdict, spec


def test_enumerate_b5_keeps_only_full():
    specs = enumerate_b_minors(5)
    assert specs == (Bicycle(5, frozenset(), frozenset()),)
    # removing any spoke from B5 = K5 breaks non-planarity or 3-connectivity
    for i in (1, 2, 3):
        g = gen_bicycle(5, removed_s={i}).graph
        assert is_planar(g) or not is_k_connected(g, 3)


@pytest.mark.parametrize("n", range(6, 10))
def test_enumerate_b_minors_filters_hold(n):
    specs = enumerate_b_minors(n)
    assert Bicycle(n, frozenset(), frozenset()) in specs
    for spec in specs:
        g = generate(spec).graph
        assert is_k_connected(g, 3)
        assert not is_planar(g)
        assert min(g.degree(v) for v in g.vertices()) >= 3


def test_enumerate_b_minors_dedup_is_sound():
    # the dihedral + hub-swap shortcut must agree with true isomorphism:
    # distinct representatives are pairwise non-isomorphic at small n
    for n in (6, 7):
        graphs = [generate(s).graph for s in enumerate_b_minors(n)]
        for g1, g2 in itertools.combinations(graphs, 2):
            assert not are_isomorphic(g1, g2)


def test_enumerate_b_minors_cap():
    with pytest.raises(ValueError, match="cap"):
        enumerate_b_minors(13)


def test_roles_json_and_dot():
    inst = gen_bicycle(6)
    data = inst.roles_to_json()
    assert data["schema"] == 1
    assert data["family"]["family"] == "bicycle"
    assert data["vertex_roles"]["6"] == "hub-s"
    dot = inst.to_dot()
    assert dot.startswith("graph G {")
    assert '5 -- 6 [role="z"]' in dot
