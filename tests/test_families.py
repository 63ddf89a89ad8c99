import importlib
import itertools
import json
import time

import networkx as nx
import pytest

from almostplanar import constructive
from almostplanar.constructive import constructive_spectrum, predicted_lengths
from almostplanar.families import (
    CHORD_NAMES,
    H1,
    H2,
    Bicycle,
    K33Chain,
    Mobius,
    Wheel,
    _bicycle_from_pattern,
    a_graph_spec,
    attach_fan,
    bicycle_is_3_connected,
    bicycle_is_bipartite,
    bicycle_is_planar,
    enumerate_b_minors,
    family_of,
    fan_vertex,
    gen_a_graph,
    gen_bicycle,
    gen_h1,
    gen_h2,
    gen_k33_chain,
    gen_mobius,
    gen_wheel,
    generate,
    instances,
    spec_is_4_connected,
    spec_to_json,
)
from almostplanar.graph import Graph, are_isomorphic, edge, is_k_connected
from almostplanar.planarity import almost_planar_verdict, is_planar

from corpus import corpus
from test_golden import GOLDEN, roles_digest, roles_specs

graph_module = importlib.import_module("almostplanar.graph")
planarity_module = importlib.import_module("almostplanar.planarity")


def nx_bipartite(g: Graph) -> bool:
    """networkx's bipartiteness test, an independent reference."""
    return nx.is_bipartite(nx.Graph(list(g.edges)))


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
    assert nx_bipartite(g) == (k % 2 == 1)


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


def _bicycle_edges(n: int, pattern: str) -> list[tuple[int, int]]:
    """Edges of the bicycle minor whose rim vertex i keeps both spokes
    (B), only the s-spoke (S), only the t-spoke (T) or none (N)."""
    r = n - 2
    edges = [(i, i % r + 1) for i in range(1, r + 1)] + [(n - 1, n)]
    for i, ch in enumerate(pattern, 1):
        if ch in "BS":
            edges.append((i, n))
        if ch in "BT":
            edges.append((i, n - 1))
    return edges


@pytest.mark.parametrize("n", range(5, 10))
def test_spoke_rule_is_3_connectivity(n):
    # ... and, on the 3-connected patterns, the planarity and
    # bipartiteness rules, each against a test on the graph
    for chars in itertools.product("BSTN", repeat=n - 2):
        pattern = "".join(chars)
        spec = Bicycle(
            n,
            removed_s=frozenset(i for i, ch in enumerate(pattern, 1) if ch in "TN"),
            removed_t=frozenset(i for i, ch in enumerate(pattern, 1) if ch in "SN"),
        )
        g = Graph.from_edges(n, _bicycle_edges(n, pattern))
        assert bicycle_is_3_connected(spec) == is_k_connected(g, 3), pattern
        if bicycle_is_3_connected(spec):
            assert bicycle_is_planar(spec) == is_planar(g), pattern
            assert bicycle_is_bipartite(spec) == nx_bipartite(g), pattern


def _fan_instances(n):
    """The H1 and H2 instances of `instances(n)`."""
    return [
        (spec, g)
        for spec, g in instances(n, include_bicycle=False)
        if isinstance(spec, (H1, H2))
    ]


def test_fan_instances_are_3_connected_and_non_planar():
    specs = [item for n in range(6, 13) for item in _fan_instances(n)]
    assert len(specs) == 1344
    for spec, g in specs:
        assert is_k_connected(g, 3), spec
        assert not is_planar(g), spec


def test_a_graph_parities(k33):
    assert are_isomorphic(gen_a_graph(6).graph, k33)
    spec = a_graph_spec(8)
    assert spec.removed_s == frozenset({2, 4, 6})
    assert spec.removed_t == frozenset({1, 3, 5})
    for n in (6, 8, 10):
        assert nx_bipartite(gen_a_graph(n).graph)
    for n in (7, 9):
        assert not nx_bipartite(gen_a_graph(n).graph)
    with pytest.raises(ValueError, match="n >= 6"):
        a_graph_spec(5)


def test_a_graph_even_coloring_classes():
    for n in (6, 8, 10):
        g = gen_a_graph(n).graph
        col = nx.bipartite.color(nx.Graph(list(g.edges)))
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


@pytest.mark.parametrize("p,q,r", [(1, 1, 1), (3, 1, 2), (2, 4, 3)])
def test_h_generators_grow_the_fans_attach_fan_grows(p, q, r):
    # gen_h1/gen_h2 grow their fans on the role maps; attach_fan, one
    # Graph per fan, must give the same instance
    for gen, third_hub in ((gen_h1, 2), (gen_h2, 1)):
        inst = gen_k33_chain(("ab", "bc", "ac"))
        for sides, length, prefix in (
            ((edge(1, 2), edge(2, 4)), p, "x"),
            ((edge(2, 3), edge(2, 5)), q, "y"),
            ((edge(1, 2), edge(third_hub, 6)), r, "z"),
        ):
            corners = set(sides[0]) ^ set(sides[1])
            tri = (*sides, edge(*corners))
            roles = [f"{prefix}{i}" for i in range(2, length + 1)]
            inst = attach_fan(inst, tri, sides, length, roles)
        grown = gen(p, q, r, ())
        assert grown.graph == inst.graph
        assert grown.vertex_roles == inst.vertex_roles
        assert grown.edge_roles == inst.edge_roles


@pytest.mark.parametrize(
    "spec",
    [
        Mobius(5),
        Bicycle(9),
        Bicycle(9, frozenset({2, 5}), frozenset({3})),
        a_graph_spec(10),
        Wheel(7),
        K33Chain(),
        K33Chain(frozenset({"ab", "ac"})),
        H1(1, 1, 1),
        H1(3, 2, 4, frozenset({"ab", "bc", "ac"})),
        H1(2, 1, 3, frozenset({"ab"})),
        H2(1, 4, 2, frozenset({"bc", "ac"})),
        H2(5, 1, 1, frozenset({"ab", "bc", "ac"})),
    ],
)
def test_generate_builds_one_graph(monkeypatch, spec):
    # every family's generator builds one Graph, on edges it writes valid
    # by construction, so no per-edge check runs
    checked, trusted = [], []
    post_init, build = Graph.__post_init__, Graph._trusted.__func__

    def counted_check(self):
        checked.append(self.n)
        post_init(self)

    def counted_build(cls, n, edges):
        trusted.append(n)
        return build(cls, n, edges)

    monkeypatch.setattr(Graph, "__post_init__", counted_check)
    monkeypatch.setattr(Graph, "_trusted", classmethod(counted_build))
    inst = generate(spec)
    assert (checked, trusted) == ([], [inst.graph.n])


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
    specs = [spec] if spec is not None else [s for s, _ in corpus(10)]
    for s in specs:
        data = spec_to_json(s)
        family = family_of(s)
        assert data["family"] == family.name
        rebuilt = family.spec_type(
            *(frozenset(data[name]) if is_set else data[name] for name, _, is_set in family.params)
        )
        assert rebuilt == s
        assert generate(s).graph.n == family.vertex_count(s), s


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
        assert almost_planar_verdict(g) == (True, None), spec


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


def test_family_instances_make_no_connectivity_pass(monkeypatch):
    passes = []
    helper = graph_module._biconnected_after_removal

    def counted(g, removed):
        passes.append(removed)
        return helper(g, removed)

    monkeypatch.setattr(graph_module, "_biconnected_after_removal", counted)
    lr_tests = []
    lr_planar = planarity_module._lr_planar

    def counted_lr(n, adj):
        lr_tests.append(n)
        return lr_planar(n, adj)

    monkeypatch.setattr(planarity_module, "_lr_planar", counted_lr)
    assert len(enumerate_b_minors(9)) == 95
    assert _fan_instances(10)
    minor = Bicycle(
        120,
        removed_s=frozenset(range(3, 119, 3)),
        removed_t=frozenset(range(2, 119, 3)),
    )
    assert len(constructive_spectrum(minor).witnesses) == 118
    assert passes == [] and lr_tests == []


def test_bicycle_rules_are_linear_time():
    # full B_n and A_n at the vertex bound: no graph, no search
    t0 = time.perf_counter()
    assert len(predicted_lengths(Bicycle(100_000))) == 100_000 - 2
    assert len(predicted_lengths(a_graph_spec(100_000))) == 100_000 // 2 - 1
    assert time.perf_counter() - t0 < 1.0


def test_spec_rule_is_4_connectivity():
    for n in range(5, 10):
        for spec, g in instances(n):
            assert spec_is_4_connected(spec) == is_k_connected(g, 4), spec


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


# -- graphs without per-edge checks and roles on first read --------------------

CHORDS = frozenset(CHORD_NAMES)
LARGE_N = 1000

# One or more instances of every family at n = 10^3 (a K33 chain has 6
# vertices), with every shape a builder treats apart.
LARGE_SPECS = [
    Mobius(LARGE_N // 2),
    Bicycle(LARGE_N),
    a_graph_spec(LARGE_N),
    _bicycle_from_pattern(LARGE_N, "TS" * (LARGE_N // 2 - 1)),
    _bicycle_from_pattern(LARGE_N, ("SSTBT" * LARGE_N)[: LARGE_N - 2]),
    Wheel(LARGE_N),
    K33Chain(CHORDS),
    H1(1, 1, 1, frozenset({"ab"})),
    *(
        kind(*pqr, CHORDS)
        for kind in (H1, H2)
        for pqr in ((1, 1, LARGE_N - 5), (332, 333, 332), (2, 3, LARGE_N - 8))
    ),
    H2(2, 3, LARGE_N - 8, frozenset({"bc"})),
]


def _roles_built(inst) -> bool:
    """Whether inst holds a role map: stored ones sit in its __dict__."""
    return not inst.__dict__.keys().isdisjoint(
        ("_roles", "vertex_roles", "edge_roles", "role_to_vertex")
    )


def _run_every_builder(spec, inst) -> int:
    """Run on inst the builder that constructive_spectrum picks for spec,
    at every predicted length; for a bicycle minor also its Hamiltonian
    cycle, and for B_n Hamiltonian paths from each hub and from rim
    vertex 1.  Returns the number of witnesses built."""
    build = constructive.SPECTRA[family_of(spec).name].builder(spec, inst)
    witnesses = [build(length) for length in sorted(predicted_lengths(spec))]
    if isinstance(spec, Bicycle):
        witnesses.append(constructive.b_graph_ham_cycle(inst))
        if spec_is_4_connected(spec):
            n = spec.n
            for u, v in itertools.product((1, n - 1, n), (2, n // 2, n - 2, n)):
                if u != v:
                    witnesses.append(constructive.bicycle_ham_path(inst, u, v))
    return len(witnesses)


def test_generated_graphs_pass_the_edge_check():
    # the generators build their graphs unchecked; the checked constructor
    # must accept every one of them unchanged
    graphs = [g for _, g in corpus(10)]
    graphs += [generate(spec).graph for spec in LARGE_SPECS]
    for g in graphs:
        assert type(g.edges) is frozenset
        assert Graph(g.n, g.edges) == g


def test_builders_read_no_role_map_and_roles_read_the_golden():
    insts = [generate(spec) for spec in roles_specs()]
    for inst in insts:
        assert not _roles_built(inst)
        assert _run_every_builder(inst.family, inst)
        assert not _roles_built(inst), inst.family
    golden = json.loads((GOLDEN / "roles.json").read_text())
    assert roles_digest(insts) == golden
    for inst in insts:
        assert set(inst.edge_roles) == inst.graph.edges


@pytest.mark.parametrize("spec", LARGE_SPECS)
def test_large_instances_build_roles_on_first_read(spec):
    inst = generate(spec)
    assert _run_every_builder(spec, inst)
    assert not _roles_built(inst)
    g = inst.graph
    assert set(inst.edge_roles) == g.edges
    assert set(inst.vertex_roles) == set(g.vertices())
    assert _roles_built(inst)
    if isinstance(spec, (H1, H2)):
        rv = inst.role_to_vertex
        assert [rv[role] for role in ("a", "b", "c", "x1", "y1", "z1")] == list(range(1, 7))
        for prefix, length in zip("xyz", (spec.p, spec.q, spec.r)):
            for i in range(1, length + 1):
                assert rv[f"{prefix}{i}"] == fan_vertex(spec, prefix, i)
