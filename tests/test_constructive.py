import itertools
import time

import pytest

from almostplanar import constructive, families
from almostplanar.constructive import (
    a_even_cycle,
    b_adjacent_spoke_cycle,
    b_graph_ham_cycle,
    bicycle_cycle,
    bicycle_ham_path,
    constructive_spectrum,
    h1_cycle,
    h2_cycle,
    k33_chain_cycle,
    mobius_cycle,
    mobius_lengths,
    predicted_lengths,
    wheel_cycle,
)
from almostplanar.errors import NotInSpectrumError, UnclassifiableError
from almostplanar.families import (
    H1,
    H2,
    Bicycle,
    K33Chain,
    Mobius,
    Wheel,
    a_graph_spec,
    bicycle_is_3_connected,
    enumerate_b_minors,
    gen_a_graph,
    gen_bicycle,
    gen_h1,
    gen_h2,
    gen_k33_chain,
    gen_mobius,
    gen_wheel,
    generate,
    rim_index,
)
from almostplanar.oracle import cycle_spectrum, validate_cycle, validate_path
from almostplanar.planarity import is_planar

ALL_CHORDS = ("ab", "bc", "ac")


def test_mobius_lengths_prediction():
    assert mobius_lengths(5) == frozenset({4, 6, 8, 10})
    assert mobius_lengths(4) == frozenset({4, 5, 6, 7, 8})
    assert mobius_lengths(7) == frozenset({4, 6, 8, 10, 12, 14})


def test_mobius_cycle_examples():
    inst = gen_mobius(5)
    ham = mobius_cycle(inst, 10)
    assert ham == [1, 2, 3, 4, 10, 5, 9, 8, 7, 6]
    five = mobius_cycle(gen_mobius(4), 5)
    assert five == [1, 2, 3, 8, 4]
    with pytest.raises(NotInSpectrumError):
        mobius_cycle(inst, 3)
    with pytest.raises(NotInSpectrumError):
        mobius_cycle(inst, 7)  # odd needs even k


@pytest.mark.parametrize("k", range(3, 8))
def test_mobius_cycle_all_lengths(k):
    inst = gen_mobius(k)
    for length in sorted(mobius_lengths(k)):
        seq = mobius_cycle(inst, length)
        assert validate_cycle(inst.graph, seq, length)


@pytest.mark.parametrize("n", range(5, 10))
def test_bicycle_cycle_all_lengths(n):
    inst = gen_bicycle(n)
    assert bicycle_cycle(inst, 3) == [n, 1, n - 1]
    for length in range(3, n + 1):
        assert validate_cycle(inst.graph, bicycle_cycle(inst, length), length)
    with pytest.raises(NotInSpectrumError):
        bicycle_cycle(inst, n + 1)


def test_bicycle_cycle_needs_full():
    inst = gen_bicycle(7, removed_s={2})
    with pytest.raises(ValueError, match="full"):
        bicycle_cycle(inst, 4)


@pytest.mark.parametrize("n", range(5, 9))
def test_bicycle_ham_path_all_pairs(n):
    inst = gen_bicycle(n)
    for u, v in itertools.combinations(range(1, n + 1), 2):
        path = bicycle_ham_path(inst, u, v)
        assert path[0] == u and path[-1] == v
        assert validate_path(inst.graph, path, n)


def test_bicycle_ham_path_adjacent_matches_classic_form():
    inst = gen_bicycle(6)
    assert bicycle_ham_path(inst, 1, 2) == [1, 6, 5, 4, 3, 2]


def test_b_graph_ham_cycle():
    for n in range(6, 11):
        for spec in enumerate_b_minors(n):
            inst = generate(spec)
            seq = b_graph_ham_cycle(inst)
            assert validate_cycle(inst.graph, seq, n)


def test_a_even_cycle():
    inst = gen_a_graph(8)
    assert a_even_cycle(inst, 4) == [8, 1, 2, 3]
    for length in (4, 6, 8):
        assert validate_cycle(inst.graph, a_even_cycle(inst, length), length)
    with pytest.raises(NotInSpectrumError, match="even"):
        a_even_cycle(inst, 5)
    with pytest.raises(ValueError):
        a_even_cycle(gen_a_graph(7), 4)  # odd n is not this builder's case
    # A_8 with its hubs swapped: the t-hub keeps the odd spokes
    swapped = gen_bicycle(8, removed_s={1, 3, 5}, removed_t={2, 4, 6})
    assert a_even_cycle(swapped, 4) == [7, 1, 2, 3]
    assert a_even_cycle(swapped, 8) == [7, 1, 2, 8, 6, 5, 4, 3]


def test_a_even_cycle_hamiltonian_form():
    inst = gen_a_graph(10)
    assert a_even_cycle(inst, 10) == [10, 1, 2, 9, 8, 7, 6, 5, 4, 3]


def test_b_adjacent_spoke_cycle():
    # A7 has the wrap-around adjacent s-pair (s5, s1)
    inst = gen_a_graph(7)
    tri = b_adjacent_spoke_cycle(inst, 3)
    assert validate_cycle(inst.graph, tri, 3)
    for length in range(3, 8):
        assert validate_cycle(
            inst.graph, b_adjacent_spoke_cycle(inst, length), length
        )
    with pytest.raises(ValueError, match="not applicable"):
        b_adjacent_spoke_cycle(gen_a_graph(8), 4)


def test_b_adjacent_spoke_cycle_other_hub_case():
    inst = gen_bicycle(6, removed_t={2})
    seq = b_adjacent_spoke_cycle(inst, 4)
    assert validate_cycle(inst.graph, seq, 4)


def test_wheel_cycle():
    inst = gen_wheel(6)
    assert wheel_cycle(inst, 3) == [1, 6, 2]
    assert wheel_cycle(inst, 6) == [1, 6, 2, 3, 4, 5]
    for length in range(3, 7):
        assert validate_cycle(inst.graph, wheel_cycle(inst, length), length)
    with pytest.raises(NotInSpectrumError):
        wheel_cycle(inst, 2)


def test_h1_cycle_claimed_hamiltonian():
    inst = gen_h1(2, 2, 2, ALL_CHORDS)
    rv = inst.role_to_vertex
    want = [
        rv["x1"], rv["x2"], rv["a"], rv["z2"], rv["z1"],
        rv["c"], rv["y2"], rv["y1"], rv["b"],
    ]
    assert h1_cycle(inst, 9) == want


def test_h1_special_length_row():
    inst = gen_h1(3, 1, 1, ALL_CHORDS)
    seq = h1_cycle(inst, 5)  # p + 2
    assert validate_cycle(inst.graph, seq, 5)


@pytest.mark.parametrize("p,q,r", list(itertools.product((1, 2, 3), repeat=3)))
def test_h_cycles_all_lengths(p, q, r):
    n = p + q + r + 3
    for gen, build in ((gen_h1, h1_cycle), (gen_h2, h2_cycle)):
        inst = gen(p, q, r, ALL_CHORDS)
        lengths = predicted_lengths(inst.family)
        for length in sorted(lengths):
            assert validate_cycle(inst.graph, build(inst, length), length)
        if (p, q, r) == (1, 1, 1):
            with pytest.raises(NotInSpectrumError):
                build(inst, 3)


def test_h_cycle_requires_fully_deleted():
    inst = gen_h1(2, 2, 2)
    with pytest.raises(ValueError, match="fully-deleted"):
        h1_cycle(inst, 5)


def test_k33_chain_cycles():
    for extras in (("ab",), ("bc",), ("ac",), ("ab", "bc"), ALL_CHORDS):
        inst = gen_k33_chain(extras)
        for length in (3, 4, 5, 6):
            assert validate_cycle(inst.graph, k33_chain_cycle(inst, length), length)
    bare = gen_k33_chain(())
    for length in (4, 6):
        assert validate_cycle(bare.graph, k33_chain_cycle(bare, length), length)
    with pytest.raises(NotInSpectrumError):
        k33_chain_cycle(bare, 5)


def test_predicted_lengths():
    assert predicted_lengths(Mobius(7)) == frozenset({4, 6, 8, 10, 12, 14})
    assert predicted_lengths(a_graph_spec(9)) == frozenset(range(3, 10))
    assert predicted_lengths(a_graph_spec(10)) == frozenset({4, 6, 8, 10})
    assert predicted_lengths(H1(1, 2, 1, frozenset(ALL_CHORDS))) == frozenset(
        range(3, 8)
    )
    assert predicted_lengths(Wheel(6)) == frozenset(range(3, 7))
    # no theorem covers a planar bicycle pattern: partial marker
    assert predicted_lengths(Bicycle(5, frozenset({1}), frozenset())) is None
    # nor one that is not 3-connected
    assert predicted_lengths(Bicycle(7, frozenset({2}), frozenset({2}))) is None
    assert predicted_lengths(Bicycle(7, frozenset({1, 2, 3, 4}), frozenset())) is None


def test_constructive_spectrum_matches_oracle_samples():
    specs = [
        Mobius(5),
        Mobius(4),
        a_graph_spec(10),
        Bicycle(8),
        Bicycle(9, frozenset({2}), frozenset({5, 7})),
        Wheel(7),
        K33Chain(frozenset({"ab"})),
        H1(2, 1, 2, frozenset(ALL_CHORDS)),
        H1(1, 1, 1, frozenset(ALL_CHORDS)),
        H2(3, 2, 1, frozenset()),
        H1(1, 1, 1, frozenset({"ab"})),
    ]
    for spec in specs:
        built = constructive_spectrum(spec)
        g = generate(spec).graph
        assert built.lengths == cycle_spectrum(g).lengths, spec
        for length, seq in built.witnesses.items():
            assert validate_cycle(g, seq, length)


def test_constructive_spectrum_matches_oracle_on_every_spoke_pattern():
    # Every 3-connected non-planar pattern, not one per orbit: the
    # hub-swapped A_n, for one, is no orbit's representative.
    checked = 0
    for n in range(5, 9):
        for pattern in itertools.product("BST", repeat=n - 2):
            spec = Bicycle(
                n,
                removed_s=frozenset(i for i, ch in enumerate(pattern, 1) if ch == "T"),
                removed_t=frozenset(i for i, ch in enumerate(pattern, 1) if ch == "S"),
            )
            if not bicycle_is_3_connected(spec):
                continue
            g = generate(spec).graph
            if is_planar(g):
                continue
            built = constructive_spectrum(spec)
            assert built.lengths == cycle_spectrum(g).lengths, pattern
            for length, seq in built.witnesses.items():
                assert validate_cycle(g, seq, length)
            checked += 1
    assert checked == 800


def test_constructive_spectrum_rejects_uncovered_spec():
    with pytest.raises(UnclassifiableError):
        constructive_spectrum(Bicycle(5, frozenset({1}), frozenset()))


def test_builders_are_linear_time():
    # a ten-thousand-vertex wheel pair: generation plus Hamiltonian
    # cycle plus validation in well under a second
    n = 10_000
    t0 = time.perf_counter()
    inst = gen_bicycle(n)
    seq = bicycle_cycle(inst, n)
    assert validate_cycle(inst.graph, seq, n)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    t0 = time.perf_counter()
    seq = bicycle_cycle(inst, n)
    assert validate_cycle(inst.graph, seq, n)
    emit_elapsed = time.perf_counter() - t0
    assert emit_elapsed < 0.5


def test_bicycle_walks_make_constant_rim_index_calls(monkeypatch):
    # the rim walks are ranges: a fixed number of rim_index calls for any
    # n, never one per vertex
    calls = []

    def counted(n, i):
        calls.append(i)
        return rim_index(n, i)

    monkeypatch.setattr(constructive, "rim_index", counted)
    counts = {}
    for n in (1000, 10_000):
        full, alternating = gen_bicycle(n), gen_a_graph(n)
        ops = [
            (bicycle_ham_path, full, (n, n - 1)),
            (bicycle_ham_path, full, (n, 1)),
            (bicycle_ham_path, full, (n // 2, n - 1)),
            (bicycle_ham_path, full, (1, 2)),
            (bicycle_ham_path, full, (2, 1)),
            (bicycle_ham_path, full, (1, n - 2)),
            (bicycle_ham_path, full, (n // 2, 3)),
            (b_graph_ham_cycle, full, ()),
            (b_graph_ham_cycle, alternating, ()),
        ]
        for build, inst, args in ops:
            calls.clear()
            build(inst, *args)
            counts.setdefault(n, []).append(len(calls))
    assert counts[1000] == counts[10_000]
    assert max(counts[10_000]) <= 3


def test_constructive_spectrum_builds_a_minors_rim_word_once(monkeypatch):
    # generate hands back the caller's spec, so the spectrum rule and every
    # builder share its cached rim word
    builds = []

    def counted(spec):
        builds.append(spec)
        return rim_word(spec)

    rim_word = families._rim_word
    monkeypatch.setattr(families, "_rim_word", counted)
    spec = a_graph_spec(1000)
    assert generate(spec).family is spec
    constructive_spectrum(spec)
    assert builds == [spec]


def test_a_even_cycle_builds_the_rim_word_once_per_spec(monkeypatch):
    # the bipartite precondition reads the spec's cached rim word, which
    # generating the instance built; ten builder calls build no other
    builds = []

    def counted(spec):
        builds.append(spec)
        return rim_word(spec)

    rim_word = families._rim_word
    monkeypatch.setattr(families, "_rim_word", counted)
    inst = generate(a_graph_spec(10_000))
    for length in range(4, 24, 2):
        a_even_cycle(inst, length)
    assert builds == [inst.family]
