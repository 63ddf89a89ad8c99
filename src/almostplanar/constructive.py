"""Linear-time cycle builders for every family, one per explicit construction.

Each builder assembles a vertex sequence directly from the instance's
role labels in O(n) and gates it through the validators before
returning; a builder that cannot produce a valid sequence raises, it
never emits an unchecked cycle.  The test suite checks every builder
against the exhaustive oracle.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Callable, NamedTuple, Optional

from .errors import FalsificationError, NotInSpectrumError, UnclassifiableError
from .families import (
    CHORD_NAMES,
    H1,
    H2,
    Bicycle,
    FamilySpec,
    LabeledInstance,
    Mobius,
    Wheel,
    bicycle_is_3_connected,
    bicycle_is_bipartite,
    bicycle_is_planar,
    family_of,
    generate,
    rim_index,
)
from .graph import Graph
from .oracle import CycleSpectrum, validate_cycle, validate_path

CHORDS_ALL = frozenset(CHORD_NAMES)

Builder = Callable[[int], list[int]]


def _gate_cycle(g: Graph, seq: list[int], length: int) -> list[int]:
    check = validate_cycle(g, seq, length)
    if not check:
        raise FalsificationError(
            f"builder emitted an invalid {length}-cycle ({check.reason}): {seq}"
        )
    return seq


def _gate_path(g: Graph, seq: list[int], length: int) -> list[int]:
    check = validate_path(g, seq, length)
    if not check:
        raise FalsificationError(
            f"builder emitted an invalid {length}-path ({check.reason}): {seq}"
        )
    return seq


def _require_family(inst: LabeledInstance, *kinds: type) -> FamilySpec:
    if not isinstance(inst.family, kinds):
        names = "/".join(kind.__name__ for kind in kinds)
        raise ValueError(f"expected a {names} instance, got {inst.family!r}")
    return inst.family


# -- Möbius ladders ------------------------------------------------------------


def mobius_lengths(k: int) -> frozenset[int]:
    """Cycle spectrum of V_2k: evens 4..2k, plus k+1..2k-1 odds when k is even."""
    lengths = set(range(4, 2 * k + 1, 2))
    if k % 2 == 0:
        lengths.update(range(k + 1, 2 * k, 2))
    return frozenset(lengths)


def mobius_cycle(inst: LabeledInstance, length: int) -> list[int]:
    """Cycle of the requested length in V_2k.

    Even lengths walk down one rail, cross a rung and come back; the
    full length uses the twist; odd lengths (even k only) use the
    crossing pattern where each extra ladder crossing adds 2.
    """
    spec = _require_family(inst, Mobius)
    k = spec.k
    if length not in mobius_lengths(k):
        raise NotInSpectrumError(
            f"V_{2 * k} has no cycle of length {length}; spectrum is "
            f"{sorted(mobius_lengths(k))}"
        )
    if length == 2 * k:
        seq = list(range(1, k)) + [2 * k, k] + list(range(2 * k - 1, k, -1))
    elif length % 2 == 0:
        t = length // 2
        seq = list(range(1, t + 1)) + list(range(k + t, k, -1))
    else:
        crossings = (length - k - 1) // 2
        seq = [1]
        for j in range(1, crossings + 1):
            seq += [k + 2 * j - 1, k + 2 * j, 2 * j, 2 * j + 1]
        seq += list(range(2 * crossings + 2, k))
        seq += [2 * k, k]
    return _gate_cycle(inst.graph, seq, length)


# -- bicycle wheels ------------------------------------------------------------


def _bicycle_parts(inst: LabeledInstance) -> tuple[Bicycle, int, int, int]:
    spec = _require_family(inst, Bicycle)
    n = spec.n
    return spec, n, n, n - 1  # (spec, n, s-hub, t-hub)


def _spoke_present(spec: Bicycle, hub: str, i: int) -> bool:
    i = rim_index(spec.n, i)
    removed = spec.removed_s if hub == "s" else spec.removed_t
    return i not in removed


def bicycle_cycle(inst: LabeledInstance, length: int) -> list[int]:
    """Cycle in the full B_n: hub, a rim arc of length-2 vertices, other hub."""
    spec, n, hub_s, hub_t = _bicycle_parts(inst)
    if spec.removed_s or spec.removed_t:
        raise ValueError("bicycle_cycle needs the full B_n (no removed spokes)")
    if not 3 <= length <= n:
        raise NotInSpectrumError(f"B_{n} cycle length must be in 3..{n}")
    seq = [hub_s] + list(range(1, length - 1)) + [hub_t]
    return _gate_cycle(inst.graph, seq, length)


def bicycle_ham_path(inst: LabeledInstance, u: int, v: int) -> list[int]:
    """Hamiltonian path between any two vertices of the full B_n.

    Hub-hub rides the Hamiltonian cycle minus the axle; hub-rim goes
    through the axle first; rim-rim walks one rim arc, crosses both
    hubs, and walks the complementary arc.
    """
    spec, n, hub_s, hub_t = _bicycle_parts(inst)
    if spec.removed_s or spec.removed_t:
        raise ValueError("bicycle_ham_path needs the full B_n (no removed spokes)")
    if u == v:
        raise ValueError("endpoints must differ")
    for w in (u, v):
        if not 1 <= w <= n:
            raise ValueError(f"vertex {w} out of range")
    hubs = {hub_s, hub_t}

    if {u, v} == hubs:
        seq = [hub_s] + list(range(1, n - 1)) + [hub_t]
    elif u in hubs or v in hubs:
        hub, rim = (u, v) if u in hubs else (v, u)
        other = hub_t if hub == hub_s else hub_s
        walk = [rim_index(n, rim + 1 + j) for j in range(n - 2)]
        seq = [hub, other] + walk
    else:
        i, j = u, v
        ascend = [i]
        while ascend[-1] != rim_index(n, j - 1):
            ascend.append(rim_index(n, ascend[-1] + 1))
        descend = [rim_index(n, i - 1)]
        while descend[-1] != j:
            descend.append(rim_index(n, descend[-1] - 1))
        seq = ascend + [hub_s, hub_t] + descend
    if seq[0] != u:
        seq.reverse()
    assert seq[0] == u and seq[-1] == v
    return _gate_path(inst.graph, seq, n)


def b_graph_ham_cycle(inst: LabeledInstance) -> list[int]:
    """Hamiltonian cycle in any valid bicycle minor.

    Finds consecutive rim vertices attached to opposite hubs and routes
    the rim walk through both hubs there.
    """
    spec, n, hub_s, hub_t = _bicycle_parts(inst)
    r = n - 2
    for i in range(1, r + 1):
        for first, second, hub_a, hub_b in (
            ("s", "t", hub_s, hub_t),
            ("t", "s", hub_t, hub_s),
        ):
            if _spoke_present(spec, first, i) and _spoke_present(
                spec, second, i + 1
            ):
                walk = [rim_index(n, i + 1 + j) for j in range(r)]
                seq = walk + [hub_a, hub_b]
                return _gate_cycle(inst.graph, seq, n)
    raise ValueError(
        "no rim position with opposite-hub spokes on consecutive vertices; "
        "instance is not a valid 3-connected bicycle minor"
    )


def a_even_cycle(inst: LabeledInstance, length: int) -> list[int]:
    """Even cycle in a bipartite bicycle minor: A_n for even n, with
    either hub keeping the odd-indexed spokes."""
    spec, n, hub_s, hub_t = _bicycle_parts(inst)
    if not bicycle_is_bipartite(spec):
        raise ValueError("a_even_cycle needs A_n with n even, either hub orientation")
    if length % 2 == 1:
        raise NotInSpectrumError(f"A_{n} (n even) has only even cycles")
    if not 4 <= length <= n:
        raise NotInSpectrumError(f"A_{n} cycle length must be even in 4..{n}")
    # The hub of the odd rim vertices opens each cycle; the other hub,
    # of the even ones, closes the longest.
    odd_hub, even_hub = (hub_t, hub_s) if 1 in spec.removed_s else (hub_s, hub_t)
    if length == n:
        seq = [odd_hub, 1, 2, even_hub] + list(range(n - 2, 2, -1))
    else:
        seq = [odd_hub] + list(range(1, length))
    return _gate_cycle(inst.graph, seq, length)


def _adjacent_same_hub_pair(spec: Bicycle) -> Optional[tuple[str, int]]:
    r = spec.n - 2
    for hub in ("s", "t"):
        for i in range(1, r + 1):
            if _spoke_present(spec, hub, i) and _spoke_present(spec, hub, i + 1):
                return hub, i
    return None


def b_adjacent_spoke_cycle(inst: LabeledInstance, length: int) -> list[int]:
    """Cycle of any length 3..n in a bicycle minor with two same-hub
    spokes on adjacent rim vertices.

    The pair gives the triangle; longer cycles extend along the rim and
    close through whichever hub serves the far endpoint.
    """
    spec, n, hub_s, hub_t = _bicycle_parts(inst)
    pair = _adjacent_same_hub_pair(spec)
    if pair is None:
        raise ValueError(
            "no adjacent same-hub spoke pair; not applicable "
            "(use a_even_cycle or the oracle)"
        )
    hub, i = pair
    hub_v = hub_s if hub == "s" else hub_t
    other_v = hub_t if hub == "s" else hub_s
    if not 3 <= length <= n:
        raise NotInSpectrumError(f"cycle length must be in 3..{n}")
    if length == n:
        return b_graph_ham_cycle(inst)
    if length == 3:
        seq = [hub_v, rim_index(n, i), rim_index(n, i + 1)]
    else:
        far = rim_index(n, i + length - 2)
        if _spoke_present(spec, hub, far):
            seq = [hub_v] + [rim_index(n, i + j) for j in range(length - 1)]
        else:
            seq = (
                [hub_v]
                + [rim_index(n, i + 1 + j) for j in range(length - 2)]
                + [other_v]
            )
    return _gate_cycle(inst.graph, seq, length)


# -- wheels ---------------------------------------------------------------------


def wheel_cycle(inst: LabeledInstance, length: int) -> list[int]:
    """Hub plus a rim arc: cycles of every length 3..n in the wheel."""
    spec = _require_family(inst, Wheel)
    n = spec.n
    if not 3 <= length <= n:
        raise NotInSpectrumError(f"wheel cycle length must be in 3..{n}")
    if length == n:
        seq = [1, n] + list(range(2, n))
    else:
        seq = [1, n] + list(range(length - 1, 1, -1))
    return _gate_cycle(inst.graph, seq, length)


# -- fan families ----------------------------------------------------------------


def _h_parts(inst: LabeledInstance, length: int) -> tuple[FamilySpec, dict[str, int]]:
    """Spec and role map of a fully-deleted H1/H2 instance that may have
    a cycle of the requested length."""
    spec = _require_family(inst, H1, H2)
    if spec.deleted != CHORDS_ALL:
        raise ValueError("cycle builders operate on the fully-deleted variant")
    if not 3 <= length <= inst.graph.n:
        raise NotInSpectrumError(f"cycle length must be in 3..{inst.graph.n}")
    if _is_k33_degenerate(spec) and length not in (4, 6):
        raise NotInSpectrumError(
            "H(1,1,1) minus all chords is K_{3,3}: only lengths 4 and 6"
        )
    return spec, inst.role_to_vertex


def _is_k33_degenerate(spec: FamilySpec) -> bool:
    return (spec.p, spec.q, spec.r) == (1, 1, 1) and spec.deleted == CHORDS_ALL


def _fan_run(rv: dict[str, int], prefix: str, lo: int, hi: int) -> list[int]:
    """Vertices prefix{lo}..prefix{hi} (descending when lo > hi)."""
    step = 1 if hi >= lo else -1
    return [rv[f"{prefix}{i}"] for i in range(lo, hi + step, step)]


def h1_cycle(inst: LabeledInstance, length: int) -> list[int]:
    """Cycle of the requested length in H1(p,q,r) minus all three chords.

    Generic lengths come from the wheel view (hub b plus an arc of the
    outer path avoiding endpoints a and c); the handful of lengths that
    view cannot reach use the dedicated fan-to-fan cycles; the full
    length is the standard Hamiltonian cycle.
    """
    spec, rv = _h_parts(inst, length)
    p, q, r = spec.p, spec.q, spec.r
    n = inst.graph.n
    a, b, c = rv["a"], rv["b"], rv["c"]
    g = inst.graph

    if length == n:
        seq = (
            _fan_run(rv, "x", 1, p)
            + [a]
            + _fan_run(rv, "z", r, 1)
            + [c]
            + _fan_run(rv, "y", q, 1)
            + [b]
        )
        return _gate_cycle(g, seq, length)

    # Wheel view: rim path x1..xp, a, zr..z1, c, yq..y1 with hub b; spokes
    # to every x, y, z vertex but not to a or c.
    rim = (
        _fan_run(rv, "x", 1, p)
        + [a]
        + _fan_run(rv, "z", r, 1)
        + [c]
        + _fan_run(rv, "y", q, 1)
    )
    banned = {p, p + r + 1}  # 0-based positions of a and c
    width = length - 1
    for start in range(len(rim) - width + 1):
        if start in banned or start + width - 1 in banned:
            continue
        return _gate_cycle(g, [b] + rim[start : start + width], length)

    rows: list[list[int]] = []
    if length == p + 2 and p >= 2:
        rows.append([b] + _fan_run(rv, "x", 2, p) + [a, rv[f"z{r}"]])
    if length == q + 2 and q >= 2:
        rows.append([b] + _fan_run(rv, "y", 2, q) + [c, rv["z1"]])
    if length == r + 2 and r >= 2:
        rows.append([b] + _fan_run(rv, "z", 2, r) + [a, rv[f"x{p}"]])
    if length == q + r + 1 and q >= 2:
        rows.append([b] + _fan_run(rv, "y", 2, q) + [c] + _fan_run(rv, "z", 1, r))
    if length == p + q + 1 and p >= 2:
        rows.append([b] + _fan_run(rv, "x", 2, p) + [a] + _fan_run(rv, "y", 1, q))
    if length == p + r + 1 and p >= 2:
        rows.append([b] + _fan_run(rv, "x", 2, p) + [a] + _fan_run(rv, "z", r, 1))
    if length == r + 4 and p == 1 and q == 1 and r >= 2:
        # Both end fans have length 1, so no wheel window reaches n-1.
        # Route through the hub inside the z fan instead.
        rows.append(
            [rv["y1"], a]
            + _fan_run(rv, "z", r, 2)
            + [b, rv["z1"], c]
        )
    for seq in rows:
        if validate_cycle(g, seq, length):
            return seq
    raise NotInSpectrumError(
        f"no length-{length} construction for H1{(p, q, r)} minus all chords"
    )


def h2_cycle(inst: LabeledInstance, length: int) -> list[int]:
    """Cycle of the requested length in H2(p,q,r) minus all three chords.

    Lengths 6..n are Hamiltonian-cycle shortenings: skip leading x and
    y vertices via their hub b and trailing z vertices via their hub a.
    Lengths 3..5 come from within single fans.
    """
    spec, rv = _h_parts(inst, length)
    p, q, r = spec.p, spec.q, spec.r
    n = inst.graph.n
    a, b, c = rv["a"], rv["b"], rv["c"]
    g = inst.graph

    if length == n:
        seq = (
            [a]
            + _fan_run(rv, "x", p, 1)
            + [b]
            + _fan_run(rv, "y", 1, q)
            + [c]
            + _fan_run(rv, "z", 1, r)
        )
    elif length >= 6:
        skip = n - length
        i = min(skip, p - 1)
        j = min(skip - i, q - 1)
        k = skip - i - j
        assert k <= r - 1
        seq = (
            [a]
            + _fan_run(rv, "z", r - k, 1)
            + [c]
            + _fan_run(rv, "y", q, j + 1)
            + [b]
            + _fan_run(rv, "x", i + 1, p)
        )
    elif length == 3:
        if p >= 2:
            seq = [b, rv["x1"], rv["x2"]]
        elif q >= 2:
            seq = [b, rv["y1"], rv["y2"]]
        elif r >= 2:
            seq = [a, rv["z1"], rv["z2"]]
        else:
            raise NotInSpectrumError("no triangle: all fans have length 1")
    elif length == 4:
        seq = [a, rv["y1"], b, rv[f"x{p}"]]
    else:  # length == 5
        if p >= 2:
            seq = [a, rv[f"x{p}"], rv[f"x{p - 1}"], b, rv["y1"]]
        elif q >= 2:
            seq = [c, rv[f"y{q}"], rv[f"y{q - 1}"], b, rv["x1"]]
        elif r >= 2:
            seq = [b, rv[f"z{r}"], rv[f"z{r - 1}"], a, rv["y1"]]
        else:
            raise NotInSpectrumError("no 5-cycle: all fans have length 1")
    return _gate_cycle(g, seq, length)


# -- K33 chains -------------------------------------------------------------------


def k33_chain_cycle(inst: LabeledInstance, length: int) -> list[int]:
    """Cycle in K_{3,3} plus chords; odd lengths need at least one chord."""
    rv = inst.role_to_vertex
    g = inst.graph
    present = [name for name in CHORD_NAMES if g.has_edge(rv[name[0]], rv[name[1]])]
    a, b, c = rv["a"], rv["b"], rv["c"]
    x1, y1, z1 = rv["x1"], rv["y1"], rv["z1"]
    if length == 4:
        seq = [a, x1, b, y1]
    elif length == 6:
        seq = [a, x1, b, y1, c, z1]
    elif length in (3, 5) and present:
        chord = present[0]
        table = {
            ("ab", 3): [a, x1, b],
            ("bc", 3): [b, y1, c],
            ("ac", 3): [a, x1, c],
            ("ab", 5): [a, b, x1, c, y1],
            ("bc", 5): [b, c, z1, a, x1],
            ("ac", 5): [a, c, y1, b, x1],
        }
        seq = table[(chord, length)]
    else:
        raise NotInSpectrumError(
            f"no cycle of length {length} in K33 chain with chords {present}"
        )
    return _gate_cycle(g, seq, length)


# -- the spectral table and the full constructive dispatch -------------------------


def _bicycle_lengths(spec: Bicycle) -> Optional[frozenset[int]]:
    if not bicycle_is_3_connected(spec) or bicycle_is_planar(spec):
        return None
    if bicycle_is_bipartite(spec):
        return frozenset(range(4, spec.n + 1, 2))
    return frozenset(range(3, spec.n + 1))


def _bicycle_builder(spec: Bicycle, inst: LabeledInstance) -> Builder:
    if not spec.removed_s and not spec.removed_t:
        return partial(bicycle_cycle, inst)
    if bicycle_is_bipartite(spec):
        return partial(a_even_cycle, inst)

    def build(length: int) -> list[int]:
        if length == spec.n:
            return b_graph_ham_cycle(inst)
        return b_adjacent_spoke_cycle(inst, length)

    return build


def _fan_lengths(spec: FamilySpec) -> frozenset[int]:
    if _is_k33_degenerate(spec):
        return frozenset((4, 6))
    if (spec.p, spec.q, spec.r) == (1, 1, 1):
        return frozenset(range(3, 7))
    return frozenset(range(3, family_of(spec).vertex_count(spec) + 1))


def _fan_builder(
    spec: FamilySpec, inst: LabeledInstance, fan_cycle: Callable
) -> Builder:
    if spec.deleted == CHORDS_ALL:
        return partial(fan_cycle, inst)
    if (spec.p, spec.q, spec.r) == (1, 1, 1):
        return partial(k33_chain_cycle, inst)
    # Witnesses built on the fully-deleted variant stay valid here: same
    # vertex numbering, fewer edges.
    return partial(fan_cycle, generate(replace(spec, deleted=CHORDS_ALL)))


class Spectral(NamedTuple):
    """A family's predicted cycle lengths and its witness builder."""

    lengths: Callable[[FamilySpec], Optional[frozenset[int]]]
    builder: Callable[[FamilySpec, LabeledInstance], Builder]


# Builders are looked up when an entry runs, so rebinding one (as a tracer
# does) takes effect here too.
SPECTRA: dict[str, Spectral] = {
    "mobius": Spectral(
        lambda spec: mobius_lengths(spec.k),
        lambda spec, inst: partial(mobius_cycle, inst),
    ),
    "bicycle": Spectral(_bicycle_lengths, _bicycle_builder),
    "wheel": Spectral(
        lambda spec: frozenset(range(3, spec.n + 1)),
        lambda spec, inst: partial(wheel_cycle, inst),
    ),
    "k33chain": Spectral(
        lambda spec: frozenset(range(3, 7) if spec.extra_edges else (4, 6)),
        lambda spec, inst: partial(k33_chain_cycle, inst),
    ),
    "h1": Spectral(
        _fan_lengths, lambda spec, inst: _fan_builder(spec, inst, h1_cycle)
    ),
    "h2": Spectral(
        _fan_lengths, lambda spec, inst: _fan_builder(spec, inst, h2_cycle)
    ),
}


def predicted_lengths(spec: FamilySpec) -> Optional[frozenset[int]]:
    """Theorem-level cycle spectrum for a family spec.

    Returns None when no exact spectrum is claimed for the spec (for
    example a bicycle pattern that is planar or not 3-connected).
    """
    return SPECTRA[family_of(spec).name].lengths(spec)


def constructive_spectrum(spec: FamilySpec) -> CycleSpectrum:
    """Predicted spectrum with an O(n)-built validated witness per length."""
    lengths = predicted_lengths(spec)
    if lengths is None:
        raise UnclassifiableError(
            f"no theorem-backed spectrum for spec {spec!r}"
        )
    inst = generate(spec)
    build = SPECTRA[family_of(spec).name].builder(spec, inst)
    g = inst.graph
    witnesses = {
        length: _gate_cycle(g, build(length), length) for length in sorted(lengths)
    }
    return CycleSpectrum(g.n, lengths, witnesses)
