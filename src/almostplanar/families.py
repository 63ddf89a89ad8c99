"""Generators for the almost-planar graph families.

Families covered:

* Möbius ladders ``V_{2k}`` (cubic, 2k vertices, 3k edges).
* Bicycle wheels ``B_n`` (rim cycle on n-2 vertices plus two adjacent
  hubs joined to every rim vertex) and their spoke-deleted minors,
  including the alternating family ``A_n``.
* Wheels ``W_{n-1}`` (hub plus rim), used by the fan machinery.
* ``K_{3,3}`` plus chords inside one color class, and the two fan
  families ``H1(p, q, r)`` / ``H2(p, q, r)`` grown from it by the
  type-1 fan attachment.

Each generator returns a :class:`LabeledInstance`: the graph plus role
labels tying vertices and edges to the family's standard names, which
the constructive cycle builders rely on.

Every per-family fact lives in one place.  The registry ``FAMILIES``
holds each family's name, spec type (its fields are the parameters),
vertex count and generator; :func:`generate` and :func:`spec_to_json`
read from it.  :func:`instances` is the one enumeration of the family
instances on n vertices.  Cycle spectra and builders sit in one table,
``constructive.SPECTRA``, so adding a family touches the registry plus
one spectral entry.  3-connectivity is decided from the spec, never
tested: by :func:`bicycle_is_3_connected` for a bicycle minor, by
construction for the rest.  Every other structural fact of a bicycle
minor comes from its spoke pattern too, in O(n) and with its proof
beside it: planarity (:func:`bicycle_is_planar`), bipartiteness
(:func:`bicycle_is_bipartite`) and, for any family instance,
4-connectivity (:func:`spec_is_4_connected`).  No graph is built or
searched to learn them.

Label conventions fixed here (and relied on everywhere else):

* Bicycle: rim vertices 1..n-2, rim edge ``r_i`` joins i and i+1
  (indices wrap, ``r_{n-2}`` joins n-2 and 1), s-hub is vertex n,
  t-hub is vertex n-1, spoke ``s_i``/``t_i`` joins the hub to rim
  vertex i, and ``z`` joins the hubs.  With the alternating family
  keeping odd-indexed s-spokes and even-indexed t-spokes, this hub
  assignment is the one that makes ``A_n`` (even n) bipartite with
  classes {1, 3, ..., n-1} and {2, 4, ..., n}.
* Möbius: vertices 1..k down the left rail, k+1..2k down the right;
  rail edges i..i+1 for i <= k-2 on each side, rungs {i, k+i} for
  i <= k, and four closure edges {1, k}, {k+1, 2k}, {k-1, 2k},
  {k, 2k-1}.  This is the labeling under which the standard explicit
  cycle listings for V_2k (even-length ladders, the Hamiltonian cycle,
  and the odd-length crossing cycles for even k) hold verbatim, and
  V_6 comes out exactly K_{3,3}.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from typing import Callable, Optional, Sequence, Union
from typing import get_args, get_origin, get_type_hints

from .graph import Edge, Graph, edge

# -- family specs -------------------------------------------------------------

CHORD_NAMES = ("ab", "bc", "ac")


@dataclass(frozen=True)
class Mobius:
    k: int


@dataclass(frozen=True)
class Bicycle:
    n: int
    removed_s: frozenset[int] = frozenset()
    removed_t: frozenset[int] = frozenset()

    @cached_property
    def rim_word(self) -> str:
        """The spec's rim word (see `_rim_word`), built on first use per
        spec."""
        return _rim_word(self)


@dataclass(frozen=True)
class Wheel:
    n: int


@dataclass(frozen=True)
class K33Chain:
    extra_edges: frozenset[str] = frozenset()


@dataclass(frozen=True)
class H1:
    p: int
    q: int
    r: int
    deleted: frozenset[str] = frozenset()


@dataclass(frozen=True)
class H2:
    p: int
    q: int
    r: int
    deleted: frozenset[str] = frozenset()


FamilySpec = Union[Mobius, Bicycle, Wheel, K33Chain, H1, H2]


# -- labeled instances ---------------------------------------------------------


@dataclass(frozen=True)
class LabeledInstance:
    """A graph together with role labels for vertices and edges."""

    graph: Graph
    family: Optional[FamilySpec]
    vertex_roles: dict[int, str] = field(default_factory=dict)
    edge_roles: dict[Edge, str] = field(default_factory=dict)

    @cached_property
    def role_to_vertex(self) -> dict[str, int]:
        """The inverse of vertex_roles, built on first use per instance."""
        return {r: v for v, r in self.vertex_roles.items()}

    def roles_to_json(self) -> dict:
        return {
            "schema": 1,
            "family": None if self.family is None else spec_to_json(self.family),
            "vertex_roles": {str(v): r for v, r in sorted(self.vertex_roles.items())},
            "edge_roles": [
                {"u": e[0], "v": e[1], "role": r}
                for e, r in sorted(self.edge_roles.items())
            ],
            # Every instance is 3-connected; kept empty for schema 1.
            "warnings": [],
        }

    def to_dot(self) -> str:
        lines = ["graph G {"]
        for v in self.graph.vertices():
            role = self.vertex_roles.get(v)
            attr = f' [role="{role}"]' if role else ""
            lines.append(f"  {v}{attr};")
        for e in self.graph.sorted_edges():
            role = self.edge_roles.get(e)
            attr = f' [role="{role}"]' if role else ""
            lines.append(f"  {e[0]} -- {e[1]}{attr};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def graph_to_dot(g: Graph) -> str:
    return LabeledInstance(g, None).to_dot()


# -- Möbius ladders ------------------------------------------------------------


def gen_mobius(k: int) -> LabeledInstance:
    """Möbius ladder V_2k, labeled 1..k left and k+1..2k right."""
    if k < 3:
        raise ValueError("Möbius ladder needs k >= 3")
    n = 2 * k
    vroles = {i: f"ladder-left-{i}" for i in range(1, k + 1)}
    vroles.update({k + i: f"ladder-right-{i}" for i in range(1, k + 1)})
    # Every pair below is written smaller end first, so none needs edge().
    eroles: dict[Edge, str] = {}
    for i in range(1, k - 1):
        eroles[i, i + 1] = "ladder-side"
        eroles[k + i, k + i + 1] = "ladder-side"
    for i in range(1, k + 1):
        eroles[i, k + i] = "ladder-rung"
    for e in ((1, k), (k + 1, 2 * k), (k - 1, 2 * k), (k, 2 * k - 1)):
        eroles[e] = "ladder-twist"
    return LabeledInstance(
        Graph(n, frozenset(eroles)), Mobius(k), vroles, eroles
    )


# -- bicycle wheels ------------------------------------------------------------


def rim_index(n: int, i: int) -> int:
    """Map any integer onto the rim 1..n-2 (modular indexing)."""
    r = n - 2
    return (i - 1) % r + 1


# A bicycle spec's spoke pattern is its rim word, one letter per rim
# vertex 1..n-2: B keeps both spokes, S only the s-spoke, T only the
# t-spoke, N neither.  Every structural fact of a minor is read from it.
def _rim_word(spec: Bicycle) -> str:
    """The rim word of a bicycle spec, its letter indexed by whether the
    vertex keeps its s-spoke, then its t-spoke; a spec with n < 5 or a
    spoke index off the rim is an error."""
    n, rs, rt = spec.n, spec.removed_s, spec.removed_t
    if n < 5:
        raise ValueError("bicycle wheel needs n >= 5")
    for i in rs | rt:
        if not 1 <= i <= n - 2:
            raise ValueError(f"spoke index {i} out of range 1..{n - 2}")
    return "".join(("NT", "SB")[i not in rs][i not in rt] for i in range(1, n - 1))


def _bicycle_from_pattern(n: int, state: str) -> Bicycle:
    """The bicycle spec whose rim word is ``state``, over {B, S, T}."""
    return Bicycle(
        n,
        removed_s=frozenset(i + 1 for i, ch in enumerate(state) if ch == "T"),
        removed_t=frozenset(i + 1 for i, ch in enumerate(state) if ch == "S"),
    )


def bicycle_is_3_connected(spec: Bicycle) -> bool:
    """Whether a bicycle minor is 3-connected: no rim vertex loses both
    spokes and each hub keeps at least two.

    Necessity: a rim vertex has degree 2 plus its spokes, a hub its
    spokes plus 1.  Sufficiency: removing two vertices leaves the rim
    cycle (both hubs), a rim path joined to the other hub, which keeps
    two spokes (a hub and a rim vertex), or rim arcs that all reach the
    two adjacent hubs (two rim vertices), each connected.
    """
    rs, rt, keep = spec.removed_s, spec.removed_t, spec.n - 4
    return not rs & rt and len(rs) <= keep and len(rt) <= keep


def bicycle_is_planar(spec: Bicycle) -> bool:
    """Whether a 3-connected bicycle minor is planar: some rotation of
    its rim word reads ``S*B?T*B?``.

    The rim is the cycle C = G - {s, t}, and the axle z puts both hubs
    in one face of C.  There t lies between two consecutive spokes of
    s, to rim vertices u and v, so it reaches only the arc of C from u
    to v with no other s-neighbour inside: the arc's inner vertices are
    T, u and v are B or S, and every other rim vertex is S.  Conversely
    such a word draws with both hubs inside C, s spoking to its arc and
    t to the rest.  Cut anywhere, the cyclic word reads
    ``S*B?T*B?S*`` or ``T*B?S*B?T*``; squeezing each S or T run to one
    letter keeps that test O(n).
    """
    squeezed = re.sub(r"([ST])\1+", r"\1", spec.rim_word)
    return re.fullmatch("S?B?T?B?S?|T?B?S?B?T?", squeezed) is not None


def bicycle_is_bipartite(spec: Bicycle) -> bool:
    """Whether a 3-connected bicycle minor is bipartite: its rim word
    alternates S and T, which needs an even rim.  That is A_n for even
    n, or A_n with its hubs swapped.

    The axle gives the hubs different colours, so a B vertex closes a
    triangle with them; every other rim vertex takes the colour its hub
    lacks, and rim neighbours need different colours, so different hubs.
    """
    return re.fullmatch("(ST)+|(TS)+", spec.rim_word) is not None


def spec_is_4_connected(spec: FamilySpec) -> bool:
    """Whether a family instance is 4-connected: exactly when it is a
    full B_n.

    Every other instance has a vertex of degree 3, whose neighbours cut
    it off: a Möbius ladder is cubic, a rim vertex that lost a spoke
    keeps its two rim neighbours and one hub, a wheel's rim vertex has
    degree 3, and x1 keeps three neighbours in the K33 chains and fan
    families (chords join a, b, c only, and a fan replaces a base edge
    by a path from its ends).  B_n has n >= 5 vertices, and removing any
    three leaves a rim path (both hubs gone) or a hub joined to every
    rim vertex left, connected either way.
    """
    return isinstance(spec, Bicycle) and not spec.removed_s and not spec.removed_t


def gen_bicycle(
    n: int,
    removed_s: Sequence[int] | frozenset[int] = (),
    removed_t: Sequence[int] | frozenset[int] = (),
) -> LabeledInstance:
    """Bicycle wheel B_n with optional spoke removals; a pattern that
    breaks :func:`bicycle_is_3_connected` is an error."""
    spec = Bicycle(n, frozenset(removed_s), frozenset(removed_t))
    word = spec.rim_word
    if not bicycle_is_3_connected(spec):
        raise ValueError(
            "violates 3-connectivity precondition: every rim vertex needs a "
            "spoke and each hub two"
        )

    # Rim vertices sit below both hubs, so every pair below is written
    # smaller end first and none needs edge().
    hub_s, hub_t = n, n - 1
    vroles = {i: f"rim-{i}" for i in range(1, n - 1)}
    vroles[hub_s] = "hub-s"
    vroles[hub_t] = "hub-t"
    eroles: dict[Edge, str] = {(i, i + 1): f"r{i}" for i in range(1, n - 2)}
    eroles[1, n - 2] = f"r{n - 2}"
    for i, letter in enumerate(word, 1):
        if letter in "BS":
            eroles[i, hub_s] = f"s{i}"
        if letter in "BT":
            eroles[i, hub_t] = f"t{i}"
    eroles[hub_t, hub_s] = "z"
    return LabeledInstance(Graph(n, frozenset(eroles)), spec, vroles, eroles)


def a_graph_spec(n: int) -> Bicycle:
    """Spec of A_n: keep odd-indexed s-spokes and even-indexed t-spokes,
    the rim word STST..."""
    if n < 6:
        raise ValueError("A_n needs n >= 6: at n = 5 the t-hub keeps one spoke")
    return _bicycle_from_pattern(n, ("ST" * n)[: n - 2])


def gen_a_graph(n: int) -> LabeledInstance:
    """Irreducible alternating-spoke bicycle minor A_n."""
    spec = a_graph_spec(n)
    return gen_bicycle(n, spec.removed_s, spec.removed_t)


# -- wheels --------------------------------------------------------------------


def gen_wheel(n: int) -> LabeledInstance:
    """Wheel on n vertices: hub n joined to the rim cycle 1..n-1."""
    if n < 4:
        raise ValueError("wheel needs n >= 4")
    vroles = {i: f"rim-{i}" for i in range(1, n)}
    vroles[n] = "hub"
    eroles: dict[Edge, str] = {}
    for i in range(1, n):
        j = i + 1 if i < n - 1 else 1
        eroles[edge(i, j)] = f"r{i}"
        eroles[edge(i, n)] = f"spoke{i}"
    return LabeledInstance(Graph(n, frozenset(eroles)), Wheel(n), vroles, eroles)


# -- K33 chain and the fan families --------------------------------------------


def _k33_roles(extras: frozenset[str]) -> tuple[dict[int, str], dict[Edge, str]]:
    """Vertex and edge roles of K_{3,3} on {a,b,c} x {x1,y1,z1} plus the
    chords named in extras; the edge roles' keys are the edge set."""
    ids = {"a": 1, "b": 2, "c": 3, "x1": 4, "y1": 5, "z1": 6}
    vroles = {v: r for r, v in ids.items()}
    eroles: dict[Edge, str] = {}
    for left in ("a", "b", "c"):
        for right in ("x1", "y1", "z1"):
            eroles[ids[left], ids[right]] = "base"
    for name in sorted(extras):
        eroles[ids[name[0]], ids[name[1]]] = name
    return vroles, eroles


def gen_k33_chain(extra_edges: Sequence[str] | frozenset[str] = ()) -> LabeledInstance:
    """K_{3,3} on {a,b,c} x {x1,y1,z1} plus chords among a, b, c."""
    extras = frozenset(extra_edges)
    bad = extras - set(CHORD_NAMES)
    if bad:
        raise ValueError(f"unknown chord names: {sorted(bad)}")
    vroles, eroles = _k33_roles(extras)
    return LabeledInstance(
        Graph(6, frozenset(eroles)), K33Chain(extras), vroles, eroles
    )


def _grow_fan(
    vroles: dict[int, str],
    eroles: dict[Edge, str],
    n: int,
    hub: int,
    u: int,
    v: int,
    roles: Sequence[str],
) -> list[Edge]:
    """Replace the edge uv of an n-vertex graph by the path v, n+1, ...,
    n+len(roles), u and join each new vertex to hub, in place on the role
    maps; returns the new edges.  No roles means no fan, and no change.

    The new vertices are numbered above every old one, so each new pair
    is written smaller end first.
    """
    if not roles:
        return []
    new_ids = range(n + 1, n + len(roles) + 1)
    vroles.update(zip(new_ids, roles))
    eroles.pop(edge(u, v), None)
    added = [(v, new_ids[0])]
    added += zip(new_ids, new_ids[1:])
    added.append((u, new_ids[-1]))
    eroles.update(dict.fromkeys(added, "fan-path"))
    spokes = [(hub, w) for w in new_ids]
    eroles.update(dict.fromkeys(spokes, "fan-spoke"))
    return added + spokes


def attach_fan(
    inst: LabeledInstance,
    triangle: tuple[Edge, Edge, Edge],
    sides: tuple[Edge, Edge],
    length: int,
    new_vertex_roles: Optional[Sequence[str]] = None,
) -> LabeledInstance:
    """Attach a type-1 fan of the given length across a triangle.

    The two side edges must share a vertex (the fan hub).  The third
    triangle edge is replaced by a path of length-1 new vertices, each
    joined to the hub.  A fan of length 1 is the identity.
    """
    if length < 1:
        raise ValueError("fan length must be >= 1")
    tri = tuple(edge(*e) for e in triangle)
    e_side, f_side = (edge(*e) for e in sides)
    g = inst.graph
    for t in tri:
        if t not in g.edges:
            raise ValueError(f"triangle edge {t} not in graph")
    verts = set(tri[0]) | set(tri[1]) | set(tri[2])
    if len(verts) != 3:
        raise ValueError(f"edges {tri} do not form a triangle")
    if {e_side, f_side} - set(tri):
        raise ValueError("sides must be two of the triangle's edges")
    shared = set(e_side) & set(f_side)
    if len(shared) != 1:
        raise ValueError("side edges must share exactly one vertex")
    hub = shared.pop()
    u = next(w for w in e_side if w != hub)
    v = next(w for w in f_side if w != hub)
    g_edge = edge(u, v)
    if g_edge not in tri or g_edge in (e_side, f_side):
        raise ValueError("third triangle edge must join the non-hub corners")

    if length == 1:
        return inst

    count = length - 1
    if new_vertex_roles is not None and len(new_vertex_roles) != count:
        raise ValueError(f"need {count} new vertex roles")
    roles = new_vertex_roles or [f"fan{hub}-{idx}" for idx in range(1, count + 1)]
    vroles = dict(inst.vertex_roles)
    eroles = dict(inst.edge_roles)
    added = _grow_fan(vroles, eroles, g.n, hub, u, v, roles)
    return replace(
        inst,
        graph=Graph(g.n + count, (g.edges - {g_edge}).union(added)),
        vertex_roles=vroles,
        edge_roles=eroles,
    )


def _gen_h(spec: Union[H1, H2], third_hub: str) -> LabeledInstance:
    """K33 with all chords, fans of lengths p, q, r across the triangles
    a-b-x1 and c-b-y1 (hub b) and a-b-z1 (hub third_hub), then the deleted
    chords removed.  Each fan is the one attach_fan grows, grown on the
    role maps so that one Graph is built."""
    if min(spec.p, spec.q, spec.r) < 1:
        raise ValueError("fan lengths p, q, r must be >= 1")
    bad = spec.deleted - set(CHORD_NAMES)
    if bad:
        raise ValueError(f"unknown deletable edges: {sorted(bad)}")
    vroles, eroles = _k33_roles(frozenset(CHORD_NAMES))
    rv = {r: v for v, r in vroles.items()}
    a, b, c = rv["a"], rv["b"], rv["c"]
    x1, y1, z1 = rv["x1"], rv["y1"], rv["z1"]
    z_hub = rv[third_hub]
    z_end = a if z_hub == b else b

    n = 6
    for hub, u, v, prefix, length in (
        (b, a, x1, "x", spec.p),
        (b, c, y1, "y", spec.q),
        (z_hub, z_end, z1, "z", spec.r),
    ):
        roles = [f"{prefix}{i}" for i in range(2, length + 1)]
        _grow_fan(vroles, eroles, n, hub, u, v, roles)
        n += len(roles)
    for name in sorted(spec.deleted):
        del eroles[edge(rv[name[0]], rv[name[1]])]
    return LabeledInstance(Graph(n, frozenset(eroles)), spec, vroles, eroles)


def gen_h1(
    p: int, q: int, r: int, deleted: Sequence[str] | frozenset[str] = ()
) -> LabeledInstance:
    """H1(p, q, r): three fans on K33''', all hubbed at b."""
    return _gen_h(H1(p, q, r, frozenset(deleted)), "b")


def gen_h2(
    p: int, q: int, r: int, deleted: Sequence[str] | frozenset[str] = ()
) -> LabeledInstance:
    """H2(p, q, r): like H1 but the third fan is hubbed at a."""
    return _gen_h(H2(p, q, r, frozenset(deleted)), "a")


# -- enumeration of bicycle minors ----------------------------------------------
#
# The enumeration runs over rim words in {B, S, T}: a word with an N is
# never 3-connected.

_B_MINOR_CAP = 12


def _pattern_orbit(state: str) -> set[str]:
    r = len(state)
    swap = str.maketrans("ST", "TS")
    orbit = set()
    for flip in (False, True):
        s = state[::-1] if flip else state
        for shift in range(r):
            rot = s[shift:] + s[:shift]
            orbit.add(rot)
            orbit.add(rot.translate(swap))
    return orbit


@lru_cache(maxsize=None)
def enumerate_b_minors(n: int, cap: int = _B_MINOR_CAP) -> tuple[Bicycle, ...]:
    """All 3-connected non-planar spoke-deletion specs of B_n.

    Both filters are the spoke rules, so no graph is built.  Results are
    deduplicated up to rim rotation, rim reflection and hub swap, and
    returned in a stable order (fewest removals first).
    """
    if n < 5:
        raise ValueError("need n >= 5")
    if n > cap:
        raise ValueError(f"n={n} exceeds enumeration cap {cap}")
    r = n - 2
    seen: set[str] = set()
    out: list[tuple[tuple[int, str], Bicycle]] = []
    for chars in itertools.product("BST", repeat=r):
        state = "".join(chars)
        if state in seen:
            continue
        seen |= _pattern_orbit(state)
        spec = _bicycle_from_pattern(n, state)
        if not bicycle_is_3_connected(spec) or bicycle_is_planar(spec):
            continue
        removed = len(spec.removed_s) + len(spec.removed_t)
        out.append(((removed, state), spec))
    out.sort(key=lambda item: item[0])
    return tuple(spec for _, spec in out)


# -- the family registry -----------------------------------------------------------


@dataclass(frozen=True)
class Family:
    """One family's name, spec type, vertex count and generator.

    The spec type's fields are the family's parameters in JSON and CLI
    order, and the generator takes them positionally in that order.
    """

    name: str
    spec_type: type
    vertex_count: Callable[[FamilySpec], int]
    build: Callable[..., LabeledInstance]

    @cached_property
    def params(self) -> tuple[tuple[str, type, bool], ...]:
        """(field name, value or element type, is a frozenset) per field."""
        out = []
        for name, hint in get_type_hints(self.spec_type).items():
            is_set = get_origin(hint) is frozenset
            out.append((name, get_args(hint)[0] if is_set else hint, is_set))
        return tuple(out)


def _fan_vertex_count(spec: Union[H1, H2]) -> int:
    return spec.p + spec.q + spec.r + 3


# The generators are stored as objects: none is an entry point that
# perfbench/tracer.py rebinds (``generate`` is, and stays a module function).
FAMILIES: dict[str, Family] = {
    family.name: family
    for family in (
        Family("mobius", Mobius, lambda spec: 2 * spec.k, gen_mobius),
        Family("bicycle", Bicycle, lambda spec: spec.n, gen_bicycle),
        Family("wheel", Wheel, lambda spec: spec.n, gen_wheel),
        Family("k33chain", K33Chain, lambda spec: 6, gen_k33_chain),
        Family("h1", H1, _fan_vertex_count, gen_h1),
        Family("h2", H2, _fan_vertex_count, gen_h2),
    )
}

_BY_SPEC_TYPE = {family.spec_type: family for family in FAMILIES.values()}


def family_of(spec: FamilySpec) -> Family:
    """The registry entry of a spec's family."""
    family = _BY_SPEC_TYPE.get(type(spec))
    if family is None:
        raise TypeError(f"not a family spec: {spec!r}")
    return family


def spec_to_json(spec: FamilySpec) -> dict:
    family = family_of(spec)
    data: dict = {"family": family.name}
    for name, _, is_set in family.params:
        value = getattr(spec, name)
        data[name] = sorted(value) if is_set else value
    return data


def generate(spec: FamilySpec) -> LabeledInstance:
    """Build the labeled instance for any family spec."""
    family = family_of(spec)
    return family.build(*(getattr(spec, name) for name, _, _ in family.params))


# -- the family instances on n vertices ----------------------------------------------

_CHORD_SUBSETS = tuple(
    frozenset(chords)
    for size in range(len(CHORD_NAMES) + 1)
    for chords in itertools.combinations(CHORD_NAMES, size)
)


@lru_cache(maxsize=None)
def fan_instances(n: int) -> tuple[tuple[FamilySpec, Graph], ...]:
    """Every H1, then H2, instance on n vertices: all fan lengths with
    p + q + r = n - 3 and all chord deletions.

    None is tested: it is K33 plus its surviving chords (3-connected)
    with three fans, each subdividing a base edge uv (never a chord) and
    joining the new vertices to a hub h outside {u, v}, which keeps G
    3-connected.  Drop two old vertices and G stays connected with uv a
    path; drop a new one and an old y and G - y - uv stays connected
    (G - y was 2-connected), the other new vertices reaching h, or u or
    v if y = h; drop two new ones and G - uv stays connected, the rest
    reaching h.  The subdivided K33 keeps the graph non-planar.
    """
    out = []
    for spec_type in (H1, H2):
        for p in range(1, n - 4):
            for q in range(1, n - 3 - p):
                for deleted in _CHORD_SUBSETS:
                    spec = spec_type(p, q, n - 3 - p - q, deleted)
                    out.append((spec, generate(spec).graph))
    return tuple(out)


@lru_cache(maxsize=None)
def instances(
    n: int, include_bicycle: bool = True
) -> tuple[tuple[FamilySpec, Graph], ...]:
    """Every 3-connected non-planar family instance on n vertices, in
    match-priority order: Möbius, bicycle minors, H1, H2, K33 chains.

    ``include_bicycle=False`` leaves out the bicycle minors, whose sweep
    runs over 3^(n-2) spoke patterns.
    """
    specs: list[FamilySpec] = []
    if n >= 6 and n % 2 == 0:
        specs.append(Mobius(n // 2))
    if n >= 5 and include_bicycle:
        specs += enumerate_b_minors(n, cap=max(n, _B_MINOR_CAP))
    out = [(spec, generate(spec).graph) for spec in specs]
    out += fan_instances(n)
    if n == 6:
        out += [(spec, generate(spec).graph) for spec in map(K33Chain, _CHORD_SUBSETS)]
    return tuple(out)
