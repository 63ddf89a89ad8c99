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
labels tying vertices and edges to the family's standard names.  The
generator writes only the edge set, by index arithmetic, and builds the
graph from it unchecked; the role maps are computed from the spec when
first read.  The cycle builders read neither: they work on the vertex
numbering fixed below.

Every per-family fact lives in one place.  The registry ``FAMILIES``
holds each family's name, spec type (its fields are the parameters),
vertex count, full-instance rule, generator and role rule;
:func:`generate` and :func:`spec_to_json` read from it.  The
full-instance rule names, for any spec, the family instance whose graph
contains the spec's graph on the same labels (B_n for a bicycle minor,
all chords kept for the K33 chains and fan families).  The classifier
walks only the full instances for almost-planarity: a spanning subgraph
inherits that each edge deletes or contracts to a planar graph.  :func:`instances` is the
one enumeration of the family instances on n vertices, uncached:
classify's index is their store.
Cycle spectra and builders sit in ``constructive.SPECTRA``, so adding
a family touches the registry plus one spectral entry.  3-connectivity is decided from the spec, never
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
* K33 chains and fan families: a, b, c are vertices 1, 2, 3 and x1,
  y1, z1 are 4, 5, 6; the fans of H1/H2 add x2..xp, y2..yq, z2..zr in
  that order from vertex 7 (:func:`fan_vertex`).
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence, Union
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


RoleMaps = tuple[dict[int, str], dict[Edge, str]]


class LabeledInstance:
    """A graph together with role labels for vertices and edges.

    The generators build only the graph.  An instance of a family spec
    computes both role maps from its spec, by the family's ``roles``
    rule, the first time either is read, and keeps them; maps passed in
    are kept as given.  An instance with neither a spec nor maps has
    none.
    """

    def __init__(
        self,
        graph: Graph,
        family: Optional[FamilySpec],
        vertex_roles: Optional[dict[int, str]] = None,
        edge_roles: Optional[dict[Edge, str]] = None,
    ) -> None:
        self.graph = graph
        self.family = family
        if vertex_roles is not None or edge_roles is not None:
            self.__dict__["_roles"] = (vertex_roles or {}, edge_roles or {})

    @cached_property
    def _roles(self) -> RoleMaps:
        if self.family is None:
            return {}, {}
        return family_of(self.family).roles(self.family)

    @property
    def vertex_roles(self) -> dict[int, str]:
        return self._roles[0]

    @property
    def edge_roles(self) -> dict[Edge, str]:
        """The role of every edge; its keys are the edge set."""
        return self._roles[1]

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


def _vertex_run(first: int, last: int) -> list[int]:
    """The vertices first..last as a list, so that the edges written from
    it share one int object per vertex (a range makes a new one on each
    pass, up to three per vertex)."""
    return list(range(first, last + 1))


def _edge_set(*parts: Iterable[Edge]) -> frozenset[Edge]:
    """The pairs of all parts as a frozenset.  Copied from a set, it is
    sized to its contents; grown straight from an iterator it can take
    twice the memory, which classify's index would hold per instance."""
    return frozenset(set(itertools.chain(*parts)))


def _mobius_twists(k: int) -> tuple[Edge, ...]:
    return (1, k), (k + 1, 2 * k), (k - 1, 2 * k), (k, 2 * k - 1)


def gen_mobius(k: int) -> LabeledInstance:
    """Möbius ladder V_2k, labeled 1..k left and k+1..2k right."""
    if k < 3:
        raise ValueError("Möbius ladder needs k >= 3")
    n = 2 * k
    left, right = _vertex_run(1, k), _vertex_run(k + 1, n)
    # Every pair below is written smaller end first, so none needs edge().
    edges = _edge_set(
        zip(left[:-2], left[1:-1]),  # left rail
        zip(right[:-2], right[1:-1]),  # right rail
        zip(left, right),  # rungs
        _mobius_twists(k),
    )
    return LabeledInstance(Graph._trusted(n, edges), Mobius(k))


def _mobius_roles(spec: Mobius) -> RoleMaps:
    k = spec.k
    vroles = {i: f"ladder-left-{i}" for i in range(1, k + 1)}
    vroles.update({k + i: f"ladder-right-{i}" for i in range(1, k + 1)})
    eroles: dict[Edge, str] = {}
    for i in range(1, k - 1):
        eroles[i, i + 1] = "ladder-side"
        eroles[k + i, k + i + 1] = "ladder-side"
    for i in range(1, k + 1):
        eroles[i, k + i] = "ladder-rung"
    eroles.update(dict.fromkeys(_mobius_twists(k), "ladder-twist"))
    return vroles, eroles


# -- bicycle wheels ------------------------------------------------------------


def rim_index(n: int, i: int) -> int:
    """Map any integer onto the rim 1..n-2 (modular indexing)."""
    r = n - 2
    return (i - 1) % r + 1


# A bicycle spec's spoke pattern is its rim word, one letter per rim
# vertex 1..n-2: B keeps both spokes, S only the s-spoke, T only the
# t-spoke, N neither.  Every structural fact of a minor is read from it.
def _check_bicycle(spec: Bicycle) -> None:
    """Raise for a bicycle spec with n < 5 or a spoke index off the rim."""
    n = spec.n
    if n < 5:
        raise ValueError("bicycle wheel needs n >= 5")
    for i in spec.removed_s | spec.removed_t:
        if not 1 <= i <= n - 2:
            raise ValueError(f"spoke index {i} out of range 1..{n - 2}")


def _rim_word(spec: Bicycle) -> str:
    """The rim word of a bicycle spec, B where no spoke is removed; a spec
    that fails `_check_bicycle` is an error."""
    _check_bicycle(spec)
    rs, rt = spec.removed_s, spec.removed_t
    letters = ["B"] * (spec.n - 2)
    for i in rs:
        letters[i - 1] = "T"
    for i in rt:
        letters[i - 1] = "N" if i in rs else "S"
    return "".join(letters)


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
    _check_bicycle(spec)
    if not bicycle_is_3_connected(spec):
        raise ValueError(
            "violates 3-connectivity precondition: every rim vertex needs a "
            "spoke and each hub two"
        )

    # Rim vertices sit below both hubs, so every pair below is written
    # smaller end first and none needs edge().
    hub_s, hub_t = n, n - 1
    rim = _vertex_run(1, n - 2)
    keeps_s = itertools.filterfalse(spec.removed_s.__contains__, rim)
    keeps_t = itertools.filterfalse(spec.removed_t.__contains__, rim)
    edges = _edge_set(
        zip(rim, rim[1:]),  # r_1..r_{n-3}
        ((1, n - 2), (hub_t, hub_s)),  # r_{n-2} and the axle z
        zip(keeps_s, itertools.repeat(hub_s)),
        zip(keeps_t, itertools.repeat(hub_t)),
    )
    return LabeledInstance(Graph._trusted(n, edges), spec)


def _bicycle_roles(spec: Bicycle) -> RoleMaps:
    n = spec.n
    hub_s, hub_t = n, n - 1
    vroles = {i: f"rim-{i}" for i in range(1, n - 1)}
    vroles[hub_s] = "hub-s"
    vroles[hub_t] = "hub-t"
    eroles: dict[Edge, str] = {(i, i + 1): f"r{i}" for i in range(1, n - 2)}
    eroles[1, n - 2] = f"r{n - 2}"
    for i, letter in enumerate(spec.rim_word, 1):
        if letter in "BS":
            eroles[i, hub_s] = f"s{i}"
        if letter in "BT":
            eroles[i, hub_t] = f"t{i}"
    eroles[hub_t, hub_s] = "z"
    return vroles, eroles


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
    rim = _vertex_run(1, n - 1)
    edges = _edge_set(
        zip(rim, rim[1:]),  # r_1..r_{n-2}
        ((1, n - 1),),  # r_{n-1}
        zip(rim, itertools.repeat(n)),  # the spokes
    )
    return LabeledInstance(Graph._trusted(n, edges), Wheel(n))


def _wheel_roles(spec: Wheel) -> RoleMaps:
    n = spec.n
    vroles = {i: f"rim-{i}" for i in range(1, n)}
    vroles[n] = "hub"
    eroles: dict[Edge, str] = {}
    for i in range(1, n):
        j = i + 1 if i < n - 1 else 1
        eroles[edge(i, j)] = f"r{i}"
        eroles[edge(i, n)] = f"spoke{i}"
    return vroles, eroles


# -- K33 chain and the fan families --------------------------------------------


# The K33 vertices 1..6 and their roles; a, b, c are one colour class.
_K33_ROLES = ("a", "b", "c", "x1", "y1", "z1")


def chord_edge(name: str) -> Edge:
    """The edge of a chord, named by its ends among a, b, c."""
    return _K33_ROLES.index(name[0]) + 1, _K33_ROLES.index(name[1]) + 1


def _k33_edges(chords: frozenset[str]) -> list[Edge]:
    """K_{3,3} on {a,b,c} x {x1,y1,z1} plus the named chords."""
    base = [(u, v) for u in (1, 2, 3) for v in (4, 5, 6)]
    return base + [chord_edge(name) for name in sorted(chords)]


def _k33_roles(extras: frozenset[str]) -> RoleMaps:
    """Vertex and edge roles of K_{3,3} plus the chords named in extras,
    on the edges of `_k33_edges`."""
    eroles = dict.fromkeys(_k33_edges(frozenset()), "base")
    for name in sorted(extras):
        eroles[chord_edge(name)] = name
    return dict(enumerate(_K33_ROLES, 1)), eroles


def gen_k33_chain(extra_edges: Sequence[str] | frozenset[str] = ()) -> LabeledInstance:
    """K_{3,3} on {a,b,c} x {x1,y1,z1} plus chords among a, b, c."""
    extras = frozenset(extra_edges)
    bad = extras - set(CHORD_NAMES)
    if bad:
        raise ValueError(f"unknown chord names: {sorted(bad)}")
    graph = Graph._trusted(6, _edge_set(_k33_edges(extras)))
    return LabeledInstance(graph, K33Chain(extras))


def _fan_edges(
    n: int, hub: int, u: int, v: int, count: int
) -> tuple[list[Edge], list[Edge]]:
    """The path v, n+1, ..., n+count, u that replaces the edge uv of an
    n-vertex graph, and the spokes joining hub to each new vertex.

    The new vertices are numbered above every old one, so each pair is
    written smaller end first.
    """
    new = _vertex_run(n + 1, n + count)
    path = [(v, new[0]), *zip(new, new[1:]), (u, new[-1])]
    return path, list(zip(itertools.repeat(hub), new))


def _grow_fan(
    vroles: dict[int, str],
    eroles: dict[Edge, str],
    n: int,
    hub: int,
    u: int,
    v: int,
    roles: Sequence[str],
) -> list[Edge]:
    """Replace the edge uv of an n-vertex graph by the fan of
    `_fan_edges` with one new vertex per role, in place on the role maps;
    returns the new edges.  No roles means no fan, and no change."""
    if not roles:
        return []
    path, spokes = _fan_edges(n, hub, u, v, len(roles))
    vroles.update(zip(range(n + 1, n + len(roles) + 1), roles))
    eroles.pop(edge(u, v), None)
    eroles.update(dict.fromkeys(path, "fan-path"))
    eroles.update(dict.fromkeys(spokes, "fan-spoke"))
    return path + spokes


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
    graph = Graph._trusted(g.n + count, (g.edges - {g_edge}).union(added))
    return LabeledInstance(graph, inst.family, vroles, eroles)


def _h_fans(spec: Union[H1, H2]) -> tuple[tuple[int, int, int, str, int], ...]:
    """(hub, u, v, role prefix, length) of the three fans of an H1/H2
    spec, in the order they are grown, each replacing the edge uv: across
    a-b-x1 and c-b-y1 with hub b, then across a-b-z1 with hub b for H1
    and hub a for H2."""
    a, b, c, x1, y1, z1 = range(1, 7)
    z_hub, z_end = (b, a) if isinstance(spec, H1) else (a, b)
    return (
        (b, a, x1, "x", spec.p),
        (b, c, y1, "y", spec.q),
        (z_hub, z_end, z1, "z", spec.r),
    )


def fan_vertex(spec: Union[H1, H2], prefix: str, i: int) -> int:
    """The vertex of role prefix + str(i) in an H1/H2 instance, for
    prefix x, y or z and 1 <= i <= that fan's length: x1, y1, z1 are 4,
    5, 6, and the fans' new vertices follow from 7 in growing order,
    x2..xp, then y2..yq, then z2..zr."""
    slot = "xyz".index(prefix)
    if i == 1:
        return 4 + slot
    return 5 + (0, spec.p - 1, spec.p + spec.q - 2)[slot] + i


def _gen_h(spec: Union[H1, H2]) -> LabeledInstance:
    """K33 with all chords, the fans of `_h_fans` grown in order, then the
    deleted chords removed."""
    if min(spec.p, spec.q, spec.r) < 1:
        raise ValueError("fan lengths p, q, r must be >= 1")
    bad = spec.deleted - set(CHORD_NAMES)
    if bad:
        raise ValueError(f"unknown deletable edges: {sorted(bad)}")
    edges = set(_k33_edges(frozenset(CHORD_NAMES)))
    n = 6
    for hub, u, v, _, length in _h_fans(spec):
        if length > 1:
            path, spokes = _fan_edges(n, hub, u, v, length - 1)
            edges.remove((u, v))
            edges.update(path)
            edges.update(spokes)
            n += length - 1
    edges.difference_update(map(chord_edge, spec.deleted))
    return LabeledInstance(Graph._trusted(n, frozenset(edges)), spec)


def _h_roles(spec: Union[H1, H2]) -> RoleMaps:
    vroles, eroles = _k33_roles(frozenset(CHORD_NAMES))
    n = 6
    for hub, u, v, prefix, length in _h_fans(spec):
        roles = [f"{prefix}{i}" for i in range(2, length + 1)]
        _grow_fan(vroles, eroles, n, hub, u, v, roles)
        n += len(roles)
    for name in sorted(spec.deleted):
        del eroles[chord_edge(name)]
    return vroles, eroles


def gen_h1(
    p: int, q: int, r: int, deleted: Sequence[str] | frozenset[str] = ()
) -> LabeledInstance:
    """H1(p, q, r): three fans on K33''', all hubbed at b."""
    return _gen_h(H1(p, q, r, frozenset(deleted)))


def gen_h2(
    p: int, q: int, r: int, deleted: Sequence[str] | frozenset[str] = ()
) -> LabeledInstance:
    """H2(p, q, r): like H1 but the third fan is hubbed at a."""
    return _gen_h(H2(p, q, r, frozenset(deleted)))


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
    """One family's name, spec type, vertex count, full-instance rule,
    generator and role rule.

    The spec type's fields are the family's parameters in JSON and CLI
    order, and the generator takes them positionally in that order.  The
    generator builds the graph alone; ``roles`` gives the vertex and edge
    role maps of a spec's instance, which the instance computes when
    they are first read (see `LabeledInstance`).
    ``full`` names the spec of the family's full instance over a spec:
    on the generator's labels, the spec's graph is a spanning subgraph
    of the full instance's graph.  A bicycle minor is B_n less some
    spokes; an H1/H2 instance is its fans on K33 with all three chords,
    less the deleted chords, which ``_gen_h`` removes after the fans are
    grown, so the labels agree; a K33 chain is K33 plus some of the
    three chords; a Möbius ladder and a wheel are their own.
    """

    name: str
    spec_type: type
    vertex_count: Callable[[FamilySpec], int]
    full: Callable[[FamilySpec], FamilySpec]
    build: Callable[..., LabeledInstance]
    roles: Callable[[FamilySpec], RoleMaps]

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


def _itself(spec: FamilySpec) -> FamilySpec:
    return spec


def _full_bicycle(spec: Bicycle) -> Bicycle:
    return Bicycle(spec.n)


def _all_chords(spec: K33Chain) -> K33Chain:
    return K33Chain(frozenset(CHORD_NAMES))


def _no_chord_deleted(spec: Union[H1, H2]) -> Union[H1, H2]:
    return replace(spec, deleted=frozenset())


# The generators are stored as objects: none is an entry point that
# perfbench/tracer.py rebinds (``generate`` is, and stays a module function).
FAMILIES: dict[str, Family] = {
    family.name: family
    for family in (
        Family(
            "mobius", Mobius, lambda spec: 2 * spec.k, _itself, gen_mobius, _mobius_roles
        ),
        Family(
            "bicycle",
            Bicycle,
            lambda spec: spec.n,
            _full_bicycle,
            gen_bicycle,
            _bicycle_roles,
        ),
        Family("wheel", Wheel, lambda spec: spec.n, _itself, gen_wheel, _wheel_roles),
        Family(
            "k33chain",
            K33Chain,
            lambda spec: 6,
            _all_chords,
            gen_k33_chain,
            lambda spec: _k33_roles(spec.extra_edges),
        ),
        Family("h1", H1, _fan_vertex_count, _no_chord_deleted, gen_h1, _h_roles),
        Family("h2", H2, _fan_vertex_count, _no_chord_deleted, gen_h2, _h_roles),
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


def instances(
    n: int, include_bicycle: bool = True
) -> tuple[tuple[FamilySpec, Graph], ...]:
    """Every 3-connected non-planar family instance on n vertices, in
    match-priority order: Möbius, bicycle minors, H1, H2, K33 chains.

    ``include_bicycle=False`` leaves out the bicycle minors, whose sweep
    runs over 3^(n-2) spoke patterns.  H1 and H2 take every fan length
    with p + q + r = n - 3 and every chord deletion.

    None is tested.  An H instance is K33 plus its surviving chords
    (3-connected) with three fans, each subdividing a base edge uv
    (never a chord) and joining the new vertices to a hub h outside
    {u, v}, which keeps G 3-connected.  Drop two old vertices and G
    stays connected with uv a path; drop a new one and an old y and
    G - y - uv stays connected (G - y was 2-connected), the other new
    vertices reaching h, or u or v if y = h; drop two new ones and
    G - uv stays connected, the rest reaching h.  The subdivided K33
    keeps the graph non-planar.
    """
    specs: list[FamilySpec] = []
    if n >= 6 and n % 2 == 0:
        specs.append(Mobius(n // 2))
    if n >= 5 and include_bicycle:
        specs += enumerate_b_minors(n, cap=max(n, _B_MINOR_CAP))
    for spec_type in (H1, H2):
        for p in range(1, n - 4):
            for q in range(1, n - 3 - p):
                for deleted in _CHORD_SUBSETS:
                    specs.append(spec_type(p, q, n - 3 - p - q, deleted))
    if n == 6:
        specs += map(K33Chain, _CHORD_SUBSETS)
    return tuple((spec, generate(spec).graph) for spec in specs)
