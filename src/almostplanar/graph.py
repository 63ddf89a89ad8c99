"""Immutable simple undirected graphs with 1-based vertices.

Vertices are always 1..n.  Edges are stored as a frozenset of sorted
pairs, so graphs hash and compare by value and every operation returns
a new graph.  All algorithms here are exact and sized for desk-scale
inputs (a few dozen vertices); only construction and adjacency lookups
are expected to scale further.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Optional

Edge = tuple[int, int]


def edge(u: int, v: int) -> Edge:
    """Normalize an edge to (min, max) order."""
    if u == v:
        raise ValueError(f"loop edge ({u}, {v}) not allowed")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 1..n."""

    n: int
    edges: frozenset[Edge] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        if not isinstance(self.edges, frozenset):
            object.__setattr__(self, "edges", frozenset(self.edges))
        for u, v in self.edges:
            if not (1 <= u < v <= self.n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={self.n}")

    @classmethod
    def from_edges(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Graph":
        return cls(n, frozenset(edge(u, v) for u, v in pairs))

    @property
    def m(self) -> int:
        return len(self.edges)

    def vertices(self) -> range:
        return range(1, self.n + 1)

    @cached_property
    def adj(self) -> dict[int, frozenset[int]]:
        nbrs: dict[int, set[int]] = {v: set() for v in self.vertices()}
        for u, v in self.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        return {v: frozenset(s) for v, s in nbrs.items()}

    def has_edge(self, u: int, v: int) -> bool:
        return edge(u, v) in self.edges

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(len(self.adj[v]) for v in self.vertices()))

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)

    def __iter__(self) -> Iterator[int]:
        return iter(self.vertices())

    def relabel(self, mapping: dict[int, int]) -> "Graph":
        """Apply a vertex bijection 1..n -> 1..n."""
        if sorted(mapping) != list(self.vertices()) or sorted(
            mapping.values()
        ) != list(self.vertices()):
            raise ValueError("mapping is not a bijection on 1..n")
        return Graph.from_edges(
            self.n, ((mapping[u], mapping[v]) for u, v in self.edges)
        )


def delete_edge(g: Graph, e: tuple[int, int]) -> Graph:
    """Remove edge e, leaving its end vertices intact."""
    e = edge(*e)
    if e not in g.edges:
        raise ValueError(f"no such edge: {e}")
    return Graph(g.n, g.edges - {e})


def add_edge(g: Graph, e: tuple[int, int]) -> Graph:
    e = edge(*e)
    if not (1 <= e[0] < e[1] <= g.n):
        raise ValueError(f"edge {e} out of range")
    return Graph(g.n, g.edges | {e})


def contract_edge(g: Graph, e: tuple[int, int]) -> Graph:
    """Identify the endpoints of e and renumber to 1..n-1.

    The merged vertex keeps min(u, v); vertices above max(u, v) shift
    down by one.  Loops are dropped and parallel edges collapse, which
    leaves planarity and cycle lengths >= 3 unchanged.
    """
    e = edge(*e)
    if e not in g.edges:
        raise ValueError(f"no such edge: {e}")
    lo, hi = e

    def remap(w: int) -> int:
        if w == hi:
            return lo
        return w - 1 if w > hi else w

    new_edges = set()
    for u, v in g.edges:
        a, b = remap(u), remap(v)
        if a != b:
            new_edges.add(edge(a, b))
    return Graph(g.n - 1, frozenset(new_edges))


def is_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    seen = {1}
    stack = [1]
    while stack:
        for w in g.adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


def _connected_after_removal(g: Graph, removed: frozenset[int]) -> bool:
    rest = [v for v in g.vertices() if v not in removed]
    if len(rest) <= 1:
        return True
    seen = {rest[0]}
    stack = [rest[0]]
    while stack:
        for w in g.adj[stack.pop()]:
            if w not in removed and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(rest)


def is_k_connected(g: Graph, k: int) -> bool:
    """Exact k-connectivity by exhaustive cut enumeration.

    A graph with at least k+1 vertices is k-connected when no vertex
    set of size < k disconnects it.  Desk-scale n keeps the subset
    enumeration cheap for the k <= 4 regime this package needs.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if g.n < k + 1:
        return False
    if min((g.degree(v) for v in g.vertices()), default=0) < k:
        return False
    for size in range(k):
        for cut in itertools.combinations(g.vertices(), size):
            if not _connected_after_removal(g, frozenset(cut)):
                return False
    return True


def two_coloring(g: Graph) -> Optional[dict[int, int]]:
    """BFS 2-coloring; returns vertex -> {0, 1} or None if not bipartite."""
    color: dict[int, int] = {}
    for start in g.vertices():
        if start in color:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            v = queue.pop()
            for w in g.adj[v]:
                if w not in color:
                    color[w] = 1 - color[v]
                    queue.append(w)
                elif color[w] == color[v]:
                    return None
    return color


def is_bipartite(g: Graph) -> bool:
    return two_coloring(g) is not None


# -- isomorphism ------------------------------------------------------------


def _refine_colors(g: Graph) -> tuple[dict[int, int], tuple]:
    """Iterated degree refinement (1-dim Weisfeiler-Leman) with int colours.

    Each round keys every vertex by its colour and the sorted colours of
    its neighbours, then renumbers the distinct keys in sorted order.  Two
    graphs whose rounds have equal sorted key multisets get the same
    palette in every round, so their colours are comparable.  Returns the
    final colour of each vertex and the sorted keys of every round.
    """
    adj = g.adj
    colors = {v: len(adj[v]) for v in g.vertices()}
    distinct = len(set(colors.values()))
    rounds = []
    for _ in range(g.n):
        keys = {
            v: (colors[v], tuple(sorted([colors[w] for w in adj[v]])))
            for v in g.vertices()
        }
        ordered = tuple(sorted(keys.values()))
        palette = {key: i for i, key in enumerate(dict.fromkeys(ordered))}
        rounds.append(ordered)
        colors = {v: palette[key] for v, key in keys.items()}
        if len(palette) == distinct:
            break
        distinct = len(palette)
    return colors, tuple(rounds)


def refinement_signature(g: Graph) -> tuple:
    """Label-invariant signature from degree refinement: n, m and the
    sorted key multiset of every refinement round.

    Equal signatures are necessary (not sufficient) for isomorphism;
    used to prefilter candidate sweeps before exact matching.
    """
    return (g.n, g.m, _refine_colors(g)[1])


def isomorphism(g1: Graph, g2: Graph) -> Optional[dict[int, int]]:
    """Find a vertex bijection g1 -> g2 preserving adjacency, or None.

    Backtracking over color classes from degree refinement; intended
    for small graphs (n up to ~20).
    """
    if g1.n != g2.n or g1.m != g2.m:
        return None
    if g1.degree_sequence() != g2.degree_sequence():
        return None
    (c1, rounds1), (c2, rounds2) = _refine_colors(g1), _refine_colors(g2)
    if rounds1 != rounds2:
        return None
    classes1: dict[int, list[int]] = {}
    classes2: dict[int, list[int]] = {}
    for v, c in c1.items():
        classes1.setdefault(c, []).append(v)
    for v, c in c2.items():
        classes2.setdefault(c, []).append(v)

    # Map vertices in order of ascending color-class size to fail fast.
    order = sorted(g1.vertices(), key=lambda v: (len(classes1[c1[v]]), v))
    adj1, adj2 = g1.adj, g2.adj
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def extend(idx: int) -> bool:
        if idx == len(order):
            return True
        v = order[idx]
        for w in classes2[c1[v]]:
            if w in used:
                continue
            ok = True
            for v2, w2 in mapping.items():
                if (v2 in adj1[v]) != (w2 in adj2[w]):
                    ok = False
                    break
            if ok:
                mapping[v] = w
                used.add(w)
                if extend(idx + 1):
                    return True
                del mapping[v]
                used.remove(w)
        return False

    return dict(mapping) if extend(0) else None


def are_isomorphic(g1: Graph, g2: Graph) -> bool:
    return isomorphism(g1, g2) is not None


# -- edge-list text format ---------------------------------------------------
#
# Shared interchange format: first line "n m", then m lines "u v" with
# 1 <= u < v <= n.  The parser rejects loops, duplicates and
# out-of-range vertices.


def parse_edge_list(text: str) -> Graph:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"header must be 'n m', got {lines[0]!r}")
    n, m = int(head[0]), int(head[1])
    if len(lines) - 1 != m:
        raise ValueError(f"expected {m} edge lines, found {len(lines) - 1}")
    seen: set[Edge] = set()
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"malformed edge line {ln!r}")
        u, v = int(parts[0]), int(parts[1])
        if u == v:
            raise ValueError(f"loop edge {u} {v} rejected")
        if not (1 <= u < v <= n):
            raise ValueError(f"edge {u} {v} out of range (need 1 <= u < v <= {n})")
        if (u, v) in seen:
            raise ValueError(f"duplicate edge {u} {v}")
        seen.add((u, v))
    return Graph(n, frozenset(seen))


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.sorted_edges())
    return "\n".join(lines) + "\n"
