"""Immutable simple undirected graphs with 1-based vertices.

Vertices are always 1..n.  Edges are stored as a frozenset of sorted
pairs, so graphs hash and compare by value and every operation returns
a new graph.  All algorithms here are exact.  Construction, adjacency
lookups and connectivity scale past desk-scale inputs: `is_k_connected`
costs O(n^(k-2) * (n + m)) for k >= 2, one iterative low-point DFS per
set of k-2 vertices.  Isomorphism backtracks and is sized for a few
dozen vertices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Optional

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

    @classmethod
    def _trusted(cls, n: int, edges: frozenset[Edge]) -> "Graph":
        """A graph on a frozenset of pairs already known to satisfy
        1 <= u < v <= n, as a family generator or an operation on a valid
        graph makes them, built without `__post_init__`'s per-edge check.
        `Graph(...)`, `from_edges` and `parse_edge_list` keep that check."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "edges", edges)
        return g

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
        # A bijection maps the edges to distinct non-loop pairs on 1..n.
        pairs = ((mapping[u], mapping[v]) for u, v in self.edges)
        return Graph._trusted(
            self.n, frozenset((a, b) if a < b else (b, a) for a, b in pairs)
        )


def delete_edge(g: Graph, e: tuple[int, int]) -> Graph:
    """Remove edge e, leaving its end vertices intact."""
    e = edge(*e)
    if e not in g.edges:
        raise ValueError(f"no such edge: {e}")
    return Graph._trusted(g.n, g.edges - {e})


def contracted_edges(edges: Iterable[Edge], e: Edge) -> set[Edge]:
    """The edge set left when the edge e = (lo, hi), lo < hi, of a graph
    with edges `edges` is contracted: the merged vertex keeps lo and
    vertices above hi shift down by one.  Loops are dropped and parallel
    edges collapse, which leaves planarity and cycle lengths >= 3
    unchanged."""
    lo, hi = e
    pairs = set()
    for u, v in edges:
        a = lo if u == hi else u - (u > hi)
        b = lo if v == hi else v - (v > hi)
        if a != b:
            pairs.add((a, b) if a < b else (b, a))
    return pairs


def contract_edge(g: Graph, e: tuple[int, int]) -> Graph:
    """Identify the endpoints of e and renumber to 1..n-1, by the rule
    of `contracted_edges`."""
    e = edge(*e)
    if e not in g.edges:
        raise ValueError(f"no such edge: {e}")
    return Graph._trusted(g.n - 1, frozenset(contracted_edges(g.edges, e)))


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


def _biconnected_after_removal(g: Graph, removed: frozenset[int]) -> bool:
    """One low-point DFS (Hopcroft & Tarjan, 1973) over g minus `removed`:
    True when what is left, which must not be empty, is connected and
    has no cut vertex.

    Iterative, so the depth of the search is not bounded by the
    interpreter's recursion limit.  A vertex v other than the root is a
    cut vertex when some DFS child w has low[w] >= num[v]; the root is
    one when it has a second DFS child.
    """
    adj = g.adj
    root = next(v for v in g.vertices() if v not in removed)
    num = {root: 0}
    low = {root: 0}
    stack = [(root, root, iter(adj[root]))]
    while stack:
        v, parent, nbrs = stack[-1]
        for w in nbrs:
            if w in removed:
                continue
            if w not in num:
                if v == root and len(num) > 1:
                    return False  # a second DFS child of the root
                num[w] = low[w] = len(num)
                stack.append((w, v, iter(adj[w])))
                break
            if w != parent and num[w] < low[v]:
                low[v] = num[w]
        else:
            stack.pop()
            if v == root:
                continue
            if low[v] < low[parent]:
                low[parent] = low[v]
            elif parent != root and low[v] >= num[parent]:
                return False
    return len(num) == g.n - len(removed)


def is_k_connected(g: Graph, k: int) -> bool:
    """Exact k-connectivity in O(n^(k-2) * (n + m)) for k >= 2.

    A graph with at least k+1 vertices is k-connected when no vertex
    set of size < k disconnects it.  For k >= 2 that holds exactly when
    G - S is connected and has no cut vertex for every set S of k-2
    vertices, so one low-point DFS per such S decides it: n passes for
    k = 3 and C(n, 2) for k = 4.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if g.n < k + 1:
        return False
    if min((g.degree(v) for v in g.vertices()), default=0) < k:
        return False
    if k == 1:
        return is_connected(g)
    return all(
        _biconnected_after_removal(g, frozenset(cut))
        for cut in itertools.combinations(g.vertices(), k - 2)
    )


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


def isomorphism(g1: Graph, g2: Graph) -> Optional[dict[int, int]]:
    """Find a vertex bijection g1 -> g2 preserving adjacency, or None.

    Refines both graphs and, when their refinement rounds agree,
    backtracks over the colour classes (`_colored_isomorphism`);
    intended for small graphs (n up to ~20).  Callers that match one
    graph against many refine each graph once and call the helper.
    """
    if g1.n != g2.n or g1.m != g2.m:
        return None
    if g1.degree_sequence() != g2.degree_sequence():
        return None
    (c1, rounds1), (c2, rounds2) = _refine_colors(g1), _refine_colors(g2)
    if rounds1 != rounds2:
        return None
    return _colored_isomorphism(g1, c1, g2, c2)


def _colored_isomorphism(
    g1: Graph, c1: Mapping[int, int], g2: Graph, c2: Mapping[int, int]
) -> Optional[dict[int, int]]:
    """Backtracking search for an isomorphism g1 -> g2 that maps every
    vertex to one of the same colour, where c1 and c2 are the
    `_refine_colors` colourings of two graphs with equal refinement
    rounds (so their palettes are comparable)."""
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
# 1 <= u < v <= n.  The parser rejects loops, duplicates, out-of-range
# vertices and vertex counts above MAX_VERTICES.

# The most vertices the edge-list parser and `gen` accept.  The exact
# algorithms are capped far below it and the O(n) builders run at 10^4,
# so it only stops a few header bytes from asking for unbounded output.
MAX_VERTICES = 100_000


def check_vertex_count(n: int) -> int:
    """Return n, or raise ValueError when it exceeds MAX_VERTICES."""
    if n > MAX_VERTICES:
        raise ValueError(f"{n} vertices exceed the limit of {MAX_VERTICES}")
    return n


# A number with more significant digits than MAX_VERTICES is out of range
# whatever its value, and so is an edge count longer than the number of
# edge lines.  The parser rejects both before int(), which is quadratic
# in the length of its input and by default refuses over 4,300 digits.
_VERTEX_DIGITS = len(str(MAX_VERTICES))


def _shown(digits: str) -> str:
    """An over-long number, without leading zeros, as a message shows it."""
    return digits if len(digits) <= 20 else f"{digits[:10]}...({len(digits)} digits)"


# The most characters of an input line that an error message echoes.
_ECHO_CHARS = 80


def _echoed(line: str) -> str:
    """A malformed line as a message shows it: whole when it is short,
    else its start and its length."""
    if len(line) <= _ECHO_CHARS:
        return repr(line)
    return f"{line[: _ECHO_CHARS // 2]!r}...({len(line)} characters)"


def parse_edge_list(text: str) -> Graph:
    # Numbers are ASCII digits only: int() would also take "1_0", "+1"
    # and other scripts' digits.  str.isascii is O(1) in CPython, and an
    # ASCII string is isdigit() exactly when it is all of 0-9.
    if not text.isascii():
        raise ValueError("edge-list input has a non-ASCII character")
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2 or not (head[0].isdigit() and head[1].isdigit()):
        raise ValueError(f"header must be 'n m', got {_echoed(lines[0])}")
    n_digits, m_digits = (tok.lstrip("0") or "0" for tok in head)
    if len(n_digits) > _VERTEX_DIGITS:
        raise ValueError(f"{_shown(n_digits)} vertices exceed the limit of {MAX_VERTICES}")
    n, found = check_vertex_count(int(n_digits)), len(lines) - 1
    if len(m_digits) > len(str(found)) or int(m_digits) != found:
        raise ValueError(f"expected {_shown(m_digits)} edge lines, found {found}")
    seen: set[Edge] = set()
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2 or not (parts[0].isdigit() and parts[1].isdigit()):
            raise ValueError(f"malformed edge line {_echoed(ln)}")
        a, b = parts
        if len(a) > _VERTEX_DIGITS or len(b) > _VERTEX_DIGITS:
            a, b = a.lstrip("0") or "0", b.lstrip("0") or "0"
            if len(a) > _VERTEX_DIGITS or len(b) > _VERTEX_DIGITS:
                raise ValueError(
                    f"edge {_shown(a)} {_shown(b)} out of range (need 1 <= u < v <= {n})"
                )
        u, v = int(a), int(b)
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
