"""Exact planarity testing and the almost-planarity decision procedure.

A non-planar graph is almost-planar when, for every edge, deleting or
contracting that edge yields a planar graph.  `almost_planar_verdict`
decides it, stops at the first edge that fails both tests and reports
that edge; it is the one decision that classification and verification
read.  `almost_planar_verdict_within` returns the same verdict for a
spanning subgraph of an almost-planar graph without walking its edges.

The per-call planarity test is the package's own left-right test
(Brandes, "The Left-Right Planarity Test", 2009, after de Fraysseix,
Ossona de Mendez & Rosenstiehl, "Trémaux trees and planarity", 2006)
behind cheap exact shortcuts.  It returns a verdict only and builds no
embedding.  The test suite cross-validates it against networkx and an
exhaustive Kuratowski-subdivision search.

Verdicts are cached on the vertex count and the sorted edge pairs
packed into bytes, not on a Graph, and the almost-planarity walk builds
each deletion and contraction directly as such a key.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from itertools import chain
from typing import Iterable, Optional, Sequence

from .graph import Edge, Graph, contracted_edges, is_connected


def _lr_planar(n: int, adj: Sequence[Sequence[int]]) -> bool:
    """Left-right planarity verdict for the simple graph on 0..n-1 whose
    neighbour lists are adj[0..n-1].

    Orientation phase: one DFS per component orients each edge away
    from the root (tree edges down, back edges up to a proper ancestor)
    and gives every edge its lowpoint, second lowpoint and nesting
    depth.  Testing phase: a second DFS visits each vertex's edges by
    nesting depth and keeps a stack of conflict pairs, each a left and
    a right interval of return edges as ``[left low, left high, right
    low, right high]``; the graph is planar exactly when no pair is
    forced to put conflicting return edges on one side.  Only the
    ``ref`` links that trimming follows are kept; the sides and the
    embedding are never computed.  Both phases are iterative, so depth
    is not bounded by the interpreter's recursion limit.

    Edge ids are 0..m-1 in orientation order.  -1 means "no edge"; the
    per-edge lists it can index have a spare slot m for it.
    """
    m = sum(map(len, adj)) // 2
    height = [-1] * n
    parent = [-1] * n  # the tree edge into each vertex
    target = [0] * (m + 1)
    lowpt = [0] * (m + 1)
    lowpt2 = [0] * (m + 1)
    depth = [0] * (m + 1)  # nesting depth
    out: list[list[int]] = [[] for _ in range(n)]
    roots = []
    k = 0
    for root in range(n):
        if height[root] >= 0:
            continue
        height[root] = 0
        roots.append(root)
        stack = [(root, iter(adj[root]))]
        while stack:
            v, nbrs = stack[-1]
            hv = height[v]
            for w in nbrs:
                hw = height[w]
                if hw < 0:  # tree edge
                    target[k] = w
                    lowpt[k] = lowpt2[k] = hv
                    out[v].append(k)
                    parent[w] = k
                    height[w] = hv + 1
                    k += 1
                    stack.append((w, iter(adj[w])))
                    break
                if hw < hv - 1:
                    # A back edge to an ancestor other than the parent;
                    # one to a descendant was oriented from there.  Its
                    # lowpoint is hw and its second lowpoint hv, and the
                    # parent edge e starts at height hv - 1, so the
                    # general update of e reduces to these two cases.
                    target[k] = w
                    lowpt[k] = hw
                    depth[k] = 2 * hw
                    out[v].append(k)
                    e = parent[v]
                    if hw < lowpt[e]:
                        lowpt2[e] = lowpt[e]
                        lowpt[e] = hw
                    elif lowpt[e] < hw < lowpt2[e]:
                        lowpt2[e] = hw
                    k += 1
            else:
                stack.pop()
                e = parent[v]
                if e < 0:
                    continue
                # Finish the tree edge e = (u, v) and fold it into the
                # lowpoints of the tree edge f into u.
                lo, lo2 = lowpt[e], lowpt2[e]
                depth[e] = 2 * lo + (lo2 < hv - 1)
                f = parent[stack[-1][0]]
                if f >= 0:
                    if lo < lowpt[f]:
                        lowpt2[f] = min(lowpt[f], lo2)
                        lowpt[f] = lo
                    elif lo > lowpt[f]:
                        lowpt2[f] = min(lowpt2[f], lo)
                    else:
                        lowpt2[f] = min(lowpt2[f], lo2)
    for edges in out:
        edges.sort(key=depth.__getitem__)

    ref = [-1] * (m + 1)
    lowpt_edge = [-1] * (m + 1)
    bottom: list[Optional[list[int]]] = [None] * m  # top of S when an edge starts
    S: list[list[int]] = []

    def add_constraints(ei: int, e: int) -> bool:
        """Pair the return edges of ei, an out-edge other than the first
        of the head of e, against the conflicting return edges of its
        earlier siblings; False when no pairing exists."""
        lo_e = lowpt[e]
        pll = plh = prl = prh = -1
        stop = bottom[ei]
        while True:  # the return edges of ei go right in the new pair
            qll, qlh, qrl, qrh = S.pop()
            if qll >= 0 or qlh >= 0:
                qll, qlh, qrl, qrh = qrl, qrh, qll, qlh
                if qll >= 0 or qlh >= 0:
                    return False
            if lowpt[qrl] > lo_e:
                if prl < 0 and prh < 0:
                    prh = qrh
                else:
                    ref[prl] = qrh
                prl = qrl
            else:
                ref[qrl] = lowpt_edge[e]
            if (S[-1] if S else None) is stop:
                break
        lo_i = lowpt[ei]
        while S:  # conflicting return edges of earlier siblings go left
            qll, qlh, qrl, qrh = S[-1]
            if not (
                (qlh >= 0 and lowpt[qlh] > lo_i) or (qrh >= 0 and lowpt[qrh] > lo_i)
            ):
                break
            S.pop()
            if qrh >= 0 and lowpt[qrh] > lo_i:
                qll, qlh, qrl, qrh = qrl, qrh, qll, qlh
                if qrh >= 0 and lowpt[qrh] > lo_i:
                    return False
            ref[prl] = qrh
            if qrl >= 0:
                prl = qrl
            if pll < 0 and plh < 0:
                plh = qlh
            else:
                ref[pll] = qlh
            pll = qll
        if pll >= 0 or plh >= 0 or prl >= 0 or prh >= 0:
            S.append([pll, plh, prl, prh])
        return True

    nxt = [0] * n  # the next out-edge of each vertex to visit
    for root in roots:
        stack = [root]
        while stack:
            v = stack[-1]
            edges = out[v]
            e = parent[v]
            i = nxt[v]
            while i < len(edges):
                ei = edges[i]
                bottom[ei] = S[-1] if S else None
                if parent[target[ei]] == ei:  # tree edge: visit its head
                    nxt[v] = i
                    stack.append(target[ei])
                    break
                lowpt_edge[ei] = ei
                S.append([-1, -1, ei, ei])
                if i == 0:
                    lowpt_edge[e] = ei
                elif not add_constraints(ei, e):
                    return False
                i += 1
            else:
                stack.pop()
                if e < 0:
                    continue
                u = stack[-1]
                hu = height[u]
                # Drop the pairs whose lowest return edge ends at u, then
                # trim such edges off both intervals of the next pair.
                while S:
                    ll, lh, rl, rh = S[-1]
                    if ll < 0 and lh < 0:
                        low = lowpt[rl]
                    elif rl < 0 and rh < 0:
                        low = lowpt[ll]
                    else:
                        low = min(lowpt[ll], lowpt[rl])
                    if low != hu:
                        break
                    S.pop()
                if S:
                    P = S[-1]
                    h = P[1]
                    while h >= 0 and target[h] == u:
                        h = ref[h]
                    P[1] = h
                    if h < 0 and P[0] >= 0:
                        ref[P[0]] = P[2]
                        P[0] = -1
                    h = P[3]
                    while h >= 0 and target[h] == u:
                        h = ref[h]
                    P[3] = h
                    if h < 0 and P[2] >= 0:
                        ref[P[2]] = P[0]
                        P[2] = -1
                # Integrate the return edges of e at u.
                if lowpt[e] < hu:
                    if nxt[u] == 0:
                        lowpt_edge[parent[u]] = lowpt_edge[e]
                    elif not add_constraints(e, parent[u]):
                        return False
                nxt[u] += 1
    return True


# The planarity cache keys on (n, the sorted edge pairs packed into
# bytes): two unsigned ints per edge, 4 bytes each on the platforms
# CPython supports, so every vertex up to MAX_VERTICES fits, where 16
# bits would not.  Two keys are equal exactly when the graphs are, so
# the cache hits exactly as a cache keyed on the Graph would, at a
# fraction of its size.
_CODE = "I"
_EDGE_BYTES = 2 * array(_CODE).itemsize


def _pack_edges(edges: Iterable[Edge]) -> bytes:
    """The cache key bytes of sorted edge pairs."""
    return array(_CODE, chain.from_iterable(edges)).tobytes()


def _unpack_edges(codes: bytes) -> list[Edge]:
    """The edge pairs that `_pack_edges` packed into codes."""
    ends = iter(array(_CODE, codes))
    return list(zip(ends, ends))


def _deletion(codes: bytes, i: int) -> bytes:
    """The key of the graph whose sorted edge i is deleted; the other
    pairs stay sorted."""
    return codes[: i * _EDGE_BYTES] + codes[(i + 1) * _EDGE_BYTES :]


def _contraction(edges: Iterable[Edge], e: Edge) -> bytes:
    """The key of the graph with edges `edges` whose edge e is
    contracted, by the rule that `graph.contract_edge` also follows."""
    return _pack_edges(sorted(contracted_edges(edges, e)))


@lru_cache(maxsize=262144)
def _planar_cached(n: int, codes: bytes) -> bool:
    m = len(codes) // _EDGE_BYTES
    if n <= 4 or m <= 8:
        # smallest non-planar graphs are K5 (10 edges) and K3,3 (9 edges)
        return True
    if m > 3 * n - 6:
        return False
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in _unpack_edges(codes):
        adj[u - 1].append(v - 1)
        adj[v - 1].append(u - 1)
    return _lr_planar(n, adj)


def is_planar(g: Graph) -> bool:
    """Exact planarity verdict."""
    return _planar_cached(g.n, _pack_edges(g.sorted_edges()))


@lru_cache(maxsize=65536)
def almost_planar_verdict(g: Graph) -> tuple[bool, Optional[Edge]]:
    """The almost-planarity verdict and, when an edge decides it, the
    first edge in sorted order whose contraction and deletion are both
    non-planar.

    Planar input fails by definition, with no failing edge.
    Disconnected input fails too: the notion is only meaningful for
    connected graphs (the families characterized by it are all
    3-connected), and accepting e.g. a non-planar component plus an
    isolated vertex would be vacuous.  Otherwise the walk over the
    sorted edges tests the contraction first and the deletion only when
    the contraction is not planar, and stops at the first edge that
    fails both.  Each minor is built as its cache key, straight from
    the sorted edges, with no Graph.
    """
    edges = g.sorted_edges()
    codes = _pack_edges(edges)
    if _planar_cached(g.n, codes) or not is_connected(g):
        return False, None
    for i, e in enumerate(edges):
        if _planar_cached(g.n - 1, _contraction(edges, e)):
            continue
        if not _planar_cached(g.n, _deletion(codes, i)):
            return False, e
    return True, None


def almost_planar_verdict_within(g: Graph, cover: Graph) -> tuple[bool, Optional[Edge]]:
    """Exactly ``almost_planar_verdict(g)``, read from the verdict of a
    cover when the cover is almost-planar and spans g: same vertex
    count, every edge of g an edge of the cover.

    Proof.  Let e be an edge of g.  It is an edge of the cover, so
    cover - e or cover / e is planar.  g - e is a subgraph of cover - e.
    g / e is a subgraph of cover / e: `graph.contracted_edges` maps each
    edge by one rule that depends only on e, so it maps g's edges
    into the image of the cover's.  A subgraph of a planar graph is
    planar, so no edge of g fails both tests, the walk of
    `almost_planar_verdict(g)` finds no failing edge, and its verdict
    is whether g is non-planar and connected, with no edge.

    Otherwise g gets its own walk.  The cover relation is checked here,
    so a wrong cover costs a walk, never a wrong verdict.
    """
    if g.n == cover.n and g.edges <= cover.edges and almost_planar_verdict(cover)[0]:
        return not is_planar(g) and is_connected(g), None
    return almost_planar_verdict(g)
