"""Independent checks on the package's outputs.

Everything here uses networkx or plain set arithmetic, never the
package's own validators, so a defect in a fast path cannot also hide in
its check.  The names are bound at import, before any tracing wrapper is
installed, so these calls are never counted as package work.
"""

from __future__ import annotations

from networkx import Graph as NxGraph
from networkx import check_planarity, contracted_nodes, is_bipartite, node_connectivity


def nx_graph(n: int, edges) -> NxGraph:
    g = NxGraph()
    g.add_nodes_from(range(1, n + 1))
    g.add_edges_from(edges)
    return g


def planar(g: NxGraph) -> bool:
    return check_planarity(g, counterexample=False)[0]


def deletion_planar(g: NxGraph, u: int, v: int) -> bool:
    h = g.copy()
    h.remove_edge(u, v)
    return planar(h)


def contraction_planar(g: NxGraph, u: int, v: int) -> bool:
    return planar(contracted_nodes(g, u, v, self_loops=False))


def gate(n: int, edges) -> str:
    """The classify gate a graph must land in, decided by networkx."""
    g = nx_graph(n, edges)
    if planar(g):
        return "planar"
    if node_connectivity(g) < 3:
        return "not-3-connected"
    for u, v in g.edges:
        if not (deletion_planar(g, u, v) or contraction_planar(g, u, v)):
            return "not-almost-planar"
    return "almost-planar"


def three_connected_nonplanar(n: int, edges) -> bool:
    g = nx_graph(n, edges)
    return not planar(g) and node_connectivity(g) >= 3


def bipartite(n: int, edges) -> bool:
    return is_bipartite(nx_graph(n, edges))


def _norm(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def cycle_error(edges: frozenset, n: int, seq, length: int) -> str | None:
    """None when seq is a simple cycle on `length` vertices of the graph."""
    if len(seq) != length or length < 3:
        return f"cycle has {len(seq)} vertices, want {length}"
    if len(set(seq)) != len(seq) or not all(1 <= v <= n for v in seq):
        return "cycle vertices not distinct or out of range"
    for a, b in zip(seq, list(seq[1:]) + [seq[0]]):
        if a == b or _norm(a, b) not in edges:
            return f"cycle uses non-edge ({a}, {b})"
    return None


def path_error(edges: frozenset, n: int, seq, u: int, v: int) -> str | None:
    """None when seq is a Hamiltonian path from u to v."""
    if len(seq) != n or set(seq) != set(range(1, n + 1)):
        return "path is not spanning"
    if seq[0] != u or seq[-1] != v:
        return f"path ends {seq[0]}..{seq[-1]}, want {u}..{v}"
    for a, b in zip(seq, seq[1:]):
        if _norm(a, b) not in edges:
            return f"path uses non-edge ({a}, {b})"
    return None


def negative_gate_error(n: int, edges, gate_name: str, failing_edge) -> str | None:
    """Cross-check a negative classify verdict against networkx."""
    g = nx_graph(n, edges)
    if gate_name == "planar":
        return None if planar(g) else "planar gate on a non-planar graph"
    if gate_name == "not-3-connected":
        if node_connectivity(g) >= 3:
            return "not-3-connected gate on a 3-connected graph"
        return None
    if gate_name == "not-almost-planar":
        if failing_edge is None:
            return "no failing edge reported"
        u, v = failing_edge
        if not g.has_edge(u, v):
            return f"reported failing edge ({u}, {v}) is not an edge"
        if deletion_planar(g, u, v) or contraction_planar(g, u, v):
            return f"reported failing edge ({u}, {v}) passes deletion or contraction"
        return None
    return f"unexpected gate {gate_name}"
