"""Brute-force ground truth for cycle structure.

Everything here is exhaustive search, deliberately independent of the
constructive builders.  One pruned backtracking search answers every
question: the first simple path of a given vertex count between two
vertices, in sorted-neighbour order, cut wherever the end is farther
away than the vertices still to add.  A cycle of each length is that
path from its smallest vertex back to itself through larger vertices
only; a Hamiltonian path is that path over all n vertices.  Each public
call builds the sorted adjacency and the distance table once.
Instances are capped at desk scale (default 18 vertices, overridable
via the APK_ORACLE_CAP environment variable).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import OracleCapError
from .graph import Graph

DEFAULT_CAP = 18

Tables = tuple[list[list[int]], list[list[int]]]


def oracle_cap(explicit: Optional[int] = None) -> int:
    """The explicit cap, else APK_ORACLE_CAP, else DEFAULT_CAP.

    The variable is read as the edge-list parser reads a number: ASCII
    digits only, so no sign, underscore or other script's digits.  An
    empty value keeps the default; any other value raises ValueError.
    """
    if explicit is not None:
        return explicit
    env = os.environ.get("APK_ORACLE_CAP")
    if not env:
        return DEFAULT_CAP
    if not (env.isascii() and env.isdigit()):
        raise ValueError(f"APK_ORACLE_CAP must be ASCII digits, got {env!r}")
    return int(env)


def _distances(g: Graph) -> list[list[int]]:
    """All-pairs BFS distances; unreachable pairs get n+1."""
    inf = g.n + 1
    dist = [[inf] * (g.n + 1) for _ in range(g.n + 1)]
    for s in g.vertices():
        row = dist[s]
        row[s] = 0
        frontier = [s]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for v in frontier:
                for w in g.adj[v]:
                    if row[w] > d:
                        row[w] = d
                        nxt.append(w)
            frontier = nxt
    return dist


def _tables(g: Graph, cap: Optional[int]) -> Tables:
    """Check the cap, then build the sorted adjacency lists (indexed by
    vertex) and the distance table that every search of one call shares."""
    limit = oracle_cap(cap)
    if g.n > limit:
        raise OracleCapError(
            f"instance too large for oracle: n={g.n} > cap {limit}"
        )
    return [[]] + [sorted(g.adj[v]) for v in g.vertices()], _distances(g)


def _path(
    tables: Tables, start: int, end: int, count: int, floor: int
) -> Optional[list[int]]:
    """The first simple path of `count` vertices from start to end, in
    sorted-neighbour order, that visits end only last and no other
    vertex <= floor; None if there is none.

    start == end with count >= 4 asks for a cycle through start.  A
    branch is cut when its vertex is farther from end than the number of
    vertices still to add.
    """
    adj, dist = tables
    to_end = dist[end]  # distances are symmetric
    path = [start]
    on_path = [False] * len(adj)
    on_path[start] = True

    def rec(w: int) -> bool:
        left = count - len(path)
        for x in adj[w]:
            if x == end:
                if left == 1:
                    path.append(x)
                    return True
            elif x > floor and not on_path[x] and to_end[x] < left:
                on_path[x] = True
                path.append(x)
                if rec(x):
                    return True
                path.pop()
                on_path[x] = False
        return False

    return path if rec(start) else None


def _cycle_of_length(tables: Tables, length: int) -> Optional[list[int]]:
    """One simple cycle of exactly the given length, or None.

    Canonical search: the cycle is rooted at its smallest vertex, so
    each cycle is explored once up to rotation and direction.
    """
    for s in range(1, len(tables[0])):
        closed = _path(tables, s, s, length + 1, s)
        if closed is not None:
            return closed[:-1]
    return None


@dataclass(frozen=True)
class CycleSpectrum:
    """The set of cycle lengths present, with optional witness cycles."""

    n: int
    lengths: frozenset[int]
    witnesses: Optional[dict[int, list[int]]] = None

    @property
    def pancyclic(self) -> bool:
        return self.lengths == frozenset(range(3, self.n + 1))

    @property
    def hamiltonian(self) -> bool:
        return self.n in self.lengths

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "n": self.n,
            "lengths": sorted(self.lengths),
            "witnesses": (
                {str(k): v for k, v in sorted(self.witnesses.items())}
                if self.witnesses is not None
                else None
            ),
            "pancyclic": self.pancyclic,
            "hamiltonian": self.hamiltonian,
        }


def cycle_spectrum(
    g: Graph, witnesses: bool = False, cap: Optional[int] = None
) -> CycleSpectrum:
    """Exhaustive cycle spectrum over lengths 3..n."""
    tables = _tables(g, cap)
    found: dict[int, list[int]] = {}
    for length in range(3, g.n + 1):
        cyc = _cycle_of_length(tables, length)
        if cyc is not None:
            found[length] = cyc
    return CycleSpectrum(g.n, frozenset(found), found if witnesses else None)


def is_pancyclic(g: Graph, cap: Optional[int] = None) -> bool:
    """True iff cycles of every length 3..n exist."""
    tables = _tables(g, cap)
    return all(
        _cycle_of_length(tables, length) is not None
        for length in range(3, g.n + 1)
    )


def hamiltonian_cycle(g: Graph, cap: Optional[int] = None) -> Optional[list[int]]:
    tables = _tables(g, cap)
    return _cycle_of_length(tables, g.n) if g.n >= 3 else None


def is_hamiltonian(g: Graph, cap: Optional[int] = None) -> bool:
    return hamiltonian_cycle(g, cap) is not None


def hamiltonian_path(
    g: Graph, u: int, v: int, cap: Optional[int] = None
) -> Optional[list[int]]:
    """A spanning path from u to v, or None."""
    tables = _tables(g, cap)
    if u == v:
        raise ValueError("endpoints must differ")
    for w in (u, v):
        if not 1 <= w <= g.n:
            raise ValueError(f"vertex {w} out of range")
    return _path(tables, u, v, g.n, 0)


def hamiltonian_connectivity(
    g: Graph, cap: Optional[int] = None
) -> tuple[bool, Optional[tuple[int, int]]]:
    """Check every vertex pair for a spanning path.

    Returns (True, None) or (False, first failing pair).
    """
    tables = _tables(g, cap)
    for u in g.vertices():
        for v in range(u + 1, g.n + 1):
            if _path(tables, u, v, g.n, 0) is None:
                return False, (u, v)
    return True, None


# -- sequence validation --------------------------------------------------------


@dataclass(frozen=True)
class SeqCheck:
    """Validation verdict with a reason code on failure."""

    ok: bool
    reason: Optional[str] = None

    def __bool__(self) -> bool:
        return self.ok


def _check_seq(
    g: Graph, seq: Sequence[int], expect_length: int, closed: bool
) -> SeqCheck:
    """One pass per check, in this order: length, vertex range,
    distinct vertices, then each consecutive pair (and the closing pair
    of a cycle) an edge of g, the first missing one reported."""
    if len(seq) != expect_length:
        return SeqCheck(False, "wrong length")
    if closed and expect_length < 3:
        return SeqCheck(False, "wrong length")
    if not seq:
        return SeqCheck(True)
    if min(seq) < 1 or max(seq) > g.n:
        return SeqCheck(False, "vertex out of range")
    if len(set(seq)) != len(seq):
        return SeqCheck(False, "duplicate vertex")
    edges = g.edges
    for a, b in zip(seq, [*seq[1:], seq[0]] if closed else seq[1:]):
        if ((a, b) if a < b else (b, a)) not in edges:
            return SeqCheck(False, f"missing edge ({a}, {b})")
    return SeqCheck(True)


def validate_cycle(g: Graph, seq: Sequence[int], expect_length: int) -> SeqCheck:
    """Check that seq is a simple cycle of the expected length in g.

    The sequence lists each cycle vertex once; the closing edge from
    last back to first is implied.
    """
    return _check_seq(g, seq, expect_length, closed=True)


def validate_path(g: Graph, seq: Sequence[int], expect_length: int) -> SeqCheck:
    """Check that seq is a simple path on expect_length vertices in g."""
    return _check_seq(g, seq, expect_length, closed=False)
