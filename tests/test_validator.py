"""Differential test of the sequence validator against a reference copy.

``reference_check_seq`` is the validator as it read before its checks
became one min/max pass and one loop over the pairs: one check per
vertex, then ``Graph.has_edge`` per pair.  ``validate_cycle`` and
``validate_path`` must return the same verdict and the same reason on
every input, so no builder gate or errata reason can drift.
"""

from __future__ import annotations

from typing import Sequence

from hypothesis import given, settings
from hypothesis import strategies as st

from almostplanar.graph import Graph, edge
from almostplanar.oracle import SeqCheck, validate_cycle, validate_path


def reference_check_seq(
    g: Graph, seq: Sequence[int], expect_length: int, closed: bool
) -> SeqCheck:
    if len(seq) != expect_length:
        return SeqCheck(False, "wrong length")
    if closed and expect_length < 3:
        return SeqCheck(False, "wrong length")
    for v in seq:
        if not 1 <= v <= g.n:
            return SeqCheck(False, "vertex out of range")
    if len(set(seq)) != len(seq):
        return SeqCheck(False, "duplicate vertex")
    pairs = list(zip(seq, seq[1:]))
    if closed:
        pairs.append((seq[-1], seq[0]))
    for a, b in pairs:
        if not g.has_edge(a, b):
            return SeqCheck(False, f"missing edge ({a}, {b})")
    return SeqCheck(True)


MUTATIONS = ("length", "zero", "past-n", "duplicate", "inner-edge", "closing-edge")


@st.composite
def cases(draw):
    """A graph holding a cycle or path through seq, with any subset of
    the mutations applied: a wrong expected length, vertex 0, vertex
    n + 1, a duplicate, a missing inner edge, a missing closing edge."""
    n = draw(st.integers(1, 10))
    order = draw(st.permutations(range(1, n + 1)))
    seq = list(order[: draw(st.integers(0, n))])
    edges = {edge(a, b) for a, b in zip(seq, seq[1:])}
    if len(seq) >= 3:
        edges.add(edge(seq[-1], seq[0]))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges |= draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    expect = len(seq)
    for mutation in draw(st.lists(st.sampled_from(MUTATIONS), unique=True)):
        if mutation == "length":
            expect = draw(st.integers(0, n + 2))
        elif mutation in ("zero", "past-n", "duplicate") and seq:
            i = draw(st.integers(0, len(seq) - 1))
            if mutation == "duplicate":
                seq[i] = seq[draw(st.integers(0, len(seq) - 1))]
            else:
                seq[i] = 0 if mutation == "zero" else n + 1
        elif mutation == "inner-edge" and len(seq) >= 2:
            i = draw(st.integers(0, len(seq) - 2))
            edges.discard(tuple(sorted((seq[i], seq[i + 1]))))
        elif mutation == "closing-edge" and len(seq) >= 2:
            edges.discard(tuple(sorted((seq[-1], seq[0]))))
    return Graph(n, frozenset(edges)), seq, expect


@given(cases())
@settings(max_examples=400, deadline=None)
def test_validators_match_the_reference(case):
    g, seq, expect = case
    assert validate_cycle(g, seq, expect) == reference_check_seq(g, seq, expect, True)
    assert validate_path(g, seq, expect) == reference_check_seq(g, seq, expect, False)


@given(
    st.integers(0, 8).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.sets(st.tuples(st.integers(1, 8), st.integers(1, 8)).filter(
                lambda e: e[0] < e[1] <= n
            )),
            st.lists(st.integers(-1, n + 2), max_size=n + 2),
            st.integers(0, n + 2),
        )
    )
)
@settings(max_examples=300, deadline=None)
def test_validators_match_the_reference_on_arbitrary_sequences(case):
    n, edges, seq, expect = case
    g = Graph(n, frozenset(edges))
    assert validate_cycle(g, seq, expect) == reference_check_seq(g, seq, expect, True)
    assert validate_path(g, seq, expect) == reference_check_seq(g, seq, expect, False)
