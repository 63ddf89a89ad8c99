"""Acceptance suite: every criterion runs its full stated range and
prints one pass/fail line.

The five criteria that sweep the corpus (b-minor-hamiltonicity,
h-graphs, pancyclic-iff-triangle, almost-planarity,
builder-oracle-equivalence) share one computation: classify's index
builds the family instances on each n once, groups them into
isomorphism classes and keeps each class's member graphs and, on first
use, its oracle spectrum, so each class's spectrum is searched once.
Every classify query of the almost-planarity criterion matches a built
index, so it decides each isomorphism class once, through the cached
verdict of the class graph, instead of each spec.
"""

import pytest

from almostplanar import verify


@pytest.mark.parametrize(
    "criterion",
    [fn for _, fn in verify.CRITERIA],
    ids=[name for name, _ in verify.CRITERIA],
)
def test_criterion(criterion):
    result = criterion(None)
    print(result.line())
    assert result.passed, result.detail
