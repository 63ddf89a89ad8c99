"""Acceptance suite: every criterion runs its full stated range and
prints one pass/fail line.

The heavy shared work is cached, so the criteria that sweep the corpus
share one computation: the family instances on each n are built once
by ``families.instances`` (which the classifier groups into isomorphism
classes), and the verify module caches the corpus up to 12 vertices and
its oracle spectra.  The classifier gates on planarity and
3-connectivity, then matches (deciding the input first only while the
index for its order is not built); the almost-planarity criterion
therefore decides each isomorphism class once, through the cached
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
