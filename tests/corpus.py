"""The family corpus as the tests read it, built once per test session.

The package keeps no copy of it: classify's index is the one store of
family instances, and ``families.instances`` rebuilds them on each
call.  Hypothesis strategies draw from these pools on every example, so
they are built here once.
"""

import functools
import itertools

from almostplanar.families import FamilySpec, instances
from almostplanar.graph import Graph


@functools.cache
def corpus(n_max: int) -> tuple[tuple[FamilySpec, Graph], ...]:
    """Every family instance with 5 <= n <= n_max, by n and within each
    n in match-priority order."""
    return tuple(
        itertools.chain.from_iterable(instances(n) for n in range(5, n_max + 1))
    )


@functools.cache
def corpus_graphs(n_max: int) -> tuple[Graph, ...]:
    """The graphs of `corpus(n_max)`, in its order."""
    return tuple(g for _, g in corpus(n_max))
