"""Executable acceptance checks tying every theorem to computation.

Each criterion function recomputes its claim from scratch (generators
against the exhaustive oracle, builders against the validators) and
returns a CheckResult; the CLI `verify` command and the acceptance test
suite both run these.  A failing criterion carries a counterexample
graph when one exists.  The five criteria over the family instances
read them only through `_corpus`, from classify's index, and read
cycle lengths from the one oracle spectrum of each isomorphism class.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional

from . import constructive, errata, families, oracle, planarity
from .classify import GATE_ALMOST_PLANAR, IsoClass, _candidates, _is_built
from .classify import classify as classify_graph
from .errors import OracleCapError
from .graph import (
    Graph,
    are_isomorphic,
    contract_edge,
    delete_edge,
    edge,
    is_k_connected,
)


@dataclass
class CheckResult:
    criterion: str
    passed: bool
    detail: str
    counterexample: Optional[Graph] = None

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.criterion}: {self.detail}"


def _fail(name: str, detail: str, g: Optional[Graph] = None) -> CheckResult:
    return CheckResult(name, False, detail, g)


# -- shared corpus ---------------------------------------------------------------


def _corpus(n_max: int, include_bicycle: bool = True) -> list[IsoClass]:
    """The isomorphism classes of the family instances with n <= n_max,
    from classify's index.  With include_bicycle=False the bicycle minors
    may be missing: an index already built with them serves, and
    otherwise one is built without their sweep.  An n_max over the
    oracle cap is refused before the bicycle sweep runs over its 3^(n-2)
    spoke patterns."""
    cap = oracle.oracle_cap()
    if n_max > cap:
        raise OracleCapError(f"corpus too large for oracle: max_n={n_max} > cap {cap}")
    indexes = (
        _candidates(n, include_bicycle or _is_built(n)) for n in range(5, n_max + 1)
    )
    return [cls for index in indexes for bucket in index.values() for cls in bucket]


# -- criteria ---------------------------------------------------------------------


def criterion_mobius_spectra(max_n: Optional[int] = None) -> CheckResult:
    """Oracle spectra of V_2k match the predicted spectra exactly."""
    name = "mobius-spectra"
    k_hi = 7 if max_n is None else max_n // 2
    for k in range(3, k_hi + 1):
        g = families.gen_mobius(k).graph
        got = oracle.cycle_spectrum(g).lengths
        want = constructive.mobius_lengths(k)
        if got != want:
            return _fail(
                name,
                f"V_{2 * k}: oracle {sorted(got)} != predicted {sorted(want)}",
                g,
            )
    v8 = oracle.cycle_spectrum(families.gen_mobius(4).graph).lengths
    if v8 != frozenset({4, 5, 6, 7, 8}):
        return _fail(name, f"V_8 spectrum {sorted(v8)} != [4,5,6,7,8]")
    return CheckResult(name, True, f"k=3..{k_hi} exact, incl. V_8 = {{4..8}}")


def criterion_four_connected(max_n: Optional[int] = None) -> CheckResult:
    """B_n is 4-connected, pancyclic, Hamiltonian-connected; builders validate."""
    name = "four-connected-bicycle"
    n_hi = 9 if max_n is None else max_n
    for n in range(5, n_hi + 1):
        inst = families.gen_bicycle(n)
        g = inst.graph
        if not is_k_connected(g, 4):
            return _fail(name, f"B_{n} not 4-connected", g)
        if not oracle.is_pancyclic(g):
            return _fail(name, f"B_{n} not pancyclic per oracle", g)
        ok, pair = oracle.hamiltonian_connectivity(g)
        if not ok:
            return _fail(name, f"B_{n} not Hamiltonian-connected: pair {pair}", g)
        for length in range(3, n + 1):
            constructive.bicycle_cycle(inst, length)  # validates internally
        for u in range(1, n + 1):
            for v in range(u + 1, n + 1):
                constructive.bicycle_ham_path(inst, u, v)
    return CheckResult(
        name, True, f"B_n for n=5..{n_hi}: 4-connected, pancyclic, "
        "Ham-connected; all cycle/path builders validate"
    )


def criterion_b_hamiltonicity(max_n: Optional[int] = None) -> CheckResult:
    """Every 3-connected non-planar bicycle minor is Hamiltonian."""
    name = "b-minor-hamiltonicity"
    n_hi = 10 if max_n is None else max_n
    count = 0
    for cls in _corpus(n_hi):
        for spec, g in zip(cls.specs, cls.graphs):
            if not isinstance(spec, families.Bicycle) or spec.n < 6:
                continue
            count += 1
            if not cls.spectrum.hamiltonian:
                return _fail(name, f"{spec} not Hamiltonian", g)
            constructive.b_graph_ham_cycle(families.generate(spec))  # validates
    return CheckResult(
        name, True, f"{count} minors over n=6..{n_hi}: oracle-Hamiltonian "
        "and builder cycles validate"
    )


def criterion_a_dichotomy(max_n: Optional[int] = None) -> CheckResult:
    """A_n: even spectra {4,6,..,n}; odd pancyclic; any spoke addition
    restores pancyclicity."""
    name = "a-family-dichotomy"
    even_hi = 12 if max_n is None else max_n
    odd_hi = 13 if max_n is None else max_n + 1
    for n in range(6, even_hi + 1, 2):
        g = families.gen_a_graph(n).graph
        got = oracle.cycle_spectrum(g).lengths
        if got != frozenset(range(4, n + 1, 2)):
            return _fail(name, f"A_{n} spectrum {sorted(got)}", g)
    for n in range(7, odd_hi + 1, 2):
        g = families.gen_a_graph(n).graph
        if not oracle.is_pancyclic(g):
            return _fail(name, f"A_{n} (odd) not pancyclic", g)
    for n in range(6, even_hi + 1, 2):
        spec = families.a_graph_spec(n)
        for hub, removed in (("s", spec.removed_s), ("t", spec.removed_t)):
            for i in sorted(removed):
                rs = spec.removed_s - {i} if hub == "s" else spec.removed_s
                rt = spec.removed_t - {i} if hub == "t" else spec.removed_t
                g = families.gen_bicycle(n, rs, rt).graph
                if not oracle.is_pancyclic(g):
                    return _fail(
                        name, f"A_{n} + {hub}{i} not pancyclic", g
                    )
    return CheckResult(
        name, True, f"even n<={even_hi}: exact even spectra; odd n<={odd_hi}: "
        "pancyclic; every single-spoke addition pancyclic"
    )


def criterion_h_graphs(max_n: Optional[int] = None) -> CheckResult:
    """H graphs: pancyclic unless K33; fully-deleted builders validate."""
    name = "h-graphs"
    hi = 3
    n_cap = 12 if max_n is None else max_n
    k33 = families.gen_k33_chain(()).graph
    checked = 0
    for cls in _corpus(min(n_cap, 3 * hi + 3), include_bicycle=False):
        members = [
            (spec, g)
            for spec, g in zip(cls.specs, cls.graphs)
            if isinstance(spec, (families.H1, families.H2))
            and max(spec.p, spec.q, spec.r) <= hi
        ]
        if not members:
            continue
        is_k33 = are_isomorphic(cls.graph, k33)
        for spec, g in members:
            checked += 1
            if cls.spectrum.pancyclic == is_k33:
                why = "is K33 yet pancyclic?" if is_k33 else "not pancyclic"
                return _fail(name, f"{spec} {why}", g)
            if spec.deleted == constructive.CHORDS_ALL:
                constructive.constructive_spectrum(spec)  # validates every witness
    return CheckResult(
        name, True, f"{checked} instances with p,q,r<={hi}: pancyclic except "
        "K33; fully-deleted witnesses validate for every length"
    )


def criterion_main_equivalence(max_n: Optional[int] = None) -> CheckResult:
    """Pancyclic iff a triangle exists, over the whole corpus."""
    name = "pancyclic-iff-triangle"
    n_max = 12 if max_n is None else max_n
    classes = _corpus(n_max)
    for cls in classes:
        lengths, pancyclic = cls.spectrum.lengths, cls.spectrum.pancyclic
        if pancyclic != (3 in lengths):
            return _fail(
                name,
                f"{cls.specs[0]}: pancyclic={pancyclic} but triangle={3 in lengths}",
                cls.graph,
            )
    return CheckResult(
        name, True, f"{sum(len(cls.specs) for cls in classes)} instances "
        f"n<={n_max}: pancyclic <=> 3 in spectrum, zero exceptions"
    )


def criterion_almost_planarity(max_n: Optional[int] = None) -> CheckResult:
    """Almost-planarity holds for every instance and fails where it must;
    classification round-trips.

    Every instance's verdict comes through classify, which decides
    almost-planarity once per isomorphism class and reads it from one
    walk of the full instance over the class graph (B_n for a bicycle
    minor, all chords for the fan families), shared by every class
    under it.
    """
    name = "almost-planarity"
    n_max = 12 if max_n is None else max_n
    members = [m for cls in _corpus(n_max) for m in zip(cls.specs, cls.graphs)]
    for spec, g in members:
        res = classify_graph(g, cap=max(n_max, 12))
        if res.gate != GATE_ALMOST_PLANAR:
            return _fail(name, f"{spec}: gate {res.gate}", g)
        if res.matched_spec is None:
            return _fail(name, f"{spec}: matched no family instance", g)
        back = families.generate(res.matched_spec).graph
        if back.relabel(res.iso_map) != g:
            return _fail(name, f"{spec}: round-trip mismatch via {res.matched_spec}", g)
    k6 = Graph.from_edges(6, itertools.combinations(range(1, 7), 2))
    if planarity.almost_planar_verdict(k6)[0]:
        return _fail(name, "K6 reported almost-planar", k6)
    planars = [
        families.gen_wheel(6).graph,
        Graph.from_edges(4, itertools.combinations(range(1, 5), 2)),
        Graph.from_edges(3, [(1, 2), (2, 3)]),
    ]
    for g in planars:
        if planarity.almost_planar_verdict(g)[0]:
            return _fail(name, "planar graph reported almost-planar", g)
    k5_iso = Graph.from_edges(6, itertools.combinations(range(1, 6), 2))
    two_k5 = Graph.from_edges(
        10,
        list(itertools.combinations(range(1, 6), 2))
        + list(itertools.combinations(range(6, 11), 2)),
    )
    for g in (k5_iso, two_k5):
        if planarity.almost_planar_verdict(g)[0]:
            return _fail(name, "disconnected graph reported almost-planar", g)
    return CheckResult(
        name, True, f"{len(members)} instances almost-planar; K6/planar/"
        "disconnected rejected; classification round-trips"
    )


def criterion_iso_anchors(max_n: Optional[int] = None) -> CheckResult:
    """Isomorphism anchors and the contraction identity on B_n."""
    name = "isomorphism-anchors"
    n_hi = 10 if max_n is None else max_n
    k33 = Graph.from_edges(6, [(u, v) for u in (1, 2, 3) for v in (4, 5, 6)])
    k5 = Graph.from_edges(5, itertools.combinations(range(1, 6), 2))
    if not are_isomorphic(families.gen_mobius(3).graph, k33):
        return _fail(name, "V_6 != K33")
    if not are_isomorphic(families.gen_bicycle(5).graph, k5):
        return _fail(name, "B_5 != K5")
    if not are_isomorphic(families.gen_a_graph(6).graph, k33):
        return _fail(name, "A_6 != K33")
    for n in range(6, n_hi + 1):
        want = families.gen_bicycle(n - 1).graph
        b_n = families.gen_bicycle(n).graph
        hub_s, hub_t = n, n - 1
        for i in range(2, n - 1):
            # Deleting the spokes at rim vertex i first, then contracting
            # the rim edge into i-1, realizes the one-step reduction to
            # B_{n-1} under the simple-graph convention.
            g = delete_edge(b_n, edge(hub_s, i))
            g = delete_edge(g, edge(hub_t, i))
            g = contract_edge(g, edge(i - 1, i))
            if not are_isomorphic(g, want):
                return _fail(name, f"B_{n} reduction at i={i} != B_{n - 1}", g)
    return CheckResult(
        name, True, f"V6=K33, B5=K5, A6=K33; B_n reduction identity for "
        f"n=6..{n_hi}, all i"
    )


def criterion_builder_oracle(max_n: Optional[int] = None) -> CheckResult:
    """Constructive spectra equal oracle spectra with validated witnesses."""
    name = "builder-oracle-equivalence"
    n_max = 12 if max_n is None else max_n
    count = 0
    for cls in _corpus(n_max):
        lengths = cls.spectrum.lengths
        for spec, g in zip(cls.specs, cls.graphs):
            built = constructive.constructive_spectrum(spec)
            count += 1
            if built.lengths != lengths:
                return _fail(
                    name,
                    f"{spec}: constructive {sorted(built.lengths)} != "
                    f"oracle {sorted(lengths)}",
                    g,
                )
            # the spec's own graph: its labels are the witnesses' labels
            for length, seq in built.witnesses.items():
                if not oracle.validate_cycle(g, seq, length):
                    return _fail(name, f"{spec}: witness for {length} invalid", g)
    return CheckResult(
        name, True, f"{count} specs n<={n_max}: constructive == oracle, "
        "every witness validates"
    )


def criterion_errata(max_n: Optional[int] = None) -> CheckResult:
    """Literal printed formulas fail validation; corrected forms pass."""
    name = "errata-ledger"
    for record in errata.CORRECTIONS:
        outcome = record.demo()
        if outcome.literal.ok:
            return _fail(
                name,
                f"{record.key}: literal form unexpectedly validates",
                outcome.graph,
            )
        if not outcome.corrected.ok:
            return _fail(
                name,
                f"{record.key}: corrected form fails ({outcome.corrected.reason})",
                outcome.graph,
            )
        if outcome.kind == "cycle":
            if outcome.length not in oracle.cycle_spectrum(outcome.graph).lengths:
                return _fail(
                    name,
                    f"{record.key}: oracle finds no {outcome.length}-cycle",
                    outcome.graph,
                )
        else:
            u, v = outcome.endpoints
            if oracle.hamiltonian_path(outcome.graph, u, v) is None:
                return _fail(
                    name,
                    f"{record.key}: oracle finds no spanning {u}-{v} path",
                    outcome.graph,
                )
    return CheckResult(
        name, True, f"{len(errata.CORRECTIONS)} corrections: literal fails, "
        "corrected validates"
    )


CRITERIA: tuple[tuple[str, Callable[[Optional[int]], CheckResult]], ...] = (
    ("mobius-spectra", criterion_mobius_spectra),
    ("four-connected-bicycle", criterion_four_connected),
    ("b-minor-hamiltonicity", criterion_b_hamiltonicity),
    ("a-family-dichotomy", criterion_a_dichotomy),
    ("h-graphs", criterion_h_graphs),
    ("pancyclic-iff-triangle", criterion_main_equivalence),
    ("almost-planarity", criterion_almost_planarity),
    ("isomorphism-anchors", criterion_iso_anchors),
    ("builder-oracle-equivalence", criterion_builder_oracle),
    ("errata-ledger", criterion_errata),
)

SUITES: dict[str, tuple[str, ...]] = {
    "mobius": ("mobius-spectra",),
    "bicycle": (
        "four-connected-bicycle",
        "b-minor-hamiltonicity",
        "a-family-dichotomy",
        "isomorphism-anchors",
    ),
    "h": ("h-graphs",),
    "theorems": (
        "pancyclic-iff-triangle",
        "almost-planarity",
        "builder-oracle-equivalence",
        "errata-ledger",
    ),
    "all": tuple(name for name, _ in CRITERIA),
}


# The smallest max_n at which every criterion's range is non-empty: V_2k
# needs k >= 3 and A_n needs n >= 6.
MIN_MAX_N = 6


def run_suite(suite: str, max_n: Optional[int] = None) -> list[CheckResult]:
    """Run the criteria of one suite; max_n=None keeps each criterion's
    default range."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    if max_n is not None and max_n < MIN_MAX_N:
        raise ValueError(f"max_n must be at least {MIN_MAX_N}, got {max_n}")
    by_name = dict(CRITERIA)
    return [by_name[name](max_n) for name in SUITES[suite]]
