"""Executable acceptance checks tying every theorem to computation.

Each criterion function recomputes its claim from scratch (generators
against the exhaustive oracle, builders against the validators) and
returns a CheckResult; the CLI `verify` command and the acceptance test
suite both run these.  A failing criterion carries a counterexample
graph when one exists.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

from . import constructive, errata, families, oracle, planarity
from .classify import GATE_ALMOST_PLANAR
from .classify import classify as classify_graph
from .errors import FalsificationError
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


@lru_cache(maxsize=None)
def family_corpus(n_max: int) -> tuple[tuple[families.FamilySpec, Graph], ...]:
    """Every generated 3-connected non-planar family instance with
    n <= n_max, by n and within each n in match-priority order."""
    return tuple(
        itertools.chain.from_iterable(
            families.instances(n) for n in range(5, n_max + 1)
        )
    )


@lru_cache(maxsize=None)
def corpus_spectra(n_max: int) -> dict[families.FamilySpec, frozenset[int]]:
    return {
        spec: oracle.cycle_spectrum(g).lengths for spec, g in family_corpus(n_max)
    }


# -- criteria ---------------------------------------------------------------------


def criterion_mobius_spectra(max_n: Optional[int] = None) -> CheckResult:
    """Oracle spectra of V_2k match the predicted spectra exactly."""
    name = "mobius-spectra"
    k_hi = (max_n // 2) if max_n else 7
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
    n_hi = max_n if max_n else 9
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
    n_hi = max_n if max_n else 10
    count = 0
    for n in range(6, n_hi + 1):
        for spec in families.enumerate_b_minors(n, cap=max(n, 12)):
            inst = families.generate(spec)
            count += 1
            if not oracle.is_hamiltonian(inst.graph):
                return _fail(name, f"{spec} not Hamiltonian", inst.graph)
            constructive.b_graph_ham_cycle(inst)  # validates internally
    return CheckResult(
        name, True, f"{count} minors over n=6..{n_hi}: oracle-Hamiltonian "
        "and builder cycles validate"
    )


def criterion_a_dichotomy(max_n: Optional[int] = None) -> CheckResult:
    """A_n: even spectra {4,6,..,n}; odd pancyclic; any spoke addition
    restores pancyclicity."""
    name = "a-family-dichotomy"
    even_hi = max_n if max_n else 12
    odd_hi = max_n + 1 if max_n else 13
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
    n_cap = max_n if max_n else 12
    k33 = families.gen_k33_chain(()).graph
    checked = 0
    for n in range(6, min(n_cap, 3 * hi + 3) + 1):
        for spec, g in families.fan_instances(n):
            if max(spec.p, spec.q, spec.r) > hi:
                continue
            checked += 1
            pan = oracle.is_pancyclic(g)
            if are_isomorphic(g, k33):
                if pan:
                    return _fail(name, f"{spec} is K33 yet pancyclic?", g)
            elif not pan:
                return _fail(name, f"{spec} not pancyclic", g)
            if spec.deleted == constructive.CHORDS_ALL:
                constructive.constructive_spectrum(spec)  # validates every witness
    return CheckResult(
        name, True, f"{checked} instances with p,q,r<={hi}: pancyclic except "
        "K33; fully-deleted witnesses validate for every length"
    )


def criterion_main_equivalence(max_n: Optional[int] = None) -> CheckResult:
    """Pancyclic iff a triangle exists, over the whole corpus."""
    name = "pancyclic-iff-triangle"
    n_max = max_n if max_n else 12
    spectra = corpus_spectra(n_max)
    for spec, g in family_corpus(n_max):
        lengths = spectra[spec]
        pancyclic = lengths == frozenset(range(3, g.n + 1))
        if pancyclic != (3 in lengths):
            return _fail(
                name,
                f"{spec}: pancyclic={pancyclic} but triangle={3 in lengths}",
                g,
            )
    return CheckResult(
        name, True, f"{len(spectra)} instances n<={n_max}: "
        "pancyclic <=> 3 in spectrum, zero exceptions"
    )


def criterion_almost_planarity(max_n: Optional[int] = None) -> CheckResult:
    """Almost-planarity holds for every instance and fails where it must;
    classification round-trips.

    Every instance's verdict comes through classify, which decides
    almost-planarity once per isomorphism class.
    """
    name = "almost-planarity"
    n_max = max_n if max_n else 12
    corpus = family_corpus(n_max)
    for spec, g in corpus:
        try:
            cls = classify_graph(g, cap=max(n_max, 12))
        except FalsificationError as exc:
            return _fail(name, f"{spec}: {exc}", g)
        if cls.gate != GATE_ALMOST_PLANAR:
            return _fail(name, f"{spec}: gate {cls.gate}", g)
        back = families.generate(cls.matched_spec).graph
        if back.relabel(cls.iso_map) != g:
            return _fail(name, f"{spec}: round-trip mismatch via {cls.matched_spec}", g)
    k6 = Graph.from_edges(6, itertools.combinations(range(1, 7), 2))
    if planarity.is_almost_planar(k6).verdict:
        return _fail(name, "K6 reported almost-planar", k6)
    planars = [
        families.gen_wheel(6).graph,
        Graph.from_edges(4, itertools.combinations(range(1, 5), 2)),
        Graph.from_edges(3, [(1, 2), (2, 3)]),
    ]
    for g in planars:
        if planarity.is_almost_planar(g).verdict:
            return _fail(name, "planar graph reported almost-planar", g)
    k5_iso = Graph.from_edges(6, itertools.combinations(range(1, 6), 2))
    two_k5 = Graph.from_edges(
        10,
        list(itertools.combinations(range(1, 6), 2))
        + list(itertools.combinations(range(6, 11), 2)),
    )
    for g in (k5_iso, two_k5):
        if planarity.is_almost_planar(g).verdict:
            return _fail(name, "disconnected graph reported almost-planar", g)
    return CheckResult(
        name, True, f"{len(corpus)} instances almost-planar; K6/planar/"
        "disconnected rejected; classification round-trips"
    )


def criterion_iso_anchors(max_n: Optional[int] = None) -> CheckResult:
    """Isomorphism anchors and the contraction identity on B_n."""
    name = "isomorphism-anchors"
    n_hi = max_n if max_n else 10
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
        hub_s, hub_t = n, n - 1
        for i in range(2, n - 1):
            g = families.gen_bicycle(n).graph
            # Deleting the spokes at rim vertex i first, then contracting
            # the rim edge into i-1, realizes the one-step reduction to
            # B_{n-1} under the simple-graph convention.
            g = delete_edge(g, edge(hub_s, i))
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
    n_max = max_n if max_n else 12
    spectra = corpus_spectra(n_max)
    count = 0
    for spec, g in family_corpus(n_max):
        built = constructive.constructive_spectrum(spec)
        count += 1
        if built.lengths != spectra[spec]:
            return _fail(
                name,
                f"{spec}: constructive {sorted(built.lengths)} != "
                f"oracle {sorted(spectra[spec])}",
                g,
            )
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


def run_suite(suite: str, max_n: Optional[int] = None) -> list[CheckResult]:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    by_name = dict(CRITERIA)
    return [by_name[name](max_n) for name in SUITES[suite]]
