"""Recognizer for 3-connected almost-planar graphs.

Pipeline: planarity gate, 3-connectivity gate, then a match against the
family instances on the same vertex count.  Those instances are grouped
into isomorphism classes and indexed by refinement signature; each class
keeps the refinement colours of its graph, so a query is refined once
and exact isomorphism runs once per class in its bucket, and the spec
list of the matched class is the full list of matching specs.
Almost-planarity and the prediction are invariant under isomorphism: a
matched input takes the verdict and the prediction of its class, each
computed once and cached, and an unmatched input is decided on its own
graph.  Once the index for the input's vertex count is built, the match
comes first: every indexed instance is non-planar and 3-connected, so a
match implies both gates, and only an unmatched input runs them and the
verdict.  Until the index is built, which costs far more than deciding
one input, the order is gates, verdict, then the index build and the
match, so a negative input never builds it.  An unmatched graph that is
almost-planar would contradict the classification theorem for this
class, so that case raises instead of returning quietly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Optional

from .constructive import predicted_lengths
from .errors import FalsificationError, OracleCapError
from .families import (
    FamilySpec, family_of, instances, spec_is_4_connected, spec_to_json
)
from .graph import Edge, Graph, _colored_isomorphism, _refine_colors, is_k_connected
from .oracle import CycleSpectrum
from .planarity import almost_planar_verdict, is_planar

DEFAULT_CLASSIFY_CAP = 12

GATE_PLANAR = "planar"
GATE_NOT_3_CONNECTED = "not-3-connected"
GATE_NOT_ALMOST_PLANAR = "not-almost-planar"
GATE_ALMOST_PLANAR = "almost-planar"


def predict_spectrum(spec: FamilySpec) -> Optional[CycleSpectrum]:
    """Theorem-predicted spectrum, or None when no exact claim exists."""
    lengths = predicted_lengths(spec)
    if lengths is None:
        return None
    return CycleSpectrum(family_of(spec).vertex_count(spec), lengths)


@dataclass(frozen=True)
class Prediction:
    pancyclic: bool
    hamiltonian: bool
    hamiltonian_connected: Optional[bool]
    spectrum: Optional[CycleSpectrum]

    def to_json(self) -> dict:
        return {
            "pancyclic": self.pancyclic,
            "hamiltonian": self.hamiltonian,
            "hamiltonian_connected": self.hamiltonian_connected,
            "spectrum": (
                sorted(self.spectrum.lengths) if self.spectrum is not None else None
            ),
        }


@dataclass(frozen=True)
class Classification:
    gate: str
    matched_spec: Optional[FamilySpec] = None
    iso_map: Optional[dict[int, int]] = None
    predicted: Optional[Prediction] = None
    all_matches: tuple[FamilySpec, ...] = ()
    evidence: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "gate": self.gate,
            "spec": (
                spec_to_json(self.matched_spec)
                if self.matched_spec is not None
                else None
            ),
            "iso_map": (
                {str(k): v for k, v in sorted(self.iso_map.items())}
                if self.iso_map is not None
                else None
            ),
            "predicted": self.predicted.to_json() if self.predicted else None,
            "all_matches": [spec_to_json(s) for s in self.all_matches],
            "evidence": list(self.evidence),
        }


@dataclass(frozen=True)
class IsoClass:
    """One isomorphism class of family instances: the graph of its first
    spec, that graph's refinement colours, and all of the class's specs,
    in match-priority order.  The class's refinement rounds are its
    bucket key in the index."""

    graph: Graph
    colors: Mapping[int, int]
    specs: tuple[FamilySpec, ...]

    @cached_property
    def predicted(self) -> Prediction:
        """The prediction for every graph in the class, computed once
        from its first spec: the spectrum and 4-connectivity are
        isomorphism invariants."""
        spectrum = predict_spectrum(self.specs[0])
        assert spectrum is not None  # matched specs always carry a prediction
        return Prediction(
            pancyclic=spectrum.pancyclic,
            hamiltonian=spectrum.hamiltonian,
            hamiltonian_connected=True if spec_is_4_connected(self.specs[0]) else None,
            spectrum=spectrum,
        )


Index = Mapping[tuple, tuple[IsoClass, ...]]

# The built indexes, by (n, include_bicycle).
_indexes: dict[tuple[int, bool], Index] = {}


def _candidates(n: int, include_bicycle: bool = True) -> Index:
    """The family instances on n vertices as isomorphism classes, keyed by
    refinement signature (n, m, rounds); classes are in the priority
    order of their first specs.  Each instance is refined once.  Built
    once per key and read-only, since every caller shares it."""
    index = _indexes.get((n, include_bicycle))
    if index is not None:
        return index
    buckets: dict[tuple, list[tuple[Graph, dict[int, int], list[FamilySpec]]]] = {}
    for spec, g in instances(n, include_bicycle):
        colors, rounds = _refine_colors(g)
        bucket = buckets.setdefault((g.n, g.m, rounds), [])
        for rep, rep_colors, specs in bucket:
            if _colored_isomorphism(rep, rep_colors, g, colors) is not None:
                specs.append(spec)
                break
        else:
            bucket.append((g, colors, [spec]))
    index = _indexes[(n, include_bicycle)] = MappingProxyType(
        {
            sig: tuple(
                IsoClass(rep, MappingProxyType(colors), tuple(specs))
                for rep, colors, specs in bucket
            )
            for sig, bucket in buckets.items()
        }
    )
    return index


def _match(index: Index, g: Graph) -> Optional[tuple[IsoClass, dict[int, int]]]:
    """The class of g in the index and an isomorphism from its graph to
    g, or None; g is refined once for the whole bucket."""
    colors, rounds = _refine_colors(g)
    for cls in index.get((g.n, g.m, rounds), ()):
        iso_map = _colored_isomorphism(cls.graph, cls.colors, g, colors)
        if iso_map is not None:
            return cls, iso_map
    return None


def _matched(cls: IsoClass, iso_map: dict[int, int]) -> Classification:
    return Classification(
        GATE_ALMOST_PLANAR,
        matched_spec=cls.specs[0],
        iso_map=iso_map,
        predicted=cls.predicted,
        all_matches=cls.specs,
        evidence=(f"{len(cls.specs)} candidate instance(s) matched",),
    )


def _not_almost_planar(failing_edge: Optional[Edge]) -> Classification:
    notes = ["graph is non-planar but not almost-planar"]
    if failing_edge is not None:
        notes.append(f"edge {failing_edge} fails both deletion and contraction")
    return Classification(GATE_NOT_ALMOST_PLANAR, evidence=tuple(notes))


def classify(g: Graph, cap: int = DEFAULT_CLASSIFY_CAP) -> Classification:
    """Gate checks plus family matching for an arbitrary graph."""
    if g.n > cap:
        raise OracleCapError(f"classification capped at n <= {cap}, got {g.n}")

    # Spoke-deleted bicycle minors keep a hub of degree >= ceil((n-2)/2)+1,
    # so lower-degree inputs skip that (large) sweep entirely.
    max_degree = g.degree_sequence()[-1] if g.n else 0
    include_bicycle = g.n <= 12 or max_degree >= (g.n - 1) // 2 + 1
    warm = (g.n, include_bicycle) in _indexes
    if warm:
        # Every indexed instance is non-planar and 3-connected, so a match
        # passes both gates, and almost-planarity is invariant under
        # isomorphism, so it takes the cached verdict of its class graph.
        found = _match(_candidates(g.n, include_bicycle), g)
        if found is not None and almost_planar_verdict(found[0].graph)[0]:
            return _matched(*found)

    if is_planar(g):
        return Classification(GATE_PLANAR, evidence=("graph is planar",))
    if not is_k_connected(g, 3):
        return Classification(
            GATE_NOT_3_CONNECTED, evidence=("graph is not 3-connected",)
        )
    # Decided on the input's own labels, which the failing edge in the
    # evidence refers to.
    verdict, failing_edge = almost_planar_verdict(g)
    if not verdict:
        return _not_almost_planar(failing_edge)
    # An index costs far more to build than the 2m left-right tests that
    # decided the input (seconds at n = 12, and the bicycle sweep grows as
    # 3^(n-2) above it), so only an almost-planar input builds one.
    if not warm:
        found = _match(_candidates(g.n, include_bicycle), g)
        if found is not None:
            return _matched(*found)
    raise FalsificationError(
        "3-connected almost-planar graph matched no family instance; "
        "this contradicts the classification of the class "
        f"(n={g.n}, m={g.m}, degrees={g.degree_sequence()})"
    )
