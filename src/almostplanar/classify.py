"""Recognizer for 3-connected almost-planar graphs.

Pipeline: planarity gate, 3-connectivity gate, then a match against the
family instances on the same vertex count.  Those instances are grouped
into isomorphism classes and indexed by refinement signature, so exact
isomorphism runs once per class in the input's signature bucket, and
the spec list of the matched class is the full list of matching specs.
Almost-planarity is invariant under isomorphism: a matched input takes
the verdict of its class graph, decided once and cached, and an
unmatched input is decided on its own graph.  Until the index for the
input's vertex count is built, which costs far more than deciding one
input, the input is decided before the match instead, so a negative
input never builds it.  An unmatched graph that is almost-planar would
contradict the classification theorem for this class, so that case
raises instead of returning quietly.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Optional

from .constructive import predicted_lengths
from .errors import FalsificationError, OracleCapError
from .families import FamilySpec, family_of, instances, spec_to_json
from .graph import Graph, is_k_connected, isomorphism, refinement_signature
from .oracle import CycleSpectrum
from .planarity import AlmostPlanarEvidence, is_almost_planar, is_planar

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
    spec and all of its specs, in match-priority order."""

    graph: Graph
    specs: tuple[FamilySpec, ...]


# The built indexes, by (n, include_bicycle).
_indexes: dict[tuple[int, bool], Mapping[tuple, tuple[IsoClass, ...]]] = {}


def _candidates(
    n: int, include_bicycle: bool = True
) -> Mapping[tuple, tuple[IsoClass, ...]]:
    """The family instances on n vertices as isomorphism classes, keyed by
    refinement signature; classes are in the priority order of their
    first specs.  Built once per key and read-only, since every caller
    shares it."""
    index = _indexes.get((n, include_bicycle))
    if index is not None:
        return index
    buckets: dict[tuple, list[tuple[Graph, list[FamilySpec]]]] = {}
    for spec, g in instances(n, include_bicycle):
        bucket = buckets.setdefault(refinement_signature(g), [])
        for rep, specs in bucket:
            if isomorphism(rep, g) is not None:
                specs.append(spec)
                break
        else:
            bucket.append((g, [spec]))
    index = _indexes[(n, include_bicycle)] = MappingProxyType(
        {
            sig: tuple(IsoClass(rep, tuple(specs)) for rep, specs in bucket)
            for sig, bucket in buckets.items()
        }
    )
    return index


def _not_almost_planar(ev: AlmostPlanarEvidence) -> Classification:
    notes = ["graph is non-planar but not almost-planar"]
    if ev.failing_edge is not None:
        notes.append(f"edge {ev.failing_edge} fails both deletion and contraction")
    return Classification(GATE_NOT_ALMOST_PLANAR, evidence=tuple(notes))


def classify(g: Graph, cap: int = DEFAULT_CLASSIFY_CAP) -> Classification:
    """Gate checks plus family matching for an arbitrary graph."""
    if g.n > cap:
        raise OracleCapError(f"classification capped at n <= {cap}, got {g.n}")

    if is_planar(g):
        return Classification(GATE_PLANAR, evidence=("graph is planar",))
    if not is_k_connected(g, 3):
        return Classification(
            GATE_NOT_3_CONNECTED, evidence=("graph is not 3-connected",)
        )

    # Spoke-deleted bicycle minors keep a hub of degree >= ceil((n-2)/2)+1,
    # so lower-degree inputs skip that (large) sweep entirely.
    max_degree = g.degree_sequence()[-1] if g.n else 0
    include_bicycle = g.n <= 12 or max_degree >= (g.n - 1) // 2 + 1
    # An index costs far more to build than the 2m left-right tests that
    # decide one input (seconds at n = 12, and the bicycle sweep grows as
    # 3^(n-2) above it), so until it is built the input is decided first
    # and a negative input never builds it.
    decided_first = (g.n, include_bicycle) not in _indexes
    if decided_first:
        ev = is_almost_planar(g)
        if not ev.verdict:
            return _not_almost_planar(ev)

    matched: Optional[IsoClass] = None
    iso_map: Optional[dict[int, int]] = None
    for cls in _candidates(g.n, include_bicycle).get(refinement_signature(g), ()):
        iso_map = isomorphism(cls.graph, g)
        if iso_map is not None:
            matched = cls
            break
    # Almost-planarity is invariant under isomorphism, so a match takes the
    # cached verdict of its class graph (or of the input, if decided
    # first); anything else is decided on its own labels, which the
    # failing edge in the evidence refers to.
    if matched is None or not is_almost_planar(
        g if decided_first else matched.graph
    ).verdict:
        ev = is_almost_planar(g)
        if not ev.verdict:
            return _not_almost_planar(ev)
        raise FalsificationError(
            "3-connected almost-planar graph matched no family instance; "
            "this contradicts the classification of the class "
            f"(n={g.n}, m={g.m}, degrees={g.degree_sequence()})"
        )

    matched_spec = matched.specs[0]
    spectrum = predict_spectrum(matched_spec)
    assert spectrum is not None  # matched specs always carry a prediction
    predicted = Prediction(
        pancyclic=spectrum.pancyclic,
        hamiltonian=spectrum.hamiltonian,
        hamiltonian_connected=True if is_k_connected(g, 4) else None,
        spectrum=spectrum,
    )
    return Classification(
        GATE_ALMOST_PLANAR,
        matched_spec=matched_spec,
        iso_map=iso_map,
        predicted=predicted,
        all_matches=matched.specs,
        evidence=(f"{len(matched.specs)} candidate instance(s) matched",),
    )
