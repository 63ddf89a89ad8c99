"""Recognizer for 3-connected almost-planar graphs.

Pipeline: planarity gate, 3-connectivity gate, almost-planarity gate,
then a generate-and-match sweep over every family instance on the same
vertex count (prefiltered by edge count and degree sequence, matched by
exact isomorphism).  A graph that passes all three gates but matches no
family would contradict the classification theorem for this class, so
that case raises instead of returning quietly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .constructive import predicted_lengths
from .errors import FalsificationError, OracleCapError
from .families import FamilySpec, family_of, instances, spec_to_json
from .graph import Graph, is_k_connected, isomorphism, refinement_signature
from .oracle import CycleSpectrum
from .planarity import is_almost_planar, is_planar

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


@lru_cache(maxsize=None)
def _candidates(
    n: int, include_bicycle: bool = True
) -> tuple[tuple[FamilySpec, Graph, tuple, int], ...]:
    """The family instances on n vertices, in match-priority order, each
    with its refinement signature and the signature's hash."""
    out = []
    for spec, g in instances(n, include_bicycle):
        sig = refinement_signature(g)
        out.append((spec, g, sig, hash(sig)))
    return tuple(out)


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
    ev = is_almost_planar(g)
    if not ev.verdict:
        notes = ["graph is non-planar but not almost-planar"]
        if ev.failing_edge is not None:
            notes.append(
                f"edge {ev.failing_edge} fails both deletion and contraction"
            )
        return Classification(GATE_NOT_ALMOST_PLANAR, evidence=tuple(notes))

    sig = refinement_signature(g)
    sig_hash = hash(sig)
    # Spoke-deleted bicycle minors keep a hub of degree >= ceil((n-2)/2)+1,
    # so lower-degree inputs skip that (large) sweep entirely.
    max_degree = g.degree_sequence()[-1] if g.n else 0
    include_bicycle = g.n <= 12 or max_degree >= (g.n - 1) // 2 + 1
    matches: list[tuple[FamilySpec, dict[int, int]]] = []
    for spec, cand, cand_sig, cand_hash in _candidates(g.n, include_bicycle):
        if cand_hash != sig_hash or cand_sig != sig:
            continue
        mapping = isomorphism(cand, g)
        if mapping is not None:
            matches.append((spec, mapping))
    if not matches:
        raise FalsificationError(
            "3-connected almost-planar graph matched no family instance; "
            "this contradicts the classification of the class "
            f"(n={g.n}, m={g.m}, degrees={g.degree_sequence()})"
        )

    matched_spec, iso_map = matches[0]
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
        all_matches=tuple(spec for spec, _ in matches),
        evidence=(f"{len(matches)} candidate instance(s) matched",),
    )
