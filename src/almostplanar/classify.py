"""Recognizer for 3-connected almost-planar graphs.

Pipeline: planarity gate, 3-connectivity gate, then a match against the
family instances on the same vertex count.  Those instances are grouped
into isomorphism classes and indexed by refinement signature; each class
keeps the refinement colours of its graph, so a query is refined once
and exact isomorphism runs once per class in its bucket, and the spec
list of the matched class is the full list of matching specs.  The
index is the one store of family instances: a class also keeps each
spec's graph and, once `verify` asks, its oracle spectrum.
Almost-planarity and the prediction are invariant under isomorphism:
a matched input takes the verdict and the prediction of its class,
each computed once and cached, and an unmatched input is decided on
its own graph.  A class inherits its verdict from one walk of its
family's full instance (see `IsoClass.verdict`).  One index is kept per
vertex count; above `B_MINOR_CAP`, an input with no hub of bicycle-minor
degree reads the full one if built and otherwise builds one without the
bicycle minors, whose sweep it never runs.  Once the index for the
input's vertex count is built, the match comes first: every indexed
instance is non-planar and 3-connected, so a match implies both gates,
and only an unmatched input runs them and the verdict.  Until the index
is built, which costs far more than deciding one input, the order is
gates, verdict, then the index build and the match, so a negative input
never builds it.  The family registry does not cover every 3-connected
almost-planar graph (it misses 3 of the 20 classes on 7 vertices), so
an unmatched graph that is almost-planar gets the gate `almost-planar`
with no spec, map or prediction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Optional

from .constructive import predicted_lengths
from .errors import OracleCapError
from .families import (
    B_MINOR_CAP, FamilySpec, family_of, generate, instances, spec_is_4_connected,
    spec_to_json,
)
from .graph import Edge, Graph, _colored_isomorphism, _refine_colors, is_k_connected
from .oracle import CycleSpectrum, cycle_spectrum
from .planarity import almost_planar_verdict, almost_planar_verdict_within, is_planar

DEFAULT_CLASSIFY_CAP = B_MINOR_CAP

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
    """One isomorphism class of family instances: all of the class's
    specs, in match-priority order, the graph of each, and the
    refinement colours of the first graph, the class graph.  The class's
    refinement rounds are its bucket key in the index."""

    specs: tuple[FamilySpec, ...]
    graphs: tuple[Graph, ...]
    colors: Mapping[int, int]

    @property
    def graph(self) -> Graph:
        """The class graph, which queries are matched against."""
        return self.graphs[0]

    @cached_property
    def spectrum(self) -> CycleSpectrum:
        """The oracle spectrum of every graph in the class, searched once
        on the class graph: cycle lengths are isomorphism invariants."""
        return cycle_spectrum(self.graph)

    @cached_property
    def verdict(self) -> tuple[bool, Optional[Edge]]:
        """The almost-planarity verdict of every graph in the class,
        decided once on the class graph: almost-planarity is an
        isomorphism invariant.  The class graph is the graph of its first
        spec, which spans that family's full instance on the same
        labels, so the verdict is read from the full instance's walk,
        shared by every class under it, and never differs from a walk of
        the class graph's own edges."""
        spec = self.specs[0]
        full = generate(family_of(spec).full(spec)).graph
        return almost_planar_verdict_within(self.graph, full)

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

# One built index per vertex count, with whether it holds the bicycle minors.
_indexes: dict[int, tuple[bool, Index]] = {}


def _built(n: int, include_bicycle: bool) -> Optional[Index]:
    """The built index on n vertices that serves the request, or None."""
    full, index = _indexes.get(n, (False, None))
    return index if full or not include_bicycle else None


def _candidates(n: int, include_bicycle: bool = True) -> Index:
    """The family instances on n vertices as isomorphism classes, keyed by
    refinement signature (n, m, rounds); classes are in the priority
    order of their first specs.  Each instance is refined once.  Built
    once per n and read-only, since every caller shares it.  A full index
    also serves a request without the bicycle minors, and a full build
    first drops the bicycle-free index of its n, so the two never coexist."""
    index = _built(n, include_bicycle)
    if index is not None:
        return index
    _indexes.pop(n, None)
    buckets: dict[tuple, list[tuple[list[FamilySpec], list[Graph], dict[int, int]]]] = {}
    for spec, g in instances(n, include_bicycle):
        colors, rounds = _refine_colors(g)
        bucket = buckets.setdefault((g.n, g.m, rounds), [])
        for specs, graphs, rep_colors in bucket:
            if _colored_isomorphism(graphs[0], rep_colors, g, colors) is not None:
                specs.append(spec)
                graphs.append(g)
                break
        else:
            bucket.append(([spec], [g], colors))
    index = MappingProxyType(
        {
            sig: tuple(
                IsoClass(tuple(specs), tuple(graphs), MappingProxyType(colors))
                for specs, graphs, colors in bucket
            )
            for sig, bucket in buckets.items()
        }
    )
    _indexes[n] = include_bicycle, index
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
    # so above the sweep bound lower-degree inputs skip that (large) sweep.
    max_degree = g.degree_sequence()[-1] if g.n else 0
    include_bicycle = g.n <= B_MINOR_CAP or max_degree >= (g.n - 1) // 2 + 1
    index = _built(g.n, include_bicycle)
    if index is not None:
        # Every indexed instance is non-planar and 3-connected, so a match
        # passes both gates, and almost-planarity is invariant under
        # isomorphism, so it takes the cached verdict of its class.
        found = _match(index, g)
        if found is not None and found[0].verdict[0]:
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
    if index is None:
        found = _match(_candidates(g.n, include_bicycle), g)
        if found is not None:
            return _matched(*found)
    return Classification(
        GATE_ALMOST_PLANAR,
        evidence=(f"no family instance on {g.n} vertices matched",),
    )
