"""Spans around the package's public entry points, recorded from outside.

The tracer rebinds each traced function in every ``almostplanar`` module
that holds it (``classify.is_planar``, ``verify.classify_graph``, ...), so
calls made through any import path are seen.  ``networkx.check_planarity``
is wrapped the same way to count left-right planarity tests.  Nothing is
rebound unless :meth:`Tracer.install` is called, which only the traced run
does.

A span is ``(name, start, end, parent, op_id)``; spans stay in memory and
are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute, span name).  Builders share one span-name prefix so
# they can be summed as one layer.
TRACED = (
    ("almostplanar.graph", "parse_edge_list", "graph.parse_edge_list"),
    ("almostplanar.graph", "refinement_signature", "graph.refinement_signature"),
    ("almostplanar.graph", "isomorphism", "graph.isomorphism"),
    ("almostplanar.graph", "is_k_connected", "graph.is_k_connected"),
    ("almostplanar.planarity", "is_planar", "planarity.is_planar"),
    ("almostplanar.planarity", "is_almost_planar", "planarity.is_almost_planar"),
    ("networkx", "check_planarity", "planarity.lr_test"),
    ("almostplanar.families", "generate", "families.generate"),
    ("almostplanar.families", "enumerate_b_minors", "families.enumerate_b_minors"),
    ("almostplanar.classify", "classify", "classify.classify"),
    ("almostplanar.oracle", "cycle_spectrum", "oracle.cycle_spectrum"),
    ("almostplanar.oracle", "hamiltonian_connectivity", "oracle.hamiltonian_connectivity"),
    ("almostplanar.oracle", "validate_cycle", "oracle.validate_cycle"),
    ("almostplanar.constructive", "constructive_spectrum", "constructive.constructive_spectrum"),
) + tuple(
    ("almostplanar.constructive", fn, "constructive.builders." + fn)
    for fn in (
        "mobius_cycle",
        "bicycle_cycle",
        "bicycle_ham_path",
        "b_graph_ham_cycle",
        "a_even_cycle",
        "b_adjacent_spoke_cycle",
        "wheel_cycle",
        "h1_cycle",
        "h2_cycle",
        "k33_chain_cycle",
    )
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self.op_id = "setup"
        self.active = True
        self.iso_matches = 0
        self.originals: dict[str, object] = {}

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        is_iso = name == "graph.isomorphism"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op_id)
            if is_iso and result is not None:
                self.iso_matches += 1
            return result

        return traced

    def install(self) -> None:
        """Rebind every traced name in every loaded package module."""
        for module_name, attr, name in TRACED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            self.originals[name] = original
            wrapped = self._wrap(name, original)
            holders = [module] + [
                m
                for key, m in list(sys.modules.items())
                if m is not None
                and (key == "almostplanar" or key.startswith("almostplanar."))
            ]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapped)

    def write(self, path: Path) -> None:
        """Write spans as JSON lines: one header, then one array per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write(json.dumps({"fields": ["name", "start", "end", "parent", "op_id"]}))
            fh.write("\n")
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")


def span_cost() -> float:
    """Seconds one traced call adds to a direct call, measured in this process.

    A throwaway tracer wraps a no-op; the median over seven repeats of the
    wrapped minus the bare loop time, per call, is the cost of one span.
    Times in one process at one moment, so host speed drift between two
    runs does not enter it.
    """

    def noop():
        return None

    calls = 20000
    probe = Tracer()
    traced = probe._wrap("probe", noop)
    clock = time.perf_counter
    costs = []
    for _ in range(7):
        probe.spans.clear()
        start = clock()
        for _ in range(calls):
            traced()
        middle = clock()
        for _ in range(calls):
            noop()
        end = clock()
        costs.append((middle - start - (end - middle)) / calls)
    return statistics.median(costs)


def aggregate(spans: list) -> dict[str, dict]:
    """Per span name: calls, total seconds and self seconds.

    Self time is a span's duration minus the durations of its direct
    children; spans nest strictly because the run is single-threaded.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for idx, (name, start, end, _, _) in enumerate(spans):
        row = out[name]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child[idx]
    return dict(out)
