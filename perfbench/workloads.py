"""The three benchmark workloads: seeded inputs, timed operations, checks.

A workload runs in rounds.  Round ``r`` of seed ``s`` is a fixed amount of
work whose inputs depend only on ``(s, r)``, so the traced run, the
untraced run and the determinism check all see the same operations.
Input generation and output checks happen outside the timed region.

Operation units: a ``classify-stream`` operation is one query, a
``spectrum-scale`` operation is one instance, a ``verify-suite``
operation is one criterion.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import re
import time

import checks
from almostplanar import constructive, families, graph, oracle, verify
from almostplanar.families import H1, H2, Bicycle, Mobius

# The package re-exports the function ``classify`` under the submodule's name.
classify_module = importlib.import_module("almostplanar.classify")

CHORDS = frozenset(("ab", "bc", "ac"))
CHORD_SETS = tuple(
    frozenset(c for bit, c in enumerate(("ab", "bc", "ac")) if mask >> bit & 1)
    for mask in range(8)
)
GATES = ("planar", "not-3-connected", "not-almost-planar", "almost-planar")


class Recorder:
    """Times operations and collects their outcomes and output digest.

    With a speedometer, the time of its probes is left out of every
    measured time, and each record's perf_counter interval is kept in
    ``intervals`` so that the time can be scaled afterwards.
    """

    def __init__(self, tracer=None, speed=None) -> None:
        self.tracer = tracer
        self.speed = speed
        self.records: list[tuple[str, str, float, str | None]] = []
        self.intervals: list[tuple[float, float] | None] = []
        self._measured: dict[str, tuple[float, float]] = {}
        self.outputs = hashlib.sha256()
        self.inputs = hashlib.sha256()

    def stolen(self) -> float:
        return self.speed.stolen if self.speed is not None else 0.0

    def measure(self, op_id: str, fn, *args):
        """Run fn(*args) under the clock; returns (result, seconds, error)."""
        tracer = self.tracer
        if tracer is not None:
            tracer.op_id = op_id
            tracer.active = True
        stolen = self.stolen()
        start = time.perf_counter()
        try:
            result, error = fn(*args), None
        except Exception as exc:  # an operation that raises is a failed operation
            result, error = None, f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        elapsed = end - start - (self.stolen() - stolen)
        if tracer is not None:
            tracer.active = False
        self._measured[op_id] = (start, end)
        return result, elapsed, error

    def record(self, op_id: str, kind: str, seconds: float, error, output: str = "") -> None:
        self.records.append((op_id, kind, seconds, error))
        self.intervals.append(self._measured.pop(op_id, None))
        self.outputs.update(output.encode() + b"\n")


def _relabel(rng: random.Random, n: int, edges) -> frozenset:
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return frozenset(
        (a, b) if a < b else (b, a) for a, b in ((perm[u - 1], perm[v - 1]) for u, v in edges)
    )


def _edge_list_text(n: int, edges) -> str:
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in sorted(edges))


def _bicycle(n: int, pattern: str) -> Bicycle:
    """Spoke pattern over the rim: B keeps both spokes, S only s, T only t."""
    return Bicycle(
        n,
        removed_s=frozenset(i + 1 for i, ch in enumerate(pattern) if ch == "T"),
        removed_t=frozenset(i + 1 for i, ch in enumerate(pattern) if ch == "S"),
    )


def _random_minor(rng: random.Random, n: int) -> Bicycle:
    """A random non-planar, 3-connected bicycle minor on n vertices.

    Every rim vertex keeps a spoke and each hub keeps at least two, which
    makes the graph 3-connected: removing two vertices leaves either the
    rim cycle, a rim path still joined to a hub, or rim arcs that all
    reach the adjacent hubs.  Non-planarity is checked with networkx.
    """
    while True:
        pattern = "".join(rng.choice("BST") for _ in range(n - 2))
        if pattern.count("T") > n - 5 or pattern.count("S") > n - 5:
            continue
        spec = _bicycle(n, pattern)
        g = families.generate(spec).graph
        if not checks.planar(checks.nx_graph(n, g.edges)):
            return spec


def _random_pqr(rng: random.Random, n: int) -> tuple[int, int, int]:
    """A random composition of n - 3 into three positive fan lengths."""
    cut = sorted(rng.sample(range(1, n - 3), 2))
    return cut[0], cut[1] - cut[0], n - 3 - cut[1]


def _random_h(rng: random.Random, n: int):
    """A random 3-connected non-planar H1/H2 spec on n vertices."""
    while True:
        spec = rng.choice((H1, H2))(*_random_pqr(rng, n), rng.choice(CHORD_SETS))
        g = families.generate(spec).graph
        if checks.three_connected_nonplanar(n, g.edges):
            return spec


def _spread(rng: random.Random, values: list, k: int) -> list:
    """k values at evenly spaced positions with one random offset, so the
    total work of a sample hardly depends on the seed."""
    offset = rng.random()
    return [values[int((i + offset) * len(values) / k)] for i in range(k)]


def _a_graph(n: int) -> Bicycle:
    """A_n: odd rim vertices keep only the s-spoke, even ones only the t-spoke."""
    return _bicycle(n, ("ST" * n)[: n - 2])


# -- classify-stream ------------------------------------------------------------


class ClassifyStream:
    """Edge-list texts at n in {10, 11} through parse, classify and to_json.

    Three quarters of the queries are family instances under a seeded
    relabelling; every fourth is a one-edge-moved mutant aimed in turn at
    the planar, not-3-connected and not-almost-planar gates.  The order of
    the family specs is fixed, so every seed classifies the same specs and
    only the labels and mutants change with the seed.
    """

    name = "classify-stream"
    ns = (10, 11)
    round_size = 40

    def setup(self) -> None:
        for n in self.ns:
            classify_module.classify(families.generate(H1(n - 5, 1, 1)).graph)

    def prepare(self) -> None:
        rng = random.Random("classify-stream/pool")
        anchors = [Mobius(5)]
        pool = []
        for n in self.ns:
            anchors += [Bicycle(n), _a_graph(n)]
            for cls in (H1, H2):
                for p in range(1, n - 4):
                    for q in range(1, n - 3 - p):
                        for deleted in CHORD_SETS:
                            pool.append(cls(p, q, n - 3 - p - q, deleted))
            seen = set()
            for _ in range(200):
                spec = _random_minor(rng, n)
                if spec not in seen:
                    seen.add(spec)
                    pool.append(spec)
        rng.shuffle(pool)
        self.pool = []
        for spec in anchors + pool:
            g = families.generate(spec).graph
            # Some fan specs are planar or 2-connected at other sizes; the
            # anchors and the random minors are valid by construction.
            if not isinstance(spec, (H1, H2)) or checks.three_connected_nonplanar(g.n, g.edges):
                self.pool.append((spec, g.n, g.edges))

    def _mutant(self, rng: random.Random, target: str):
        """Move one edge of a relabelled pool instance until networkx puts
        the result in the target gate."""
        while True:
            _, n, base = self.pool[rng.randrange(len(self.pool))]
            edges = _relabel(rng, n, base)
            for _ in range(20):
                drop = rng.choice(sorted(edges))
                u, v = rng.sample(range(1, n + 1), 2)
                add = (min(u, v), max(u, v))
                if add in edges:
                    continue
                moved = (edges - {drop}) | {add}
                if checks.gate(n, moved) == target:
                    return n, moved

    def inputs(self, seed: int, r: int):
        rng = random.Random(f"classify-stream/{seed}/{r}")
        out = []
        for slot in range(r * self.round_size, (r + 1) * self.round_size):
            if slot % 4 == 3:
                target = GATES[(slot // 4) % 3]
                n, edges = self._mutant(rng, target)
                out.append((f"q{slot}", target, n, edges))
            else:
                _, n, base = self.pool[(slot - slot // 4) % len(self.pool)]
                out.append((f"q{slot}", "almost-planar", n, _relabel(rng, n, base)))
        return out

    @staticmethod
    def _query(text: str):
        result = classify_module.classify(graph.parse_edge_list(text))
        return result, json.dumps(result.to_json(), indent=2)

    def run_round(self, rec: Recorder, seed: int, r: int) -> float:
        spent = 0.0
        for op_id, want, n, edges in self.inputs(seed, r):
            text = _edge_list_text(n, edges)
            rec.inputs.update(text.encode())
            out, seconds, error = rec.measure(op_id, self._query, text)
            spent += seconds
            kind, output = want, ""
            if error is None:
                result, output = out
                kind = result.gate
                error = self._check(want, n, edges, result)
            rec.record(op_id, kind, seconds, error, output)
        return spent

    @staticmethod
    def _check(want: str, n: int, edges, result) -> str | None:
        if result.gate != want:
            return f"gate {result.gate}, expected {want}"
        if want != "almost-planar":
            failing = None
            for note in result.evidence:
                found = re.search(r"edge \((\d+), (\d+)\) fails both", note)
                if found:
                    failing = (int(found.group(1)), int(found.group(2)))
            return checks.negative_gate_error(n, edges, want, failing)
        iso = result.iso_map
        if iso is None or sorted(iso) != list(range(1, n + 1)) or sorted(iso.values()) != list(range(1, n + 1)):
            return "iso_map is not a bijection on 1..n"
        rebuilt = families.generate(result.matched_spec).graph
        mapped = {tuple(sorted((iso[u], iso[v]))) for u, v in rebuilt.edges}
        if mapped != set(edges):
            return f"generate({result.matched_spec}) mapped through iso_map differs from the query"
        return None


# -- verify-suite ---------------------------------------------------------------


class VerifySuite:
    """``verify.run_suite("all", max_n=10)``: the paper's reproduction.

    Its input is fixed by the paper, so the seed changes nothing.  Each
    round runs in a fresh interpreter, as the CLI does, so caches start
    cold in every round.
    """

    name = "verify-suite"
    max_n = 10

    def setup(self) -> None:
        pass

    def prepare(self) -> None:
        pass

    def run_round(self, rec: Recorder, seed: int, r: int) -> float:
        rec.inputs.update(f"run_suite all max_n={self.max_n}".encode())
        timed: dict[str, tuple[float, str | None]] = {}

        def wrap(name, fn):
            def run(max_n):
                result, seconds, error = rec.measure(f"verify.{name}", fn, max_n)
                timed[name] = (seconds, error)
                if error is not None:
                    raise RuntimeError(error)
                return result

            return run

        original = verify.CRITERIA
        verify.CRITERIA = tuple((name, wrap(name, fn)) for name, fn in original)
        stolen = rec.stolen()
        start = time.perf_counter()
        try:
            results = verify.run_suite("all", max_n=self.max_n)
        except RuntimeError:
            results = []
        finally:
            spent = time.perf_counter() - start - (rec.stolen() - stolen)
            verify.CRITERIA = original
        by_name = {res.criterion: res for res in results}
        for name, _ in original:
            seconds, error = timed.get(name, (0.0, "criterion did not run"))
            res = by_name.get(name)
            if error is None and (res is None or not res.passed):
                error = f"FAIL {res.detail}" if res is not None else "no result"
            output = json.dumps([name, res.passed, res.detail]) if res is not None else ""
            rec.record(f"verify.{name}", name, seconds, error, output)
        return spent


# -- spectrum-scale ---------------------------------------------------------------


class SpectrumScale:
    """Exhaustive oracle against the O(n) builders, from n = 13 to 10^4.

    Oracle band: V_2k, B_n, A_n, three random bicycle minors and three
    random H1/H2 for each n in 13..18; cycle_spectrum with witnesses must
    equal constructive_spectrum, and B_n must be Hamiltonian-connected.
    The oracle band is three quarters of the operations, so the median
    latency falls inside it.
    Builder band: each builder at a seeded sample of lengths or vertex
    pairs at n = 10^3 and 10^4.  Minor band: constructive_spectrum of
    four random bicycle minors at n = 120.
    """

    name = "spectrum-scale"
    oracle_ns = range(13, 19)
    builder_ns = (1000, 10000)
    # Four equal minors make the costliest ~6% of operations one group, so
    # the 96th percentile latency falls inside it rather than at an edge.
    minor_ns = (120, 120, 120, 120)
    samples = 8

    def setup(self) -> None:
        pass

    def prepare(self) -> None:
        pass

    def inputs(self, seed: int, r: int):
        rng = random.Random(f"spectrum-scale/{seed}/{r}")
        ops = []
        for n in self.oracle_ns:
            specs = [("bicycle", Bicycle(n)), ("a", _a_graph(n))]
            if n % 2 == 0:
                specs.insert(0, ("mobius", Mobius(n // 2)))
            for i in range(3):
                specs += [(f"minor{i}", _random_minor(rng, n)), (f"h{i}", _random_h(rng, n))]
            for label, spec in specs:
                ops.append(("oracle", f"oracle/n{n}/{label}", n, spec, None))
        for n in self.builder_ns:
            k = n // 2
            mobius = set(range(4, n + 1, 2)) | (set(range(k + 1, n, 2)) if k % 2 == 0 else set())
            pancyclic = range(3, n + 1)
            pairs = []
            while len(pairs) < self.samples:
                u, v = rng.sample(range(1, n + 1), 2)
                pairs.append((u, v))
            builds = (
                ("mobius_cycle", Mobius(k), sorted(mobius)),
                ("bicycle_cycle", Bicycle(n), pancyclic),
                ("bicycle_ham_path", Bicycle(n), None),
                ("a_even_cycle", _a_graph(n), range(4, n + 1, 2)),
                ("h1_cycle", H1(*_random_pqr(rng, n), CHORDS), pancyclic),
                ("h2_cycle", H2(*_random_pqr(rng, n), CHORDS), pancyclic),
            )
            for builder, spec, lengths in builds:
                args = pairs if lengths is None else [(x,) for x in _spread(rng, list(lengths), self.samples)]
                ops.append(("builder", f"builder/n{n}/{builder}", n, spec, (builder, args)))
        for n in self.minor_ns:
            ops.append(("minor", f"minor/n{n}", n, _random_minor(rng, n), None))
        return ops

    @staticmethod
    def _oracle_op(spec):
        g = families.generate(spec).graph
        found = oracle.cycle_spectrum(g, witnesses=True)
        built = constructive.constructive_spectrum(spec)
        ham = oracle.hamiltonian_connectivity(g) if isinstance(spec, Bicycle) and not (spec.removed_s or spec.removed_t) else None
        return g, found, built, ham

    @staticmethod
    def _builder_op(spec, builder: str, args):
        inst = families.generate(spec)
        build = getattr(constructive, builder)
        return inst.graph, [build(inst, *a) for a in args]

    def run_round(self, rec: Recorder, seed: int, r: int) -> float:
        spent = 0.0
        for kind, op_id, n, spec, extra in self.inputs(seed, r):
            rec.inputs.update(f"{op_id} {spec} {extra}\n".encode())
            if kind == "oracle":
                out, seconds, error = rec.measure(op_id, self._oracle_op, spec)
            elif kind == "builder":
                out, seconds, error = rec.measure(op_id, self._builder_op, spec, *extra)
            else:
                out, seconds, error = rec.measure(op_id, constructive.constructive_spectrum, spec)
            spent += seconds
            output = ""
            if error is None:
                error, output = getattr(self, f"_check_{kind}")(n, spec, extra, out)
            rec.record(op_id, kind, seconds, error, output)
        return spent

    @staticmethod
    def _spectrum_error(g, spectrum, who: str) -> str | None:
        if spectrum.n != g.n or spectrum.witnesses is None:
            return f"{who}: wrong n or no witnesses"
        if set(spectrum.witnesses) != set(spectrum.lengths):
            return f"{who}: witness lengths differ from the spectrum"
        for length, seq in spectrum.witnesses.items():
            error = checks.cycle_error(g.edges, g.n, seq, length)
            if error:
                return f"{who} {length}-cycle: {error}"
        return None

    def _check_oracle(self, n, spec, extra, out):
        g, found, built, ham = out
        error = self._spectrum_error(g, found, "oracle") or self._spectrum_error(g, built, "constructive")
        if error is None and found.lengths != built.lengths:
            error = f"oracle {sorted(found.lengths)} != constructive {sorted(built.lengths)}"
        if error is None and ham is not None and ham != (True, None):
            error = f"B_{n} not Hamiltonian-connected: {ham}"
        output = json.dumps([found.to_json(), built.to_json(), ham])
        return error, output

    def _check_builder(self, n, spec, extra, out):
        builder, args = extra
        g, seqs = out
        for a, seq in zip(args, seqs):
            if builder == "bicycle_ham_path":
                error = checks.path_error(g.edges, n, seq, *a)
            else:
                error = checks.cycle_error(g.edges, n, seq, a[0])
            if error:
                return f"{builder}{a}: {error}", ""
        return None, json.dumps(seqs)

    def _check_minor(self, n, spec, extra, built):
        g = families.generate(spec).graph
        want = range(4, n + 1, 2) if checks.bipartite(n, g.edges) else range(3, n + 1)
        error = self._spectrum_error(g, built, "constructive")
        if error is None and built.lengths != frozenset(want):
            error = f"spectrum {sorted(built.lengths)} is not {want}"
        return error, json.dumps(built.to_json())


WORKLOADS = {w.name: w for w in (ClassifyStream, VerifySuite, SpectrumScale)}
