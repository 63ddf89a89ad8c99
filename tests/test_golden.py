"""Golden outputs: CLI stdout, written files, exit codes and stderr, and
digests of the family enumeration, of classify over the corpus, and of
the builders' witnesses and the generators' instances at large n.

Every file under ``tests/golden/`` must be reproduced byte for byte.
The files are captured once from a known-good tree; recapture them only
when an output is meant to change, with::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import struct
import tempfile
from pathlib import Path

import pytest

from almostplanar import cli, constructive
from almostplanar.classify import _candidates, classify
from almostplanar.families import (
    CHORD_NAMES,
    H1,
    H2,
    Bicycle,
    K33Chain,
    Mobius,
    Wheel,
    _bicycle_from_pattern,
    a_graph_spec,
    gen_bicycle,
    gen_wheel,
    generate,
    instances,
    spec_to_json,
)
from almostplanar.graph import Graph, format_edge_list

from corpus import corpus

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_FILES = sorted(p.name for p in GOLDEN.glob("*"))

GEN_CASES = {
    "mobius": ["--family", "mobius", "--k", "5"],
    "bicycle": ["--family", "bicycle", "--n", "8", "--remove-s", "2,4", "--remove-t", "3"],
    "a": ["--family", "a", "--n", "10"],
    "wheel": ["--family", "wheel", "--n", "7"],
    "k33chain": ["--family", "k33chain", "--extra", "ab,bc"],
    "h1": ["--family", "h1", "--p", "2", "--q", "1", "--r", "3", "--delete", "ab,bc"],
    "h2": ["--family", "h2", "--p", "1", "--q", "2", "--r", "2", "--delete", "ac"],
}

SPECTRUM_SPECS = {
    "mobius": Mobius(4),
    "bicycle": Bicycle(8, frozenset({2, 4}), frozenset({3})),
    "h1": H1(2, 1, 3, frozenset({"ab", "bc"})),
    "k33chain": K33Chain(frozenset({"ab"})),
}

CLASSIFY_GRAPHS = {
    "k33": Graph.from_edges(6, [(u, v) for u in (1, 2, 3) for v in (4, 5, 6)]),
    "k6": Graph.from_edges(6, itertools.combinations(range(1, 7), 2)),
    "w6": gen_wheel(6).graph,
    "b8": gen_bicycle(8).graph,
}


def run_cli(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _json(data) -> str:
    return json.dumps(data, indent=2) + "\n"


def _digest(items) -> dict:
    text = json.dumps(items, sort_keys=True)
    return {"count": len(items), "sha256": hashlib.sha256(text.encode()).hexdigest()}


def instance_digests() -> dict:
    """Count and digest of the ordered specs of every n = 5..12."""
    return {
        str(n): _digest([spec_to_json(spec) for spec, _ in instances(n)])
        for n in range(5, 13)
    }


def roles_specs() -> list:
    """Every family instance with n <= 9, every K33 chain among them, then
    the wheels on 4..9 vertices."""
    specs = [spec for n in range(5, 10) for spec, _ in instances(n)]
    return specs + list(map(Wheel, range(4, 10)))


def roles_digest(insts=None) -> dict:
    """Count and digest of the role maps (`roles_to_json`) of the instances
    of `roles_specs()`, in its order, generated here unless given."""
    if insts is None:
        insts = map(generate, roles_specs())
    return _digest([inst.roles_to_json() for inst in insts])


def classify_sweep_digest() -> dict:
    """classify JSON of every corpus instance with n <= 9, each under a
    relabelling seeded by its spec, in spec order."""
    rows = []
    for spec, g in corpus(9):
        key = json.dumps(spec_to_json(spec), sort_keys=True)
        perm = list(g.vertices())
        random.Random(key).shuffle(perm)
        relabelled = g.relabel({v: perm[v - 1] for v in g.vertices()})
        rows.append([key, classify(relabelled).to_json()])
    rows.sort(key=lambda row: row[0])
    return _digest(rows)


def moved_edge_mutant(g: Graph, rng: random.Random) -> Graph:
    """g relabelled, with one edge moved to a non-edge; a complete graph
    has nowhere to move it to, so it only loses the edge."""
    perm = list(g.vertices())
    rng.shuffle(perm)
    g = g.relabel({v: perm[v - 1] for v in g.vertices()})
    drop = rng.choice(g.sorted_edges())
    free = [e for e in itertools.combinations(g.vertices(), 2) if e not in g.edges]
    added = {rng.choice(free)} if free else set()
    return Graph(g.n, (g.edges - {drop}) | added)


def classify_mutant_digest() -> dict:
    """classify JSON of one moved-edge mutant of every corpus instance with
    n <= 9, each seeded by its spec, in spec order, with every index
    already built."""
    for n in range(5, 10):
        _candidates(n)
    rows = []
    for spec, g in corpus(9):
        key = json.dumps(spec_to_json(spec), sort_keys=True)
        mutant = moved_edge_mutant(g, random.Random(f"moved:{key}"))
        rows.append([key, format_edge_list(mutant), classify(mutant).to_json()])
    rows.sort(key=lambda row: row[0])
    return _digest(rows)


BUILDER_N = 1000
GENERATE_N = 10_000


def _fan_specs(n: int, deleted: frozenset[str]) -> list:
    """H1 then H2 specs on n vertices: two fans of length 1 beside a long
    one, and three fans of about equal length."""
    third = (n - 3) // 3
    pqrs = ((1, 1, n - 5), (third, n - 3 - 2 * third, third))
    return [kind(*pqr, deleted) for kind in (H1, H2) for pqr in pqrs]


class _RowDigest:
    """sha256 over rows of a label and a list of values, each row framed
    by its label and length; a count of the rows rides along.  A list of
    ints is hashed as little-endian 64-bit words, anything else by its
    repr."""

    def __init__(self) -> None:
        self.count = 0
        self.hash = hashlib.sha256()

    def add(self, label, values: list) -> None:
        self.count += 1
        self.hash.update(f"{label} {len(values)}\n".encode())
        if all(type(v) is int for v in values):
            self.hash.update(struct.pack(f"<{len(values)}q", *values))
        else:
            self.hash.update(repr(values).encode())

    def result(self) -> dict:
        return {"count": self.count, "sha256": self.hash.hexdigest()}


def builder_digest() -> dict:
    """Digests of every builder's witnesses at n = 1000, of bicycle_ham_path
    over fixed vertex pairs in both directions, and of generate() for each
    family at n = 10^4 (edges, vertex roles and edge roles)."""
    n = BUILDER_N
    chords = frozenset(CHORD_NAMES)
    minors = [
        _bicycle_from_pattern(n, "S" * 3 + "T" * (n - 8) + "SB"),
        _bicycle_from_pattern(n, ("SSTBT" * n)[: n - 2]),
    ]
    fans = _fan_specs(n, chords)
    runs = {
        "mobius_cycle": [(Mobius(n // 2), sorted(constructive.mobius_lengths(n // 2)))],
        "bicycle_cycle": [(Bicycle(n), range(3, n + 1))],
        "a_even_cycle": [
            (a_graph_spec(n), range(4, n + 1, 2)),
            (_bicycle_from_pattern(n, "TS" * (n // 2 - 1)), range(4, n + 1, 2)),
        ],
        "h1_cycle": [(spec, range(3, n + 1)) for spec in fans[:2]],
        "h2_cycle": [(spec, range(3, n + 1)) for spec in fans[2:]],
        "b_graph_ham_cycle": [(spec, [None]) for spec in [Bicycle(n), *minors]],
        "b_adjacent_spoke_cycle": [(spec, range(3, n + 1)) for spec in minors],
    }
    out = {}
    for name, cases in runs.items():
        build = getattr(constructive, name)
        rows = _RowDigest()
        for spec, lengths in cases:
            inst = generate(spec)
            for length in lengths:
                args = () if length is None else (length,)
                rows.add((spec_to_json(spec), args), build(inst, *args))
        out[name] = rows.result()

    hub_s, hub_t = n, n - 1
    rims = (1, 2, 3, n // 2, n // 2 + 1, n - 3, n - 2)
    pairs = [(hub_s, hub_t)] + [(hub, rim) for hub in (hub_s, hub_t) for rim in rims]
    pairs += itertools.combinations(rims, 2)
    inst = generate(Bicycle(n))
    rows = _RowDigest()
    for u, v in pairs:
        for a, b in ((u, v), (v, u)):
            rows.add((a, b), constructive.bicycle_ham_path(inst, a, b))
    out["bicycle_ham_path"] = rows.result()

    big = GENERATE_N
    specs = [
        Mobius(big // 2),
        Bicycle(big),
        a_graph_spec(big),
        _bicycle_from_pattern(big, ("SSTBT" * big)[: big - 2]),
        Wheel(big),
        *map(K33Chain, (frozenset(), chords)),
        *_fan_specs(big, frozenset()),
        *_fan_specs(big, chords),
        H1(2, 3, big - 8, frozenset({"ab"})),
        H2(2, 3, big - 8, frozenset({"bc", "ac"})),
    ]
    rows = _RowDigest()
    for spec in specs:
        inst = generate(spec)
        label = spec_to_json(spec)
        rows.add((label, "edges"), inst.graph.sorted_edges())
        rows.add((label, "vertex roles"), sorted(inst.vertex_roles.items()))
        rows.add((label, "edge roles"), sorted(inst.edge_roles.items()))
    out["generate"] = rows.result()
    return out


def produce(tmp: Path) -> dict[str, str]:
    """Every golden file's expected content, keyed by file name."""
    files: dict[str, str] = {}
    for name, args in GEN_CASES.items():
        code, out, err = run_cli("gen", *args)
        assert (code, err) == (0, ""), (name, code, err)
        files[f"gen_{name}.edges"] = out

    prefix = tmp / "h1"
    code, out, err = run_cli("gen", *GEN_CASES["h1"], "--out", str(prefix), "--dot")
    err = err.replace(str(tmp), "<tmp>")
    files["gen_out_h1.log"] = _json({"code": code, "stdout": out, "stderr": err})
    for suffix in (".edges", ".roles.json", ".dot"):
        files[f"gen_out_h1{suffix}"] = prefix.with_suffix(suffix).read_text()

    for name, spec in SPECTRUM_SPECS.items():
        path = tmp / f"{name}.edges"
        path.write_text(format_edge_list(generate(spec).graph))
        code, out, err = run_cli("spectrum", str(path), "--method", "both")
        assert (code, err) == (0, ""), (name, code, err)
        files[f"spectrum_both_{name}.json"] = out
        code, out, err = run_cli(
            "spectrum", str(path), "--method", "constructive", "--witnesses"
        )
        assert (code, err) == (0, ""), (name, code, err)
        files[f"spectrum_constructive_{name}.json"] = out

    for name, g in CLASSIFY_GRAPHS.items():
        path = tmp / f"classify_{name}.edges"
        path.write_text(format_edge_list(g))
        code, out, err = run_cli("classify", str(path))
        assert (code, err) == (0, ""), (name, code, err)
        files[f"classify_{name}.json"] = out

    code, out, err = run_cli("verify", "--suite", "all", "--max-n", "8")
    assert (code, err) == (0, ""), (code, err)
    files["verify_all_8.txt"] = out

    errors = {}
    for name, args in (
        ("mobius_no_k", ["gen", "--family", "mobius"]),
        ("mobius_k1", ["gen", "--family", "mobius", "--k", "1"]),
    ):
        code, out, err = run_cli(*args)
        errors[name] = {"argv": args, "code": code, "stdout": out, "stderr": err}
    files["errors.json"] = _json(errors)

    files["instances.json"] = _json(instance_digests())
    files["roles.json"] = _json(roles_digest())
    files["classify_corpus_9.json"] = _json(classify_sweep_digest())
    files["classify_mutants_9.json"] = _json(classify_mutant_digest())
    files["builders.json"] = _json(builder_digest())
    return files


@pytest.fixture(scope="module")
def produced(tmp_path_factory) -> dict[str, str]:
    return produce(tmp_path_factory.mktemp("golden"))


def test_golden_file_set(produced):
    assert sorted(produced) == GOLDEN_FILES


@pytest.mark.parametrize("name", GOLDEN_FILES)
def test_golden(name, produced):
    assert produced[name] == (GOLDEN / name).read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in produce(Path(tmp)).items():
            (GOLDEN / name).write_text(text)
