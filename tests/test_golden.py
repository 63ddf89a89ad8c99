"""Golden outputs: CLI stdout, written files, exit codes and stderr, and
digests of the family enumeration and of classify over the corpus.

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
import tempfile
from pathlib import Path

import pytest

from almostplanar import cli, verify
from almostplanar.classify import _candidates, classify
from almostplanar.families import (
    H1,
    Bicycle,
    K33Chain,
    Mobius,
    gen_bicycle,
    gen_wheel,
    generate,
    instances,
    spec_to_json,
)
from almostplanar.graph import Graph, format_edge_list

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


def classify_sweep_digest() -> dict:
    """classify JSON of every corpus instance with n <= 9, each under a
    relabelling seeded by its spec, in spec order."""
    rows = []
    for spec, g in verify.family_corpus(9):
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
    for spec, g in verify.family_corpus(9):
        key = json.dumps(spec_to_json(spec), sort_keys=True)
        mutant = moved_edge_mutant(g, random.Random(f"moved:{key}"))
        rows.append([key, format_edge_list(mutant), classify(mutant).to_json()])
    rows.sort(key=lambda row: row[0])
    return _digest(rows)


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
    files["classify_corpus_9.json"] = _json(classify_sweep_digest())
    files["classify_mutants_9.json"] = _json(classify_mutant_digest())
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
