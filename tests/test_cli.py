import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import almostplanar
from almostplanar import cli
from almostplanar import verify as verify_mod
from almostplanar.classify import DEFAULT_CLASSIFY_CAP
from almostplanar.errors import OracleCapError
from almostplanar.families import gen_bicycle, gen_k33_chain, gen_mobius
from almostplanar.graph import (
    MAX_VERTICES,
    Graph,
    are_isomorphic,
    format_edge_list,
    parse_edge_list,
)
from almostplanar.oracle import oracle_cap


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_bicycle_stdout(capsys):
    code, out, _ = run_cli(capsys, "gen", "--family", "bicycle", "--n", "5")
    assert code == 0
    g = parse_edge_list(out)
    assert g.n == 5 and g.m == 10  # K5


def test_gen_mobius_counts(capsys):
    code, out, _ = run_cli(capsys, "gen", "--family", "mobius", "--k", "3")
    assert code == 0
    g = parse_edge_list(out)
    assert g.n == 6 and g.m == 9


def test_gen_h1_writes_files(tmp_path, capsys):
    prefix = tmp_path / "h"
    code, _, err = run_cli(
        capsys,
        "gen", "--family", "h1", "--p", "1", "--q", "1", "--r", "1",
        "--out", str(prefix), "--dot",
    )
    assert code == 0
    g = parse_edge_list((tmp_path / "h.edges").read_text())
    assert g.n == 6 and g.m == 12  # K33 plus all three chords
    roles = json.loads((tmp_path / "h.roles.json").read_text())
    assert roles["schema"] == 1
    assert roles["family"] == {"family": "h1", "p": 1, "q": 1, "r": 1, "deleted": []}
    dot = (tmp_path / "h.dot").read_text()
    assert dot.startswith("graph G {")


def test_gen_invalid_spec_exits_2(capsys):
    for argv, message in (
        (["--family", "mobius", "--k", "1"], "k >= 3"),
        (["--family", "bicycle", "--n", "7", "--remove-s", "2", "--remove-t", "2"],
         "3-connectivity"),
        (["--family", "bicycle", "--n", "7", "--remove-s", "1,2,3,4"], "3-connectivity"),
        (["--family", "a", "--n", "5"], "n >= 6"),
    ):
        code, out, err = run_cli(capsys, "gen", *argv)
        assert (code, out) == (2, ""), argv
        assert message in err, argv


def test_gen_roundtrip_isomorphic(tmp_path, capsys):
    prefix = tmp_path / "g"
    code, _, _ = run_cli(
        capsys,
        "gen", "--family", "bicycle", "--n", "8",
        "--remove-s", "2,4", "--remove-t", "3",
        "--out", str(prefix),
    )
    assert code == 0
    g = parse_edge_list((tmp_path / "g.edges").read_text())
    want = gen_bicycle(8, {2, 4}, {3}).graph
    assert are_isomorphic(g, want)


def test_spectrum_oracle(tmp_path, capsys):
    path = tmp_path / "v8.edges"
    path.write_text(format_edge_list(gen_mobius(4).graph))
    code, out, _ = run_cli(capsys, "spectrum", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["lengths"] == [4, 5, 6, 7, 8]
    assert data["pancyclic"] is False and data["hamiltonian"] is True


def test_spectrum_both_agreement(tmp_path, capsys):
    from almostplanar.families import gen_a_graph

    path = tmp_path / "a8.edges"
    path.write_text(format_edge_list(gen_a_graph(8).graph))
    code, out, _ = run_cli(capsys, "spectrum", str(path), "--method", "both")
    assert code == 0
    data = json.loads(out)
    assert data["lengths"] == [4, 6, 8]
    assert data["constructive_lengths"] == [4, 6, 8]
    assert data["agreement"] is True


def test_spectrum_constructive_witnesses_in_input_labels(tmp_path, capsys):
    from almostplanar.oracle import validate_cycle

    g = gen_mobius(4).graph.relabel({v: (v * 3) % 8 + 1 for v in range(1, 9)})
    path = tmp_path / "shuffled.edges"
    path.write_text(format_edge_list(g))
    code, out, _ = run_cli(
        capsys, "spectrum", str(path), "--method", "constructive", "--witnesses"
    )
    assert code == 0
    data = json.loads(out)
    assert data["lengths"] == [4, 5, 6, 7, 8]
    for length, seq in data["witnesses"].items():
        assert validate_cycle(g, seq, int(length))


def test_spectrum_both_mismatch_exit_1(tmp_path, capsys, monkeypatch):
    # a broken oracle must be caught by the constructive comparison
    from almostplanar.families import gen_a_graph
    from almostplanar.oracle import CycleSpectrum

    monkeypatch.setattr(
        cli, "cycle_spectrum", lambda g, **kw: CycleSpectrum(g.n, frozenset({4, 8}))
    )
    path = tmp_path / "a8.edges"
    path.write_text(format_edge_list(gen_a_graph(8).graph))
    code, out, err = run_cli(capsys, "spectrum", str(path), "--method", "both")
    assert code == 1
    assert json.loads(out)["agreement"] is False
    assert "mismatch" in err


def test_spectrum_unclassifiable_exit_4(tmp_path, capsys):
    path = tmp_path / "w.edges"
    from almostplanar.families import gen_wheel

    path.write_text(format_edge_list(gen_wheel(6).graph))
    code, _, err = run_cli(capsys, "spectrum", str(path), "--method", "constructive")
    assert code == 4
    assert "gate" in err


def test_spectrum_cap_exit_3(tmp_path, capsys):
    path = tmp_path / "big.edges"
    path.write_text(format_edge_list(Graph(19, frozenset())))
    code, _, err = run_cli(capsys, "spectrum", str(path))
    assert code == 3
    assert "too large" in err


@pytest.mark.parametrize("value", ["abc", "1_8", "-1"])
def test_bad_oracle_cap_env_exits_2(tmp_path, capsys, monkeypatch, value):
    path = tmp_path / "v8.edges"
    path.write_text(format_edge_list(gen_mobius(4).graph))
    monkeypatch.setenv("APK_ORACLE_CAP", value)
    code, out, err = run_cli(capsys, "spectrum", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: APK_ORACLE_CAP") and err.count("\n") == 1


def test_empty_oracle_cap_env_keeps_the_default(tmp_path, capsys, monkeypatch):
    path = tmp_path / "big.edges"
    path.write_text(format_edge_list(Graph(19, frozenset())))
    monkeypatch.setenv("APK_ORACLE_CAP", "")
    code, _, err = run_cli(capsys, "spectrum", str(path))
    assert code == 3 and "cap 18" in err


@pytest.mark.parametrize(
    "command", [["classify"], ["spectrum", "--method", "constructive"]]
)
def test_cap_zero_is_a_cap(tmp_path, capsys, command):
    path = tmp_path / "b6.edges"
    path.write_text(format_edge_list(gen_bicycle(6).graph))
    code, out, err = run_cli(capsys, command[0], str(path), *command[1:], "--cap", "0")
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_classify_k33(tmp_path, capsys, k33):
    path = tmp_path / "k33.edges"
    path.write_text(format_edge_list(k33))
    code, out, _ = run_cli(capsys, "classify", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["gate"] == "almost-planar"
    assert data["spec"] == {"family": "mobius", "k": 3}
    assert data["predicted"]["pancyclic"] is False


def test_classify_k6(tmp_path, capsys, k6):
    path = tmp_path / "k6.edges"
    path.write_text(format_edge_list(k6))
    code, out, _ = run_cli(capsys, "classify", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["gate"] == "not-almost-planar"


def test_classify_unmatched_almost_planar_graph_exits_0(tmp_path, capsys):
    path = tmp_path / "g.edges"
    path.write_text("7 13\n1 4\n1 5\n1 6\n1 7\n2 3\n2 4\n2 6\n2 7\n3 5\n3 6\n4 5\n4 6\n5 7\n")
    code, out, err = run_cli(capsys, "classify", str(path))
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert data["gate"] == "almost-planar"
    assert data["spec"] is None and data["predicted"] is None


def test_export_dot(tmp_path, capsys, k4):
    path = tmp_path / "k4.edges"
    path.write_text(format_edge_list(k4))
    code, out, _ = run_cli(capsys, "export", str(path))
    assert code == 0
    assert out.startswith("graph G {")
    assert "1 -- 2;" in out


def test_verify_small_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "mobius", "--max-n", "10")
    assert code == 0
    assert "PASS  mobius-spectra" in out


def test_verify_theorems_suite_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "theorems", "--max-n", "8")
    assert code == 0
    assert "PASS  pancyclic-iff-triangle" in out
    assert "PASS  almost-planarity" in out
    assert "PASS  builder-oracle-equivalence" in out
    assert "PASS  errata-ledger" in out


def _no_corpus_build(*args):
    raise AssertionError("corpus built above the oracle cap")


def test_verify_max_n_over_the_oracle_cap_exits_3_before_building(capsys, monkeypatch):
    # Left to run, the corpus criteria would sweep 3^(n-2) spoke patterns
    # per n up to 19 before the oracle refused the first n over its cap.
    monkeypatch.delenv("APK_ORACLE_CAP", raising=False)
    monkeypatch.setattr(verify_mod, "_candidates", _no_corpus_build)
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "--suite", "theorems", "--max-n", "19")
    assert time.perf_counter() - t0 < 1.0
    assert (code, out) == (3, "")
    assert err == "error: corpus too large for oracle: max_n=19 > cap 18\n"


@pytest.mark.parametrize(
    "criterion",
    [
        "b-minor-hamiltonicity",
        "h-graphs",
        "pancyclic-iff-triangle",
        "almost-planarity",
        "builder-oracle-equivalence",
    ],
)
def test_corpus_criteria_refuse_max_n_over_the_oracle_cap(monkeypatch, criterion):
    monkeypatch.setenv("APK_ORACLE_CAP", "8")
    monkeypatch.setattr(verify_mod, "_candidates", _no_corpus_build)
    monkeypatch.setattr(verify_mod.families, "generate", _no_corpus_build)
    with pytest.raises(OracleCapError, match="max_n=9 > cap 8"):
        dict(verify_mod.CRITERIA)[criterion](9)


@pytest.mark.parametrize("max_n", ["0", "-1"])
def test_verify_max_n_below_the_ranges_is_a_usage_error(capsys, max_n):
    # 0 is a bound, not "the default ranges"; below 6 some range is empty
    code, out, err = run_cli(capsys, "verify", "--suite", "mobius", "--max-n", max_n)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")


def test_verify_mutation_writes_counterexample(tmp_path, capsys, monkeypatch):
    # fault injection: a corrupted Möbius generator must fail the suite
    # and leave a counterexample file behind
    real = verify_mod.families.gen_mobius

    def corrupted(k):
        # adding chord (1,3) to V_2k (k >= 4) creates a triangle 1-2-3,
        # which no Möbius ladder spectrum allows
        inst = real(k)
        g = inst.graph
        broken = Graph(g.n, g.edges | {(1, 3)})
        return type(inst)(broken, inst.family, inst.vertex_roles, inst.edge_roles)

    monkeypatch.setattr(verify_mod.families, "gen_mobius", corrupted)
    code, out, err = run_cli(
        capsys,
        "verify", "--suite", "mobius", "--max-n", "8", "--out-dir", str(tmp_path),
    )
    assert code == 1
    assert "FAIL" in out
    files = list(tmp_path.glob("counterexample_*.edges"))
    assert files
    parse_edge_list(files[0].read_text())  # well-formed


def test_edge_list_round_trip_across_families(tmp_path):
    from almostplanar.families import (
        H2,
        Mobius,
        Wheel,
        a_graph_spec,
        generate,
    )

    specs = [
        Mobius(6),
        a_graph_spec(11),
        Wheel(9),
        H2(3, 2, 2, frozenset({"ab", "bc", "ac"})),
    ]
    for spec in specs:
        g = generate(spec).graph
        path = tmp_path / "g.edges"
        path.write_text(format_edge_list(g))
        assert parse_edge_list(path.read_text()) == g


def test_unknown_flag_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["gen", "--family", "mobius", "--k", "3", "--bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--family", "bicycle", "--n", "12", "--remove-s", "\u0663"],
        ["gen", "--family", "bicycle", "--n", "12", "--remove-t", "+2"],
        ["gen", "--family", "bicycle", "--n", "12", "--remove-s", "2,1_0"],
        ["gen", "--family", "h1", "--p", "1_0", "--q", "1", "--r", "1"],
        ["gen", "--family", "h2", "--p", "1", "--q", "-1", "--r", "1"],
        ["gen", "--family", "mobius", "--k", "\u0663"],
        ["gen", "--family", "bicycle", "--n", "+8"],
        ["gen", "--family", "a", "--n", " 8"],
        ["classify", "-", "--cap", "-1"],
        ["spectrum", "-", "--cap", "1_2"],
        ["verify", "--max-n", "+6"],
    ],
)
def test_integer_options_take_ascii_digits_only(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "must be ASCII digits, got" in err


def test_spoke_lists_ignore_spaces_and_empty_items(capsys):
    base = ["gen", "--family", "bicycle", "--n", "8", "--remove-t", "3"]
    assert run_cli(capsys, *base, "--remove-s", "2,4")[:2] == run_cli(
        capsys, *base, "--remove-s", " 2, 4,,"
    )[:2]


def test_import_and_classify_leave_networkx_unloaded(tmp_path):
    # networkx is a test dependency only: the package never imports it
    path = tmp_path / "b7.edges"
    path.write_text(format_edge_list(gen_bicycle(7).graph))
    script = (
        "import sys\n"
        "import almostplanar\n"
        "from almostplanar import cli\n"
        f"assert cli.main(['classify', {str(path)!r}]) == 0\n"
        "assert 'networkx' not in sys.modules, 'networkx imported'\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(almostplanar.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert '"gate": "almost-planar"' in proc.stdout


@pytest.mark.parametrize(
    "argv, stdin",
    [
        (["export", "-"], "99999999999999999999 0\n"),
        (["export", "-", "--format", "edges"], "3000000 1\n1 2\n"),
        (["classify", "-"], f"{MAX_VERTICES + 1} 0\n"),
        (["gen", "--family", "bicycle", "--n", "99999999999999999999"], ""),
        (["gen", "--family", "a", "--n", "99999999999999999999"], ""),
        (["gen", "--family", "mobius", "--k", str(MAX_VERTICES)], ""),
        (["gen", "--family", "h1", "--p", str(MAX_VERTICES), "--q", "1", "--r", "1"], ""),
    ],
)
def test_hostile_vertex_counts_end_in_bounded_time(argv, stdin):
    env = dict(os.environ, PYTHONPATH=str(Path(almostplanar.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "almostplanar.cli", *argv],
        input=stdin, env=env, capture_output=True, text=True, timeout=30,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert f"limit of {MAX_VERTICES}" in proc.stderr


def test_vertex_bound_admits_the_builder_sizes(capsys):
    assert parse_edge_list(f"{MAX_VERTICES} 0\n").n == MAX_VERTICES
    code, out, _ = run_cli(capsys, "gen", "--family", "bicycle", "--n", "10000")
    assert code == 0
    assert parse_edge_list(out).n == 10000


# Tokens of fuzzed edge lists: mostly small vertex numbers, plus counts
# around the caps and the vertex bound, and malformed numbers.
_TOKENS = st.one_of(
    st.integers(-2, 10).map(str),
    st.sampled_from(
        ["13", "19", str(MAX_VERTICES), str(MAX_VERTICES + 1), "9" * 40]
        + ["x", "1.5", "-", "0x3", "1_0", "+1", "\u0662", "\uff12"]
    ),
)


@st.composite
def _edge_list_texts(draw) -> str:
    """Text shaped like an edge list: a header line and up to 12 more
    lines of one to three tokens, the header's edge count often right."""
    line = st.lists(_TOKENS, min_size=1, max_size=3)
    lines = draw(st.lists(line, min_size=1, max_size=13))
    if draw(st.booleans()):
        lines[0] = [lines[0][0], str(len(lines) - 1)]
    sep = draw(st.sampled_from(["\n", "\r\n", "\n \n"]))
    return sep.join(" ".join(tokens) for tokens in lines) + draw(st.sampled_from(["", "\n"]))


def _parse_or_none(text: str):
    try:
        return parse_edge_list(text)
    except ValueError:
        return None


@given(st.one_of(_edge_list_texts(), st.text(max_size=60)))
@settings(max_examples=250, deadline=None)
def test_fuzzed_edge_list_parses_to_a_graph_or_a_value_error(text):
    g = _parse_or_none(text)
    if g is not None:
        assert g.n <= MAX_VERTICES
        assert all(tok.isascii() and tok.isdigit() for tok in text.split())
        assert parse_edge_list(format_edge_list(g)) == g


def _main_on_stdin(argv: list[str], text: str) -> tuple[int, str, str]:
    out, err, stdin = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


@given(_edge_list_texts())
@settings(max_examples=150, deadline=None)
def test_fuzzed_edge_list_cli_runs_end_in_a_result_or_one_error_line(text):
    g = _parse_or_none(text)
    # each command with the vertex cap that may end it in exit 3
    for argv, cap in (
        (["classify", "-"], DEFAULT_CLASSIFY_CAP),
        (["spectrum", "-"], oracle_cap()),
        (["export", "-"], None),
    ):
        code, out, err = _main_on_stdin(argv, text)
        if code == 0:
            assert g is not None and out and not err, argv
            continue
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, argv
        if g is None:
            assert code == 2, argv
        else:
            assert code == 3 and cap is not None and g.n > cap, argv


# Inputs up to the vertex bound, each with the exit codes of classify,
# spectrum and export and what a usage error names.  A 10^6-digit number is rejected by its length,
# never handed to int(), which refuses it by default and takes seconds
# on it with the digit limit off.
_LONG = "1" * 10**6
_LARGE_INPUTS = {
    "no-edges": (lambda: f"{MAX_VERTICES} 0\n", (3, 3, 0), ""),
    "duplicate-lines": (lambda: "5 1000000\n" + "1 2\n" * 10**6, (2, 2, 2), "duplicate edge"),
    "long-vertex-count": (lambda: f"{_LONG} 0\n", (2, 2, 2), f"limit of {MAX_VERTICES}"),
    "long-edge-count": (lambda: f"5 {_LONG}\n", (2, 2, 2), "edge lines, found 0"),
    "long-vertex": (lambda: f"5 1\n{_LONG} 2\n", (2, 2, 2), "out of range"),
    # a malformed line is echoed by its start and its length only
    "long-edge-line": (
        lambda: "5 1\n1 " + "x" * (10**6 - 2) + "\n",
        (2, 2, 2),
        "malformed edge line '1 xxx",
    ),
    "long-header": (
        lambda: "x" * 10**6 + "\n",
        (2, 2, 2),
        "header must be 'n m', got 'xxx",
    ),
}


@pytest.mark.parametrize(
    "case, int_digits",
    [(case, None) for case in _LARGE_INPUTS]
    + [(case, 0) for case in _LARGE_INPUTS if case.startswith("long")],
)
def test_large_hostile_inputs_end_in_bounded_time(case, int_digits):
    make_text, codes, names = _LARGE_INPUTS[case]
    text = make_text()
    limit = sys.get_int_max_str_digits()
    if int_digits is not None:
        sys.set_int_max_str_digits(int_digits)
    try:
        for command, want in zip(("classify", "spectrum", "export"), codes):
            t0 = time.perf_counter()
            code, out, err = _main_on_stdin([command, "-"], text)
            assert time.perf_counter() - t0 < 3.0, command
            assert code == want, (command, err)
            if code == 0:
                assert out.count("\n") == MAX_VERTICES + 2 and not err
            else:
                assert out == "" and err.startswith("error: ") and err.count("\n") == 1
                assert names in err and len(err) < 200, command
    finally:
        sys.set_int_max_str_digits(limit)
