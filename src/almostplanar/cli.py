"""Command-line front door.

Commands: gen, spectrum, classify, verify, export.  Machine-readable
output goes to stdout, logs to stderr.  Exit codes: 0 success, 1
falsification or method mismatch, 2 invalid usage or spec, 3 oracle cap
exceeded, 4 unclassifiable input for the constructive method.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import verify as verify_mod
from .classify import DEFAULT_CLASSIFY_CAP, classify
from .constructive import constructive_spectrum
from .errors import FalsificationError, OracleCapError, UnclassifiableError
from .families import FAMILIES, FamilySpec, a_graph_spec, generate, graph_to_dot
from .graph import Graph, format_edge_list, parse_edge_list
from .oracle import cycle_spectrum

EXIT_OK = 0
EXIT_FALSIFIED = 1
EXIT_USAGE = 2
EXIT_ORACLE_CAP = 3
EXIT_UNCLASSIFIABLE = 4


# The gen option of each set-valued spec field; an int field's option
# carries the field's own name.
_SET_OPTIONS = {
    "removed_s": "remove_s",
    "removed_t": "remove_t",
    "extra_edges": "extra",
    "deleted": "delete",
}


def _parse_list(text: str, kind: type) -> frozenset:
    if kind is int:
        return frozenset(int(tok) for tok in text.split(",") if tok)
    return frozenset(tok.strip() for tok in text.split(",") if tok.strip())


def _family_choices() -> list[str]:
    """Registry families, with ``a`` (the alternating bicycle minor A_n)
    right after ``bicycle``."""
    names = list(FAMILIES)
    names.insert(names.index("bicycle") + 1, "a")
    return names


def _spec_from_args(args: argparse.Namespace) -> FamilySpec:
    fam = args.family
    if fam == "a":
        if args.n is None:
            raise ValueError("--family a needs --n")
        return a_graph_spec(args.n)
    family = FAMILIES[fam]
    scalars = [name for name, _, is_set in family.params if not is_set]
    if any(getattr(args, name) is None for name in scalars):
        needed = " ".join(f"--{name}" for name in scalars)
        raise ValueError(f"--family {fam} needs {needed}")
    return family.spec_type(
        *(
            _parse_list(getattr(args, _SET_OPTIONS[name]), kind)
            if is_set
            else getattr(args, name)
            for name, kind, is_set in family.params
        )
    )


def _read_graph(source: str) -> Graph:
    text = sys.stdin.read() if source == "-" else Path(source).read_text()
    return parse_edge_list(text)


def cmd_gen(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    inst = generate(spec)
    if args.out:
        prefix = Path(args.out)
        prefix.with_suffix(".edges").write_text(format_edge_list(inst.graph))
        prefix.with_suffix(".roles.json").write_text(
            json.dumps(inst.roles_to_json(), indent=2) + "\n"
        )
        if args.dot:
            prefix.with_suffix(".dot").write_text(inst.to_dot())
        print(f"wrote {prefix.with_suffix('.edges')}", file=sys.stderr)
    elif args.dot:
        sys.stdout.write(inst.to_dot())
    else:
        sys.stdout.write(format_edge_list(inst.graph))
    return EXIT_OK


def _translated_constructive(g: Graph, cap: int):
    cls = classify(g, cap=cap)
    if cls.gate != "almost-planar" or cls.matched_spec is None:
        raise UnclassifiableError(
            f"constructive method needs a recognized family; gate={cls.gate}"
        )
    built = constructive_spectrum(cls.matched_spec)
    witnesses = {
        length: [cls.iso_map[v] for v in seq]
        for length, seq in built.witnesses.items()
    }
    return built.lengths, witnesses


def cmd_spectrum(args: argparse.Namespace) -> int:
    g = _read_graph(args.input)
    report: dict = {"schema": 1, "n": g.n, "method": args.method}
    if args.method in ("oracle", "both"):
        spec = cycle_spectrum(g, witnesses=args.witnesses, cap=args.cap)
        report["lengths"] = sorted(spec.lengths)
        if args.witnesses:
            report["witnesses"] = {str(k): v for k, v in spec.witnesses.items()}
        report["pancyclic"] = spec.pancyclic
        report["hamiltonian"] = spec.hamiltonian
    if args.method in ("constructive", "both"):
        lengths, witnesses = _translated_constructive(
            g, cap=args.cap or DEFAULT_CLASSIFY_CAP
        )
        key = "constructive_lengths" if args.method == "both" else "lengths"
        report[key] = sorted(lengths)
        if args.method == "constructive":
            report["pancyclic"] = lengths == frozenset(range(3, g.n + 1))
            report["hamiltonian"] = g.n in lengths
            if args.witnesses:
                report["witnesses"] = {str(k): v for k, v in witnesses.items()}
    if args.method == "both":
        report["agreement"] = report["lengths"] == report["constructive_lengths"]
    print(json.dumps(report, indent=2))
    if args.method == "both" and not report["agreement"]:
        print("spectrum mismatch between oracle and constructive", file=sys.stderr)
        return EXIT_FALSIFIED
    return EXIT_OK


def cmd_classify(args: argparse.Namespace) -> int:
    g = _read_graph(args.input)
    result = classify(g, cap=args.cap or DEFAULT_CLASSIFY_CAP)
    print(json.dumps(result.to_json(), indent=2))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    results = verify_mod.run_suite(args.suite, args.max_n)
    failed = [res for res in results if not res.passed]
    for res in results:
        print(res.line())
    if failed:
        for res in failed:
            if res.counterexample is not None:
                path = Path(args.out_dir) / f"counterexample_{res.criterion}.edges"
                path.write_text(format_edge_list(res.counterexample))
                print(f"counterexample written to {path}", file=sys.stderr)
        print(f"{len(failed)} criterion(s) failed", file=sys.stderr)
        return EXIT_FALSIFIED
    return EXIT_OK


def cmd_export(args: argparse.Namespace) -> int:
    g = _read_graph(args.input)
    if args.format == "dot":
        sys.stdout.write(graph_to_dot(g))
    else:
        sys.stdout.write(format_edge_list(g))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="almostplanar",
        description="Generate, classify, and verify almost-planar graph families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a family instance")
    gen.add_argument(
        "--family",
        required=True,
        choices=_family_choices(),
    )
    gen.add_argument("--k", type=int)
    gen.add_argument("--n", type=int)
    gen.add_argument("--remove-s", default="", help="comma-separated spoke indices")
    gen.add_argument("--remove-t", default="", help="comma-separated spoke indices")
    gen.add_argument("--p", type=int)
    gen.add_argument("--q", type=int)
    gen.add_argument("--r", type=int)
    gen.add_argument("--delete", default="", help="subset of ab,bc,ac")
    gen.add_argument("--extra", default="", help="subset of ab,bc,ac (k33chain)")
    gen.add_argument("--out", help="output file prefix")
    gen.add_argument("--dot", action="store_true", help="also emit DOT")
    gen.set_defaults(func=cmd_gen)

    spectrum = sub.add_parser("spectrum", help="cycle spectrum of a graph")
    spectrum.add_argument("input", help="edge-list file or - for stdin")
    spectrum.add_argument(
        "--method", choices=["oracle", "constructive", "both"], default="oracle"
    )
    spectrum.add_argument("--witnesses", action="store_true")
    spectrum.add_argument("--cap", type=int, default=None)
    spectrum.set_defaults(func=cmd_spectrum)

    cls = sub.add_parser("classify", help="classify a graph")
    cls.add_argument("input", help="edge-list file or - for stdin")
    cls.add_argument("--cap", type=int, default=None)
    cls.set_defaults(func=cmd_classify)

    ver = sub.add_parser("verify", help="run the acceptance criteria")
    ver.add_argument(
        "--suite", choices=sorted(verify_mod.SUITES), default="all"
    )
    ver.add_argument("--max-n", type=int, default=None)
    ver.add_argument("--out-dir", default=".", help="where to write counterexamples")
    ver.set_defaults(func=cmd_verify)

    exp = sub.add_parser("export", help="convert an edge list to DOT")
    exp.add_argument("input", help="edge-list file or - for stdin")
    exp.add_argument("--format", choices=["dot", "edges"], default="dot")
    exp.set_defaults(func=cmd_export)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OracleCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ORACLE_CAP
    except UnclassifiableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNCLASSIFIABLE
    except FalsificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FALSIFIED
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
