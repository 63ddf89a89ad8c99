"""A check that needs no wall clock.

    python3 perfbench/determinism.py [--seed 1] [--workload NAME ...]

For each workload, two traced runs of one seed must give identical call
counts per traced function (``planarity.lr_test`` is the networkx
planarity tests), the same ``classify.iso_attempts_per_query`` and the
same input and output digests; a run of the next seed must see different
inputs.  ``verify-suite`` has no seeded input, so only its repetition is
checked.  Exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from run import PLAN, run_child


def fingerprint(out: dict) -> dict:
    layers = out["layers"]
    queries = layers["classify_queries"]
    return {
        "calls": {name: row["calls"] for name, row in sorted(layers["functions"].items())},
        "iso_attempts_per_query": layers["iso_under_classify"] / queries if queries else 0.0,
        "inputs_sha256": out["inputs_sha256"],
        "output_sha256": out["output_sha256"],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", nargs="*", default=sorted(PLAN))
    args = parser.parse_args()
    ok = True
    for workload in args.workload:
        cfg = {
            "workload": workload,
            "mode": "trace",
            "budget_s": 1e9,
            "max_rounds": PLAN[workload]["trace_rounds"],
            "rss_rounds": PLAN[workload]["trace_rounds"],
        }
        deadline = time.monotonic() + 600
        first = fingerprint(run_child(dict(cfg, seed=args.seed), deadline))
        again = fingerprint(run_child(dict(cfg, seed=args.seed), deadline))
        report = {"workload": workload, "repeats": first == again, "counts": first["calls"]}
        if first != again:
            report["differences"] = {k: (first[k], again[k]) for k in first if first[k] != again[k]}
        if workload != "verify-suite":
            other = fingerprint(run_child(dict(cfg, seed=args.seed + 1), deadline))
            report["next_seed_changes_inputs"] = other["inputs_sha256"] != first["inputs_sha256"]
        ok = ok and report["repeats"] and report.get("next_seed_changes_inputs", True)
        print(json.dumps(report))
    print("deterministic" if ok else "NOT deterministic")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
