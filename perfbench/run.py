"""Layered benchmark of the almostplanar package.

    python3 perfbench/run.py --workload classify-stream --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  Every measurement happens in fresh
child interpreters (perfbench/child.py), one at a time, so the load is
one single-threaded process and workloads never overlap:

* ``--trace 0``: four set-up-only children, then one measuring child that
  runs rounds until ``--seconds`` of scaled operation time is spent;
  verify-suite has three set-up-only children and two measuring children
  of one suite each.  ``setup_s`` is the median of the five set-ups.
  Prints the end-to-end metrics, with every time scaled to the reference
  host speed of speed.py.
* ``--trace 1``: a fixed number of rounds untraced, then the same rounds
  with every layer's public entry points traced.  Prints the per-layer
  metrics, including the tracing overhead estimated inside the traced
  child.

Metric names and units come from BENCHMARK.json.  The line before the
result line is a JSON detail record (machine, tail percentile, digests,
failures, absolute per-layer times).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

DEADLINE_S = 170
SETUP_SAMPLES = 5
# classify-stream and spectrum-scale run rounds until --seconds of scaled
# operation time is spent, in one measuring child; verify-suite runs
# exactly one suite in each fresh interpreter, as the CLI does, in two
# measuring children, because one suite has only ten operations.  A traced
# run does a fixed number of rounds so that its counts repeat exactly;
# peak_rss_mb is taken after that many rounds of an untraced run.
# tail_pct is the percentile reported as lat_tail_ms, fixed so that runs
# with more or fewer operations stay comparable.  It leaves at least ten
# samples beyond it in every run at the baseline's speed; classify-stream
# uses the 95th because its top 2% are isomorphism searches whose cost
# swings with the seeded relabelling.  verify-suite's 100 is the maximum.
PLAN = {
    "classify-stream": {"children": 1, "max_rounds": 10**6, "trace_rounds": 5, "tail_pct": 95},
    "verify-suite": {"children": 2, "max_rounds": 1, "trace_rounds": 1, "tail_pct": 100},
    "spectrum-scale": {"children": 1, "max_rounds": 10**6, "trace_rounds": 3, "tail_pct": 96},
}
LAYER_FUNCTIONS = (
    "graph.parse_edge_list",
    "graph.refinement_signature",
    "graph.isomorphism",
    "graph.is_k_connected",
    "planarity.is_planar",
    "planarity.is_almost_planar",
    "families.generate",
    "families.enumerate_b_minors",
    "classify.classify",
    "oracle.cycle_spectrum",
    "oracle.hamiltonian_connectivity",
    "oracle.validate_cycle",
    "constructive.constructive_spectrum",
    "constructive.builders",
)


class BenchError(Exception):
    pass


def machine() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        from importlib.metadata import version

        networkx = version("networkx")
    except Exception:  # the version is informational only
        networkx = "unknown"
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(), "networkx": networkx}


def run_child(cfg: dict, deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time limit reached before the run finished")
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(cfg)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {cfg['mode']} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"child {cfg['mode']} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(latencies: list[float], pct: float) -> tuple[float, float, int]:
    """The nearest-rank pct-th percentile, or the highest percentile with
    at least ten samples beyond it when pct has fewer.

    Returns (value, percentile, samples beyond).  With pct 100, or ten
    samples or fewer, where no such percentile exists, the maximum is
    returned.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if pct >= 100:
        return ordered[-1], 100.0, 0
    rank = min(n, max(1, math.ceil(pct / 100 * n)))
    if n - rank < 10:
        rank = max(1, n - 10) if n > 10 else n
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def measure(args, deadline: float) -> tuple[dict, dict]:
    plan = PLAN[args.workload]
    base = {"workload": args.workload, "seed": args.seed}
    measuring = plan["children"]
    children = [run_child(dict(base, mode="setup"), deadline) for _ in range(SETUP_SAMPLES - measuring)]
    cfg = dict(
        base,
        mode="measure",
        budget_s=args.seconds,
        max_rounds=plan["max_rounds"],
        rss_rounds=plan["trace_rounds"],
    )
    runs = [run_child(cfg, deadline) for _ in range(measuring)]
    children += runs
    # Every time below is scaled to the reference speed (speed.py); the
    # detail line keeps the times as measured.
    setups = [child["setup_scaled_s"] for child in children]
    rounds = [s for out in runs for s in out["rounds_scaled"]]
    spent = sum(rounds)
    records = [r for out in runs for r in out["records"]]
    # Latencies are taken per measuring child, then the median over the
    # children: pooling verify-suite's two suites would make the upper
    # median the fastest of their several mid-sized criteria.
    tails = [tail(out["records_scaled"], plan["tail_pct"]) for out in runs]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(rounds),
        "ops_per_s": len(records) / spent,
        # The upper median is one measured operation; averaging the middle
        # two would mix a 10 ms and a 300 ms criterion in verify-suite.
        "lat_p50_ms": 1000 * statistics.median(statistics.median_high(out["records_scaled"]) for out in runs),
        "lat_tail_ms": 1000 * statistics.median(value for value, _, _ in tails),
        "peak_rss_mb": statistics.median(out["peak_rss_mb"] for out in runs),
    }
    raw = [[r[2] for r in out["records"]] for out in runs]
    raw_rounds = [s for out in runs for s in out["rounds"]]
    detail = {
        "round_s": raw_rounds,
        "round_scaled_s": rounds,
        "measured_s": sum(raw_rounds),
        "setup_samples_s": [child["setup_s"] for child in children],
        "setup_scaled_samples_s": setups,
        "probe_median_us": [child["probe_median_us"] for child in children],
        "unscaled": {
            "lat_p50_ms": 1000 * statistics.median(statistics.median_high(lat) for lat in raw),
            "lat_tail_ms": 1000 * statistics.median(tail(lat, plan["tail_pct"])[0] for lat in raw),
        },
        "lat_tail": [
            {"percentile": pct, "samples_beyond": beyond, "samples": len(out["records"])}
            for (_, pct, beyond), out in zip(tails, runs)
        ],
        "output_sha256": runs[0]["output_sha256"],
        "inputs_sha256": runs[0]["inputs_sha256"],
    }
    if any(out["output_sha256"] != runs[0]["output_sha256"] for out in runs):
        records.append(("repeat", "repeat", 0.0, "measuring children of one seed gave different outputs"))
    return metrics, {"records": records, "detail": detail}


def trace(args, deadline: float, wanted: list[str]) -> tuple[dict, dict]:
    rounds = PLAN[args.workload]["trace_rounds"]
    cfg = {
        "workload": args.workload,
        "seed": args.seed,
        "budget_s": 1e9,
        "max_rounds": rounds,
        "rss_rounds": rounds,
    }
    plain = run_child(dict(cfg, mode="measure"), deadline)
    traced = run_child(dict(cfg, mode="trace"), deadline)
    layers = traced["layers"]
    traced_s = layers["traced_s"]
    funcs = layers["functions"]
    metrics: dict[str, float] = {}
    absolute: dict[str, dict] = {}
    for fn in LAYER_FUNCTIONS:
        rows = [row for name, row in funcs.items() if name == fn or name.startswith(fn + ".")]
        calls = sum(row["calls"] for row in rows)
        self_s = sum(row["self_s"] for row in rows)
        metrics[f"{fn}.calls"] = calls
        metrics[f"{fn}.self_share"] = self_s / traced_s
        absolute[fn] = {"calls": calls, "self_s": self_s, "total_s": sum(row["total_s"] for row in rows)}
    lr = funcs.get("planarity.lr_test", {"calls": 0, "self_s": 0.0})
    metrics["planarity.lr_tests"] = lr["calls"]
    metrics["planarity.lr_test.self_share"] = lr["self_s"] / traced_s
    absolute["planarity.lr_test"] = lr
    for key in ("planar_cache", "almost_cache"):
        info = layers[key] or {"hits": 0, "misses": 0, "currsize": 0}
        lookups = info["hits"] + info["misses"]
        metrics[f"planarity.{key}.hit_ratio"] = info["hits"] / lookups if lookups else 0.0
        metrics[f"planarity.{key}.entries"] = info["currsize"]
    iso_calls = metrics["graph.isomorphism.calls"]
    metrics["graph.isomorphism.match_ratio"] = layers["iso_matches"] / iso_calls if iso_calls else 0.0
    queries = layers["classify_queries"]
    metrics["classify.iso_attempts_per_query"] = layers["iso_under_classify"] / queries if queries else 0.0

    # Latency by operation kind comes from the untraced child, so tracing
    # cost does not distort it.
    plain_s = sum(plain["rounds"])
    by_kind: dict[str, list[float]] = {}
    for _, kind, seconds, _ in plain["records"]:
        by_kind.setdefault(kind, []).append(seconds)
    # The verify criteria are the ``verify.<criterion>.share`` names in
    # BENCHMARK.json; on verify-suite they must be exactly the criteria run.
    criteria = [
        m[len("verify.") : -len(".share")] for m in wanted if m.startswith("verify.") and m.endswith(".share")
    ]
    if args.workload == "verify-suite" and set(criteria) != set(by_kind):
        raise BenchError(
            f"verify criteria run {sorted(by_kind)} differ from BENCHMARK.json's {sorted(criteria)}"
        )
    for name in criteria:
        metrics[f"verify.{name}.share"] = sum(by_kind.get(name, [])) / plain_s
    totals = layers["op_totals"]
    spectrum_s = totals.get("constructive.constructive_spectrum", 0.0)
    metrics["constructive.constructive_spectrum.k_connected_share"] = (
        totals.get("graph.is_k_connected", 0.0) / spectrum_s if spectrum_s else 0.0
    )
    per_vertex = {}
    for n in (1000, 10000):
        calls = totals.get(f"builders.n{n}.calls", 0)
        per_vertex[n] = 1e6 * totals[f"builders.n{n}.s"] / (calls * n) if calls else 0.0
    metrics["constructive.builders.per_vertex_growth"] = (
        per_vertex[10000] / per_vertex[1000] if per_vertex[1000] else 0.0
    )
    # Spans times the per-span cost calibrated inside the traced child; the
    # difference between the two children's times would mostly be host drift.
    metrics["trace.overhead_s"] = layers["spans"] * layers["span_cost_s"]
    metrics["trace.traced_s"] = traced_s

    detail = {
        "trace_rounds": rounds,
        "untraced_s": plain_s,
        "traced_rounds_s": sum(traced["rounds"]),
        "per_function": absolute,
        "spans": layers["spans"],
        "span_cost_us": 1e6 * layers["span_cost_s"],
        # Per operation kind: a gate in classify-stream, a criterion in
        # verify-suite, oracle/builder/minor in spectrum-scale.
        "by_kind": {
            kind: {"ops": len(secs), "p50_ms": 1000 * statistics.median(secs), "total_s": sum(secs)}
            for kind, secs in sorted(by_kind.items())
        },
        "builders_us_per_vertex": {f"n{n}": v for n, v in per_vertex.items()},
        "caches": {key: layers[key] for key in ("planar_cache", "almost_cache")},
        "counts": {name: row["calls"] for name, row in sorted(funcs.items())},
        "output_sha256": plain["output_sha256"],
        "inputs_sha256": plain["inputs_sha256"],
    }
    records = plain["records"] + traced["records"]
    if traced["output_sha256"] != plain["output_sha256"]:
        records.append(("trace", "trace", 0.0, "traced outputs differ from untraced outputs"))
    return metrics, {"records": records, "detail": detail}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PLAN))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "almostplanar" / "__init__.py").is_file() or not spec_path.is_file():
        print("perfbench: run from a checkout holding src/almostplanar and BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    try:
        if args.trace:
            values, run = trace(args, deadline, [m["name"] for m in wanted])
        else:
            values, run = measure(args, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    records = run["records"]
    failures = [(op_id, error) for op_id, _, _, error in records if error is not None]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"perfbench: metrics not computed: {missing}", file=sys.stderr)
        return 1

    detail = dict(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        machine=machine(),
        failures=failures[:10],
        fail_ratio=len(failures) / len(records) if records else 1.0,
        **run["detail"],
    )
    print(json.dumps({"detail": detail}))
    result = {
        "correct": bool(records) and not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
