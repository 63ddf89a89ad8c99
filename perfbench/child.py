"""One fresh interpreter of a benchmark run; started only by run.py.

    python3 perfbench/child.py '{"workload": ..., "seed": ..., "mode": ...}'

Modes: ``setup`` measures set-up and stops; ``measure`` runs rounds until
the measured operation time (scaled, see below) reaches ``budget_s`` and
at least ``rss_rounds`` are done, or ``max_rounds`` are done; ``trace`` does the
same with every layer traced.  The last stdout line is a JSON summary.

In ``setup`` and ``measure`` a speedometer (speed.py) samples the host's
speed from the start, and the summary gives every time both as measured
and scaled to the reference speed.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"


def main() -> int:
    cfg = json.loads(sys.argv[1])
    speed = None
    if cfg["mode"] != "trace":
        import speed as speedometer

        speed = speedometer.Speedometer()
        speed.start()
    sys.path.insert(0, str(ROOT / "src"))
    import almostplanar  # noqa: F401  (import time is part of set-up)
    import tracer as tracing
    import workloads

    workload = workloads.WORKLOADS[cfg["workload"]]()
    tracer = None
    if cfg["mode"] == "trace":
        tracer = tracing.Tracer()
        tracer.install()
    traced_from = time.perf_counter()
    workload.setup()
    ready = time.perf_counter()
    summary: dict = {"setup_s": ready - STARTED - (speed.stolen if speed else 0.0)}
    if cfg["mode"] == "setup":
        speed.stop()
        summary["setup_scaled_s"] = summary["setup_s"] * speed.factor(STARTED, ready)
        summary["probe_median_us"] = 1e6 * statistics.median(speed.probes)
        print(json.dumps(summary))
        return 0
    if tracer is not None:
        tracer.active = False
    workload.prepare()

    rec = workloads.Recorder(tracer, speed)
    rounds: list[float] = []
    spans: list[tuple[float, float]] = []
    peak_rss_mb = None
    # The budget counts scaled time, so that a run does the same number of
    # rounds whether the host is fast or slow at the moment.
    measured = 0.0
    while len(rounds) < cfg["max_rounds"] and (
        measured < cfg["budget_s"] or len(rounds) < cfg["rss_rounds"]
    ):
        start = time.perf_counter()
        rounds.append(workload.run_round(rec, cfg["seed"], len(rounds)))
        spans.append((start, time.perf_counter()))
        measured += rounds[-1] * (speed.factor(*spans[-1]) if speed is not None else 1.0)
        if len(rounds) == cfg["rss_rounds"]:
            # Peak memory over a fixed amount of work, so that it does not
            # grow with the number of rounds a faster machine fits in.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    summary.update(
        rounds=rounds,
        records=rec.records,
        inputs_sha256=rec.inputs.hexdigest(),
        output_sha256=rec.outputs.hexdigest(),
        peak_rss_mb=peak_rss_mb,
    )
    if speed is not None:
        speed.stop()
        factor = speed.factor
        summary.update(
            setup_scaled_s=summary["setup_s"] * factor(STARTED, ready),
            rounds_scaled=[s * factor(*span) for s, span in zip(rounds, spans)],
            # An operation that never ran keeps its time of 0.
            records_scaled=[
                r[2] * factor(*span) if span is not None else r[2]
                for r, span in zip(rec.records, rec.intervals)
            ],
            probe_median_us=1e6 * statistics.median(speed.probes),
        )
    if tracer is not None:
        summary["layers"] = layer_summary(tracer, ready - traced_from + sum(rounds))
        tracer.write(OUT_DIR / f"spans-{cfg['workload']}.jsonl")
    print(json.dumps(summary))
    return 0


def layer_summary(tracer, traced_s: float) -> dict:
    """Per-layer counts and times from the spans of one traced child."""
    import tracer as tracing
    from almostplanar import planarity

    spans = tracer.spans
    by_name = tracing.aggregate(spans)
    layers = {"traced_s": traced_s, "functions": by_name}

    classify_spans = {i for i, s in enumerate(spans) if s[0] == "classify.classify" and s[4] != "setup"}
    iso_under_classify = sum(
        1 for s in spans if s[0] == "graph.isomorphism" and s[3] in classify_spans
    )
    layers["classify_queries"] = len(classify_spans)
    layers["iso_under_classify"] = iso_under_classify
    layers["iso_matches"] = tracer.iso_matches
    layers["spans"] = len(spans)
    layers["span_cost_s"] = tracing.span_cost()

    for key, cached in (
        ("planar_cache", getattr(planarity, "_planar_cached", None)),
        ("almost_cache", tracer.originals.get("planarity.is_almost_planar")),
    ):
        info = cached.cache_info() if hasattr(cached, "cache_info") else None
        layers[key] = info._asdict() if info is not None else None

    # The share of constructive_spectrum that is_k_connected takes on the
    # bicycle minors, and builder cost per vertex by n.
    totals: dict[str, float] = {}
    for name, start, end, _, op_id in spans:
        if op_id.startswith("minor/") and name in ("constructive.constructive_spectrum", "graph.is_k_connected"):
            totals[name] = totals.get(name, 0.0) + end - start
        elif op_id.startswith("builder/") and name.startswith("constructive.builders."):
            n = op_id.split("/")[1]
            totals[f"builders.{n}.s"] = totals.get(f"builders.{n}.s", 0.0) + end - start
            totals[f"builders.{n}.calls"] = totals.get(f"builders.{n}.calls", 0) + 1
    layers["op_totals"] = totals
    return layers


if __name__ == "__main__":
    sys.exit(main())
