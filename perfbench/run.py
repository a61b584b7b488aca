"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload dense-scene --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped, over
several passes of the same work: each stretch between two drains and each
match's latency is taken at its fastest pass, since the shared machine's
speed swings for seconds at a time.
``--trace 1`` runs the workload once untraced and once with spans recorded
around the program's public entry points, and reports the per-layer
metrics plus the tracing overhead.  ``--size smoke`` shrinks every input to
a few seconds of work with the same correctness checks.

Every metric is printed by name with its unit (latencies with their sample
count), the full report is written under ``perfbench/results/``, and the
last line of standard output is one JSON object::

    {"correct": true, "attempted": n, "failed": n, "metrics": {name: {"value": v, "unit": u}}}

The exit code is 1 when a correctness check fails and 2 when the program
under test cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS = os.path.join(ROOT, "perfbench", "results")

#: name -> unit of every end-to-end metric, in report order.
#:
#: Checkpoint and restore of the final state are timed and printed too, but
#: are not end-to-end metrics: on ``fleet-queries`` and ``gateway-pool`` the
#: state is a few kilobytes, a call takes milliseconds, and on a shared
#: 2-CPU machine whose speed swings by up to 2x from second to second their
#: mean over a few seconds spread by 0.3 to 0.67 (quartile distance over
#: median) across seeds -- more than any bound a regression check could use.
#: Their per-layer split (``checkpoint.*``) is part of the traced run.
END_TO_END = {
    "frames_per_s": "frames/s",
    "match_latency_p50_ms": "ms",
    "match_latency_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "requests_per_s": "req/s",
    "success_ratio": "ratio",
}


def end_to_end(outcome) -> Dict[str, float]:
    """Rates over the timed work and latency percentiles over the matches,
    each piece at its fastest pass; the fastest set-up; and the memory peak
    of the first pass, before the results kept from each pass add to it."""
    from perfbench.measure import percentile
    from perfbench.workloads import best_latencies, best_of

    passes = outcome.passes
    frames, seconds = best_of(passes)
    latencies = best_latencies(passes) or [0.0]
    attempted = sum(p.attempted for p in passes)
    requests_per_frame = sum(p.requests for p in passes) / sum(p.frames for p in passes)
    return {
        "frames_per_s": frames / seconds,
        "match_latency_p50_ms": percentile(latencies, 0.50) * 1000.0,
        "match_latency_p99_ms": percentile(latencies, 0.99) * 1000.0,
        "setup_s": min(outcome.setup_s),
        "peak_rss_mb": passes[0].peak_rss_mb,
        "requests_per_s": requests_per_frame * frames / seconds,
        "success_ratio": (attempted - sum(p.failed for p in passes)) / attempted,
    }


def sample_counts(outcome) -> Dict[str, int]:
    """How many measurements each metric summarises, over all passes."""
    from perfbench.workloads import best_latencies

    passes = outcome.passes
    latencies = len(best_latencies(passes))
    return {
        "frames_per_s": sum(len(p.segments) for p in passes),
        "match_latency_p50_ms": latencies,
        "match_latency_p99_ms": latencies,
        "setup_s": len(outcome.setup_s),
        "peak_rss_mb": passes[0].rss_samples,
        "requests_per_s": sum(p.requests for p in passes),
        "success_ratio": sum(p.attempted for p in passes),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False, tamper=None) -> Dict:
    """Prepare, run and check one workload; returns its report.

    ``tamper`` is called on the outcome before the check (tests use it to
    show that an altered match makes the check fail).
    """
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[name]
    inputs = workload.prepare(seed, smoke)
    # The inputs live until the end; keep the collector from re-scanning
    # them on the program's time.
    gc.collect()
    gc.freeze()
    try:
        return _run_prepared(workload, inputs, seed, seconds, trace, smoke, tamper)
    finally:
        gc.unfreeze()


def _run_prepared(workload, inputs, seed, seconds, trace, smoke, tamper) -> Dict:
    from perfbench.measure import environment
    from perfbench.workloads import out_of_order_share

    name = workload.name
    report: Dict = {"workload": name, "seed": seed, "seconds": seconds,
                    "trace": int(trace), "smoke": smoke, "environment": environment()}
    if trace:
        from perfbench.layers import UNITS, per_layer
        from perfbench.spans import SpanRecorder, install

        # One pass each, so spans and stats() counters cover the same work.
        untraced = workload.run(inputs, seconds, passes=1).passes[0]
        recorder = SpanRecorder()
        installed = install(recorder)
        try:
            outcome = workload.run(inputs, seconds, passes=1)
        finally:
            installed.uninstall()
        values = per_layer(installed, outcome, untraced.frames / untraced.wall_s)
        metrics = {k: {"value": values[k], "unit": UNITS[k]} for k in UNITS}
        report["spans"] = len(recorder.spans)
        report["note"] = (
            "spans inside pool worker processes and the gateway's asyncio "
            "handlers are out of reach from outside: core, query and engine "
            "read zero on the pool backend, and pool, dispatch and serve are "
            "parent-side spans plus stats() counters"
        )
        report["_recorder"] = recorder
    else:
        outcome = workload.run(inputs, seconds, workload.passes, checkpoint_budget=0.0)
        values = end_to_end(outcome)
        counts = sample_counts(outcome)
        metrics = {
            k: {"value": values[k], "unit": END_TO_END[k], "samples": counts[k]}
            for k in END_TO_END
        }
        report["timed_only"] = {
            metric: {"value": sum(samples) / len(samples), "unit": "s",
                     "samples": len(samples)}
            for metric, samples in (("checkpoint_s", outcome.checkpoint_s),
                                    ("restore_s", outcome.restore_s))
        }
    if tamper is not None:
        tamper(outcome)
    problems = workload.check(inputs, outcome)
    first = outcome.passes[0]
    report.update({
        "correct": not problems,
        "problems": problems,
        "attempted": sum(p.attempted for p in outcome.passes),
        "failed": sum(p.failed for p in outcome.passes),
        "metrics": metrics,
        "raw": {"setup_s": outcome.setup_s, "checkpoint_s": outcome.checkpoint_s,
                "restore_s": outcome.restore_s,
                "pass_wall_s": [p.wall_s for p in outcome.passes]},
        "properties": {
            "streams": len({stream for stream, _ in inputs["events"]}),
            "frames": len(inputs["events"]),
            "frames_ingested": first.frames,
            "queries": len(inputs["queries"]),
            "window_groups": [list(g) for g in inputs["groups"]],
            "max_live_states": outcome.max_live_states,
            "matches_per_frame": (sum(len(v) for v in first.latencies.values())
                                  / max(1, first.frames)),
            "checkpoint_bytes": outcome.checkpoint_bytes,
            "out_of_order_share": out_of_order_share(inputs["events"]),
        },
    })
    return report


def _print_report(report: Dict) -> None:
    env = report["environment"]
    print(f"== {report['workload']} seed={report['seed']} trace={report['trace']} "
          f"cpus={env['cpus']} python={env['python']} ssg_kernel={env['ssg_kernel']}")
    for name, metric in report["metrics"].items():
        samples = f"  samples={metric['samples']}" if "samples" in metric else ""
        print(f"  {name:28s} {metric['value']:14.6g} {metric['unit']}{samples}")
    for name, metric in report.get("timed_only", {}).items():
        print(f"  {name:28s} {metric['value']:14.6g} {metric['unit']}"
              f"  samples={metric['samples']}  (not an end-to-end metric)")
    print("  properties " + json.dumps(report["properties"], sort_keys=True))
    print(f"  correct={report['correct']} attempted={report['attempted']} "
          f"failed={report['failed']}")
    if "note" in report:
        print(f"  note: {report['note']}")
    for problem in report["problems"][:20]:
        print(f"  MISMATCH {problem}")


def _save(report: Dict) -> None:
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(
        RESULTS, f"{report['workload']}-seed{report['seed']}-trace{report['trace']}"
    )
    recorder = report.pop("_recorder", None)
    if recorder is not None:
        recorder.write(stem + ".spans.jsonl")
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["dense-scene", "fleet-queries", "gateway-pool", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="cap on one timed pass")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "smoke"], default="full")
    args = parser.parse_args(argv)

    source = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(source, "repro", "__init__.py")):
        print(f"perfbench: the program is not in {source}", file=sys.stderr)
        return 2
    sys.path[:0] = [source, ROOT]
    from perfbench.workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    reports = []
    for name in names:
        report = run_workload(name, args.seed, args.seconds, bool(args.trace),
                              smoke=args.size == "smoke")
        _print_report(report)
        _save(report)
        reports.append(report)

    def key(report: Dict, metric: str) -> str:
        return metric if len(reports) == 1 else f"{report['workload']}/{metric}"

    correct = all(r["correct"] for r in reports)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": {
            key(r, m): {"value": v["value"], "unit": v["unit"]}
            for r in reports for m, v in r["metrics"].items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
