"""Per-layer metrics of a traced run.

Times come from the spans the benchmark recorded around public entry
points; counts come from the public ``stats()`` reports and from the
``stats`` attributes of the generators, evaluators and engines that ran a
wrapped call.  Layers that run inside pool workers (``core``, ``query``,
``engine`` on the pool backend) or inside the gateway's asyncio handlers
are out of reach from outside and read zero there; their parent-side
spans and ``stats()`` counters are reported instead.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List

from perfbench.measure import percentile
from perfbench.spans import Installed, Span, busy_time, layer_self_times, self_times

#: name -> unit of every per-layer metric, in report order.
UNITS: Dict[str, str] = {
    "core.busy_s": "s",
    "core.calls": "count",
    "core.state_visits": "count",
    "core.intersections": "count",
    "core.states_created": "count",
    "core.edges_added": "count",
    "core.edges_removed": "count",
    "core.frames_appended": "count",
    "core.max_live_states": "count",
    "core.result_yield": "ratio",
    "query.busy_s": "s",
    "query.calls": "count",
    "query.states_evaluated": "count",
    "query.matches_produced": "count",
    "query.match_yield": "ratio",
    "engine.self_s": "s",
    "engine.frames": "count",
    "router.self_s": "s",
    "router.shards": "count",
    "shard.batches": "count",
    "shard.reordered": "count",
    "shard.dropped_late": "count",
    "shard.max_queue_depth": "count",
    "pool.dispatch_s": "s",
    "pool.barrier_wait_s": "s",
    "pool.ops_dispatched": "count",
    "pool.frames_dispatched": "count",
    "pool.checkpoints_taken": "count",
    "pool.restarts": "count",
    "pool.worker_skew": "ratio",
    "checkpoint.encode_s": "s",
    "checkpoint.decode_s": "s",
    "checkpoint.state_export_s": "s",
    "checkpoint.bytes": "bytes",
    "session.self_s": "s",
    "dispatch.calls": "count",
    "dispatch.queue_wait_s": "s",
    "dispatch.run_s": "s",
    "serve.post_frames_p50_ms": "ms",
    "serve.post_frames_p99_ms": "ms",
    "serve.poll_p50_ms": "ms",
    "serve.pump_sweeps": "count",
    "serve.sweep_period_ms": "ms",
    "serve.matches_per_sweep": "count",
    "serve.throttled": "count",
    "serve.lagged": "count",
    "serve.errors": "count",
    "trace.overhead_ratio": "ratio",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _durations_ms(spans: List[Span], name: str) -> List[float]:
    return [(s.end - s.start) * 1000.0 for s in spans if s.name == name]


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _p(values: List[float], fraction: float) -> float:
    return percentile(values, fraction) if values else 0.0


def per_layer(installed: Installed, outcome, untraced_frames_per_s: float) -> Dict[str, float]:
    """Every metric of :data:`UNITS` for a run of one traced pass.

    Checkpoint metrics are per call over every checkpoint and restore of
    the run; the others take only spans that start inside the timed section,
    so set-up and state replays stay out.
    """
    everything = installed.recorder.spans
    result = outcome.passes[0]
    begin, end = result.timed
    spans = [s for s in everything if begin <= s.start <= end]
    count = Counter(s.name for s in spans)
    layer_self = layer_self_times(spans)
    own = self_times(everything)

    generator_stats = [g.stats for g in installed.generators.values()]
    visits = sum(s.state_visits for s in generator_stats)
    evaluator_stats = [e.stats for e in installed.evaluators.values()]
    evaluated = sum(s.states_evaluated for s in evaluator_stats)
    matches = sum(s.matches_produced for s in evaluator_stats)

    backend = result.backend_stats or {}
    shards = list(backend.get("per_shard", {}).values())
    pool = backend.get("pool", {})
    loads = [w["frames"] for w in pool.get("worker_loads", [])]
    gateway = result.gateway or {}
    sweeps = gateway.get("pump_sweeps", 0)

    metrics = {
        "core.busy_s": busy_time(spans, ["core.process_frame"]),
        "core.calls": count["core.process_frame"],
        "core.state_visits": visits,
        "core.intersections": sum(s.intersections for s in generator_stats),
        "core.states_created": sum(s.states_created for s in generator_stats),
        "core.edges_added": sum(s.edges_added for s in generator_stats),
        "core.edges_removed": sum(s.edges_removed for s in generator_stats),
        "core.frames_appended": sum(s.frames_appended for s in generator_stats),
        "core.max_live_states": max((s.max_live_states for s in generator_stats), default=0),
        "core.result_yield": _ratio(
            sum(s.result_states_emitted for s in generator_stats), visits
        ),
        "query.busy_s": busy_time(spans, ["query.evaluate_result_set"]),
        "query.calls": count["query.evaluate_result_set"],
        "query.states_evaluated": evaluated,
        "query.matches_produced": matches,
        "query.match_yield": _ratio(matches, evaluated),
        "engine.self_s": layer_self.get("engine", 0.0),
        "engine.frames": sum(e.frames_processed for e in installed.engines.values()),
        "router.self_s": layer_self.get("router", 0.0),
        "router.shards": backend.get("shards", 0),
        "shard.batches": sum(s["batches"] for s in shards),
        "shard.reordered": sum(s["reordered"] for s in shards),
        "shard.dropped_late": sum(s["dropped_late"] for s in shards),
        "shard.max_queue_depth": max((s["max_queue_depth"] for s in shards), default=0),
        "pool.dispatch_s": busy_time(spans, ["pool.route", "pool.route_many"]),
        "pool.barrier_wait_s": busy_time(spans, ["pool.flush", "pool.drain_matches"]),
        "pool.ops_dispatched": pool.get("ops_dispatched", 0),
        "pool.frames_dispatched": pool.get("frames_dispatched", 0),
        "pool.checkpoints_taken": pool.get("checkpoints_taken", 0),
        "pool.restarts": pool.get("restarts", 0),
        "pool.worker_skew": _ratio(max(loads), sum(loads) / len(loads)) if loads else 0.0,
        "checkpoint.encode_s": _mean(_durations_ms(everything, "checkpoint.encode")) / 1000.0,
        "checkpoint.decode_s": _mean(_durations_ms(everything, "checkpoint.decode")) / 1000.0,
        "checkpoint.state_export_s": _mean(
            [own[s.span_id] for s in everything if s.name == "checkpoint.export"]
        ),
        "checkpoint.bytes": outcome.checkpoint_bytes,
        "session.self_s": layer_self.get("session", 0.0),
        "dispatch.calls": len(installed.dispatch),
        "dispatch.queue_wait_s": sum(wait for wait, _ in installed.dispatch),
        "dispatch.run_s": sum(run for _, run in installed.dispatch),
        "serve.post_frames_p50_ms": _p(_durations_ms(spans, "serve.post_frames"), 0.50),
        "serve.post_frames_p99_ms": _p(_durations_ms(spans, "serve.post_frames"), 0.99),
        "serve.poll_p50_ms": _p(_durations_ms(spans, "serve.poll_matches"), 0.50),
        "serve.pump_sweeps": sweeps,
        "serve.sweep_period_ms": _ratio(result.wall_s * 1000.0, sweeps),
        "serve.matches_per_sweep": _ratio(gateway.get("matches_delivered", 0), sweeps),
        "serve.throttled": gateway.get("throttled", 0),
        "serve.lagged": result.lagged,
        "serve.errors": gateway.get("errors", 0),
        "trace.overhead_ratio": _ratio(result.frames / result.wall_s, untraced_frames_per_s),
    }
    return metrics
