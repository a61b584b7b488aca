"""The benchmark itself, at smoke size: every workload end to end with its
correctness check, the traced run, and a check that can fail."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench.layers import UNITS
from perfbench.run import END_TO_END, ROOT, run_workload

WORKLOADS = ["dense-scene", "fleet-queries", "gateway-pool"]


@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_run_is_correct_and_reports_every_metric(name):
    report = run_workload(name, seed=3, seconds=60, trace=False, smoke=True)
    assert report["correct"], report["problems"]
    assert report["failed"] == 0 and report["attempted"] > 0
    assert list(report["metrics"]) == list(END_TO_END)
    values = {k: v["value"] for k, v in report["metrics"].items()}
    for metric in ("frames_per_s", "setup_s", "peak_rss_mb", "requests_per_s",
                   "match_latency_p50_ms"):
        assert values[metric] > 0, metric
    for timed in report["timed_only"].values():
        assert timed["value"] > 0 and timed["samples"] > 0
    assert values["success_ratio"] == 1.0
    assert report["properties"]["matches_per_frame"] > 0


def _alter_first_match(outcome):
    passes = outcome.passes
    key = sorted(passes[-1].delivered, key=str)[0]
    delivered = passes[-1].delivered[key]
    if isinstance(delivered, list):  # match fingerprints, in delivery order
        delivered[0] ^= 1
    else:  # a gateway tenant's (error, canonical events by query and stream)
        error, rendered = delivered
        events = json.loads(rendered)
        events[sorted(events)[0]][0]["frame_id"] += 1
        passes[-1].delivered[key] = (error, json.dumps(events, sort_keys=True))


@pytest.mark.parametrize("name", WORKLOADS)
def test_an_altered_match_fails_the_check(name):
    report = run_workload(name, seed=3, seconds=60, trace=False, smoke=True,
                          tamper=_alter_first_match)
    assert not report["correct"]
    assert report["problems"]


def test_traced_run_reports_layers_where_each_workload_puts_them():
    layers = {
        name: {k: v["value"] for k, v in run_workload(
            name, seed=3, seconds=60, trace=True, smoke=True)["metrics"].items()}
        for name in WORKLOADS
    }
    for values in layers.values():
        assert list(values) == list(UNITS)
        assert values["trace.overhead_ratio"] > 0
        assert values["session.self_s"] > 0
    for name in ("dense-scene", "fleet-queries"):
        values = layers[name]
        assert values["core.busy_s"] > 0 and values["query.busy_s"] > 0
        assert values["core.state_visits"] > 0 and values["engine.frames"] > 0
        assert values["checkpoint.encode_s"] > 0 and values["checkpoint.bytes"] > 0
        for metric in ("pool.dispatch_s", "pool.ops_dispatched", "dispatch.calls",
                       "dispatch.run_s", "serve.pump_sweeps", "serve.post_frames_p50_ms"):
            assert values[metric] == 0, (name, metric)
    assert layers["dense-scene"]["router.self_s"] == 0
    assert layers["fleet-queries"]["router.self_s"] > 0
    assert layers["fleet-queries"]["shard.reordered"] > 0
    gateway = layers["gateway-pool"]
    for metric in ("pool.dispatch_s", "pool.barrier_wait_s", "pool.ops_dispatched",
                   "pool.frames_dispatched", "pool.worker_skew", "dispatch.calls",
                   "dispatch.queue_wait_s", "dispatch.run_s", "serve.post_frames_p50_ms",
                   "serve.poll_p50_ms", "serve.pump_sweeps", "serve.sweep_period_ms"):
        assert gateway[metric] > 0, metric


def _checkout(tmp_path, with_program):
    root = tmp_path / "checkout"
    shutil.copytree(os.path.join(ROOT, "perfbench"), root / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), root)
    if with_program:
        shutil.copytree(os.path.join(ROOT, "src"), root / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return root


def _run_cli(root, *args):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=root, env=env,
        capture_output=True, text=True, timeout=170,
    )


def test_cli_prints_the_result_line_last(tmp_path):
    root = _checkout(tmp_path, with_program=True)
    done = _run_cli(root, "--workload", "dense-scene", "--seed", "2",
                    "--seconds", "10", "--trace", "0", "--size", "smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert set(result["metrics"]) == set(END_TO_END)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [m["name"] for m in spec["end_to_end"]] == list(END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(UNITS)
    # dense-scene runs on request only (see perfbench/workloads.py).
    assert [w["name"] for w in spec["workloads"]] == ["fleet-queries", "gateway-pool"]


def test_cli_fails_without_the_program(tmp_path):
    root = _checkout(tmp_path, with_program=False)
    done = _run_cli(root, "--workload", "dense-scene", "--seed", "1",
                    "--seconds", "10", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout.strip() == ""
