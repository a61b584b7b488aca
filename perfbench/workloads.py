"""The three benchmark workloads.

Each workload makes its inputs (from the seed, where it takes one; never
timed), sets the program up several times (``setup_s`` is the fastest), and
then runs several closed-loop timed passes over the same inputs, each on a
freshly set up program.  The passes do the same work, so each timed piece
of it -- a segment of the input between two drains, one match's latency, a
gateway pass -- is taken at its fastest pass (:func:`best_of`,
:func:`best_latencies`): the machine's speed swings for seconds at a time,
and a piece that ran slow in one pass ran at full speed in another.  After
the last pass it times checkpoint and restore of the final state.  The
delivered matches are checked against an independent reference outside the
timed sections.

* ``dense-scene`` -- registry scenes D2 and M2 at scale 1.0 as two camera
  streams under 50 random CNF queries at w=300, d=240 (the paper's
  Figure-10 setup) on an inline SSG session.  About 10k live states per
  window, so MCOS generation (``core``) is nearly all of the time and the
  window state is large enough that checkpoint and restore are bound by the
  codec.  No router, pool or HTTP.  It runs on request but is not among the
  workloads of ``BENCHMARK.json``: its tail latency is made of full garbage
  collections (90 to 200 ms each, on nine frames), whose length follows the
  shared host's speed, and its 99th percentile spread by 0.2 to 0.3 of its
  median across ten runs, beyond any bound a regression check could use.
* ``fleet-queries`` -- 8 simulated feeds with small windows and 24 queries
  through the sharded router with out-of-order arrival: MCOS is cheap per
  frame, so CNF evaluation (``query``) and the router's reorder buffers and
  batching carry a large share.
* ``gateway-pool`` -- two tenants over HTTP against a gateway backed by a
  two-worker pool: the only workload with HTTP, the dispatcher thread, the
  pump sweeps, the process boundary and worker checkpoints on the result
  path.

What the seed picks: the arrival order of ``fleet-queries`` and the feeds
of ``gateway-pool``.  Query workloads and the fleet's feeds are fixed (see
:data:`QUERY_SEED`), and so is the scene of ``dense-scene``, the
registry's own: between scene seeds the live-state counts, and with them
the cost per frame, swing by more than 2x, so ``dense-scene`` does not
depend on the seed at all.
"""

from __future__ import annotations

import gc
import hashlib
import os
import pickle
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from perfbench.measure import PeakRSS

#: Set-ups timed besides the one of each pass, in even chunks before the
#: first pass and after every pass.  The machine's speed swings from one
#: second to the next, by up to 2x for these millisecond-long set-ups, and
#: often stays low for a whole chunk: the median of a run follows the mix
#: of swings it met, the fastest set-up does not.
SETUP_REPS = 40
#: Wall time for the checkpoint and for the restore repetitions after the
#: last pass (at least one of each) in the traced run.  The end-to-end run
#: makes one of each, for its check: they are not among its metrics.
CHECKPOINT_BUDGET_S = 1.0
#: Set-up repetitions and checkpoint budget of the smoke size.
SMOKE_SETUP_REPS = 1
SMOKE_BUDGET_S = 0.05
#: Seed of every query workload and of the fleet's feeds.  Which frames
#: match decides the match volume, and with it the evaluation, HTTP and
#: pump load: a few random CNF queries swing it by 7x between seeds (0.35
#: to 2.6 matches per frame on ``gateway-pool``), and on ``dense-scene`` 50
#: of them still moved the 99th-percentile match latency from 83 to 230 ms
#: across ten seeds.
QUERY_SEED = 7


@dataclass
class Pass:
    """What one timed pass measured and delivered."""

    frames: int = 0
    wall_s: float = 0.0
    #: perf_counter() bounds of the timed section.
    timed: Tuple[float, float] = (0.0, 0.0)
    #: (frames, seconds) of each piece of the timed section, in order: the
    #: stretch between two drains, or the whole pass on ``gateway-pool``.
    segments: List[Tuple[int, float]] = field(default_factory=list)
    #: Match latencies in seconds, keyed like ``delivered`` (on
    #: ``gateway-pool`` by tenant, query and stream), in delivery order.
    latencies: Dict[Tuple, List[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Operations completed: ingest calls and drains, or HTTP requests.
    requests: int = 0
    peak_rss_mb: float = 0.0
    rss_samples: int = 0
    #: (query index, stream) -> fingerprints of the delivered matches, in
    #: delivery order; on ``gateway-pool``, tenant name -> (error, the
    #: canonical rendering of its delivered events).
    delivered: Dict = field(default_factory=dict)
    #: The backend's ``stats()`` report after the timed section.
    backend_stats: Optional[Dict] = None
    #: Gateway counters (``/v1/stats``) after the timed section.
    gateway: Optional[Dict] = None
    lagged: int = 0


@dataclass
class Outcome:
    """Every pass of one run, plus what the run measured around them."""

    passes: List[Pass] = field(default_factory=list)
    setup_s: List[float] = field(default_factory=list)
    checkpoint_s: List[float] = field(default_factory=list)
    restore_s: List[float] = field(default_factory=list)
    checkpoint_bytes: int = 0
    #: Correctness failures found while running (e.g. re-checkpoint bytes).
    mismatches: List[str] = field(default_factory=list)
    #: Largest live-state count of any engine, where the stats reach it.
    max_live_states: Optional[int] = None


def best_of(passes: Sequence[Pass]) -> Tuple[int, float]:
    """Frames and seconds of the timed work, each segment at its fastest pass.

    Segments are compared position by position while every pass has one
    with the same frame count; a pass cut short by its deadline ends the
    comparison there.
    """
    frames, seconds = 0, 0.0
    for parts in zip(*(p.segments for p in passes)):
        if len({count for count, _ in parts}) != 1:
            break
        frames += parts[0][0]
        seconds += min(taken for _, taken in parts)
    return frames, seconds


def best_latencies(passes: Sequence[Pass]) -> List[float]:
    """Each match's latency at its fastest pass.

    Matches line up across passes by key and position in delivery order:
    every pass delivers the same sequence per key (the check says so).
    """
    keys = set.intersection(*(set(p.latencies) for p in passes))
    return [
        min(samples)
        for key in sorted(keys, key=str)
        for samples in zip(*(p.latencies[key] for p in passes))
    ]


def distinct(queries: Sequence, count: int) -> List:
    """The first ``count`` structurally distinct queries (a session refuses
    a duplicate registration)."""
    seen, kept = set(), []
    for query in queries:
        canonical = query.canonical()
        if canonical not in seen:
            seen.add(canonical)
            kept.append(query)
        if len(kept) == count:
            break
    return kept


def _timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def _repeat(op, samples: List[float], budget: float, release=None):
    """Time ``op`` until ``budget`` seconds of wall time are spent (at least
    once); returns its last value.

    Garbage of earlier steps is collected once, up front: collecting before
    every call would hand memory back to the allocator and make each call
    pay to fault it in again.
    """
    gc.collect()
    value = None
    began = time.perf_counter()
    while value is None or time.perf_counter() - began < budget:
        if value is not None and release is not None:
            release(value)
        value, seconds = _timed(op)
        samples.append(seconds)
    return value


def _checkpoint_restore(session, outcome: Outcome, budget: float) -> None:
    """Time ``checkpoint()`` and ``restore()`` of the final state, and check
    that the restored session re-checkpoints to the same bytes."""
    from repro.session import Session

    blob = _repeat(session.checkpoint, outcome.checkpoint_s, budget)
    outcome.checkpoint_bytes = len(blob)
    restored = _repeat(
        lambda: Session.restore(blob), outcome.restore_s, budget,
        release=lambda r: r.close(),
    )
    if restored.checkpoint() != blob:
        outcome.mismatches.append("the restored session re-checkpoints to other bytes")
    restored.close()


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Where references that depend only on the sources are kept.
REFERENCES = os.path.join(ROOT, "perfbench", "results", "references")


def _sources_digest() -> str:
    """SHA-256 over the path and bytes of every file of the program and of
    the benchmark (caches and results left out)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for folder, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(d for d in dirs if d not in ("__pycache__", "results"))
            for name in sorted(files):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def _register(session, queries) -> List:
    return [session.register(query) for query in queries]


def _max_live_states(inline_stats: Dict) -> int:
    return max(
        engine["generator"]["max_live_states"]
        for engine in inline_stats["per_engine"].values()
    )


def out_of_order_share(events) -> float:
    """Share of events that arrive after a later frame of their stream."""
    highest: Dict[str, int] = {}
    late = 0
    for stream_id, frame in events:
        top = highest.get(stream_id)
        if top is not None and frame.frame_id < top:
            late += 1
        else:
            highest[stream_id] = frame.frame_id
    return late / len(events) if events else 0.0


def _fingerprint(delivered: Dict, index: int, matches) -> None:
    """Append each match's hash under (query index, stream).

    A hash covers every compared field of a match.  Keeping ints instead
    of the matches keeps a few hundred thousand objects out of the heap the
    collector scans while the program runs.
    """
    for match in matches:
        delivered.setdefault((index, match.stream_id), []).append(hash(match))


def _compare(expected: Dict, observed: Dict, ordered: bool = True) -> List[str]:
    """Differences per (query, stream); unordered compares the multisets."""
    problems = []
    for key in sorted(set(expected) | set(observed), key=str):
        want, got = expected.get(key, []), observed.get(key, [])
        if not ordered:
            want, got = sorted(want), sorted(got)
        if want != got:
            position = next(
                (i for i, (a, b) in enumerate(zip(want, got)) if a != b),
                min(len(want), len(got)),
            )
            problems.append(
                f"query/stream {key}: {len(got)} matches delivered, "
                f"{len(want)} expected; first difference at match {position}"
            )
    return problems


class Workload:
    """The run loop shared by the workloads; subclasses supply the steps."""

    name = ""
    why = ""
    #: Timed passes of a ``--trace 0`` run; the metrics take each piece of
    #: the work at its fastest pass.
    passes = 3

    def prepare(self, seed: int, smoke: bool) -> Dict:
        """The inputs, made from ``seed`` (never timed)."""
        raise NotImplementedError

    def build(self, inputs: Dict):
        """Set the program up (timed as ``setup_s``)."""
        raise NotImplementedError

    def drive(self, target, inputs: Dict, deadline: float, result: Pass) -> None:
        """The timed section: feed the inputs, collect the matches."""
        raise NotImplementedError

    def finish(self, target, inputs: Dict, outcome: Outcome, result: Pass,
               budget: Optional[float]) -> None:
        """After the timed section: read stats; unless ``budget`` is None,
        time checkpoint and restore of the final state."""
        raise NotImplementedError

    def close(self, target) -> None:
        target[0].close()

    def check(self, inputs: Dict, outcome: Outcome) -> List[str]:
        """Every pass against the reference; an empty list when correct."""
        raise NotImplementedError

    def _set_up_and_close(self, inputs: Dict, count: int, outcome: Outcome) -> None:
        gc.collect()
        for _ in range(count):
            target, seconds_taken = _timed(lambda: self.build(inputs))
            outcome.setup_s.append(seconds_taken)
            self.close(target)

    def run(self, inputs: Dict, seconds: float, passes: int,
            checkpoint_budget: float = CHECKPOINT_BUDGET_S) -> Outcome:
        """Set up, then ``passes`` timed passes of at most ``seconds`` each."""
        outcome = Outcome()
        smoke = inputs["smoke"]
        chunk = max(1, (SMOKE_SETUP_REPS if smoke else SETUP_REPS) // (passes + 1))
        self._set_up_and_close(inputs, chunk, outcome)
        budget = SMOKE_BUDGET_S if smoke else checkpoint_budget
        for number in range(passes):
            # The results of earlier passes stay alive.  Frozen, they are
            # out of the collector's counts, so its full collections, and
            # the pauses they cost, fall on the same frames in every pass.
            gc.collect()
            gc.freeze()
            target, seconds_taken = _timed(lambda: self.build(inputs))
            outcome.setup_s.append(seconds_taken)
            result = Pass()
            try:
                gc.collect()
                with PeakRSS() as rss:
                    start = time.perf_counter()
                    self.drive(target, inputs, start + seconds, result)
                    result.timed = (start, time.perf_counter())
                result.wall_s = result.timed[1] - start
                result.peak_rss_mb, result.rss_samples = rss.peak_mb, rss.samples
                self.finish(target, inputs, outcome, result,
                            budget if number == passes - 1 else None)
            finally:
                self.close(target)
                # Unreferenced, the closed program is collected before the
                # next freeze instead of frozen with the results.
                del target
            outcome.passes.append(result)
            self._set_up_and_close(inputs, chunk, outcome)
        return outcome


def _collect(handles, stamps, result: Pass) -> None:
    """Take every handle's new matches: latency samples and fingerprints."""
    fresh = [handle.take_matches() for handle in handles]
    now = time.perf_counter()
    for index, matches in enumerate(fresh):
        for match in matches:
            result.latencies.setdefault((index, match.stream_id), []).append(
                now - stamps[(match.stream_id, match.frame_id)]
            )
        _fingerprint(result.delivered, index, matches)


class _SessionWorkload(Workload):
    """A workload driving one in-process session, checked per pass against
    a reference session fed the same frames."""

    #: Whether the reference must deliver each (query, stream)'s matches in
    #: the same order, or only the same multiset.
    ordered = True

    def finish(self, target, inputs, outcome, result, budget) -> None:
        session, _ = target
        result.backend_stats = session.stats()["backend_stats"]
        if budget is not None:
            _checkpoint_restore(session, outcome, budget)

    def make_reference(self, inputs: Dict, frames: int) -> Dict:
        """What a reference session delivers for the first ``frames``
        events: ``{"matches": [each handle's matches], "max_live_states":
        n or None}``."""
        raise NotImplementedError

    def reference(self, inputs: Dict, frames: int, outcome: Outcome) -> Dict:
        """Fingerprints of the reference's matches.

        A reference takes as long as a timed pass.  Over all the events,
        what it delivers depends only on the sources (the seed picks no
        more than the arrival order, which the references ignore), so it is
        kept under ``perfbench/results/references`` by the digest of every
        source file, and made again when one changes.
        """
        if frames != len(inputs["events"]):
            made = self.make_reference(inputs, frames)
        else:
            size = "smoke" if inputs["smoke"] else "full"
            path = os.path.join(REFERENCES, f"{self.name}-{size}-{_sources_digest()}.pickle")
            try:
                with open(path, "rb") as handle:
                    made = pickle.load(handle)
            except FileNotFoundError:
                made = self.make_reference(inputs, frames)
                os.makedirs(REFERENCES, exist_ok=True)
                with open(path + ".part", "wb") as handle:
                    pickle.dump(made, handle)
                os.replace(path + ".part", path)
        if made["max_live_states"] is not None:
            outcome.max_live_states = made["max_live_states"]
        expected: Dict = {}
        for index, matches in enumerate(made["matches"]):
            _fingerprint(expected, index, matches)
        return expected

    def check(self, inputs: Dict, outcome: Outcome) -> List[str]:
        problems = list(outcome.mismatches)
        expected: Dict[int, Dict] = {}
        for number, result in enumerate(outcome.passes):
            if result.frames not in expected:
                expected[result.frames] = self.reference(inputs, result.frames, outcome)
            problems += [
                f"pass {number}: {problem}"
                for problem in _compare(expected[result.frames], result.delivered, self.ordered)
            ]
        return problems


# ----------------------------------------------------------------------
# dense-scene
# ----------------------------------------------------------------------
class DenseScene(_SessionWorkload):
    name = "dense-scene"
    why = (
        "registry scenes D2+M2 at scale 1.0, 50 CNF queries at w=300 d=240 on an "
        "inline SSG session: ~10k live states, MCOS-bound, large window state"
    )
    #: Result sets do not depend on the MCOS method, but the order of the
    #: states within one frame's result set does; every match carries its
    #: frame id, so comparing multisets compares per-frame result sets.
    ordered = False

    def prepare(self, seed: int, smoke: bool) -> Dict:
        from repro.datasets import load_relation
        from repro.workloads.generator import random_cnf_workload
        from repro.workloads.streams import interleave_feeds

        # The smoke size shrinks the window with the scene, so it still matches.
        scale, count, group = (0.05, 10, (40, 24)) if smoke else (1.0, 50, (300, 240))
        feeds = {
            "cam-D2": load_relation("D2", scale),
            "cam-M2": load_relation("M2", scale),
        }
        candidates = random_cnf_workload(
            2 * count, window=group[0], duration=group[1], seed=QUERY_SEED
        ).queries
        return {
            "events": list(interleave_feeds(feeds)),
            "queries": distinct(candidates, count),
            "groups": [group],
            "smoke": smoke,
        }

    def build(self, inputs: Dict):
        from repro.session import Session

        session = Session("inline", method="SSG")
        return session, _register(session, inputs["queries"])

    def drive(self, target, inputs, deadline, result) -> None:
        """Per frame, one segment: ingest, drain, take every handle's matches."""
        session, handles = target
        stamps: Dict[Tuple[str, int], float] = {}
        for stream_id, frame in inputs["events"]:
            began = time.perf_counter()
            if began >= deadline:
                break
            stamps[(stream_id, frame.frame_id)] = began
            session.ingest(stream_id, frame)
            session.drain()
            result.frames += 1
            result.attempted += 2
            _collect(handles, stamps, result)
            result.segments.append((1, time.perf_counter() - began))
        result.requests = result.attempted

    def finish(self, target, inputs, outcome, result, budget) -> None:
        super().finish(target, inputs, outcome, result, budget)
        outcome.max_live_states = _max_live_states(result.backend_stats)

    def make_reference(self, inputs: Dict, frames: int) -> Dict:
        """The same frames through ``method="NAIVE"``."""
        from repro.session import Session

        reference = Session("inline", method="NAIVE")
        try:
            handles = _register(reference, inputs["queries"])
            for stream_id, frame in inputs["events"][:frames]:
                reference.ingest(stream_id, frame)
            reference.drain()
            return {"matches": [h.take_matches() for h in handles], "max_live_states": None}
        finally:
            reference.close()


# ----------------------------------------------------------------------
# fleet-queries
# ----------------------------------------------------------------------
class FleetQueries(_SessionWorkload):
    name = "fleet-queries"
    why = (
        "8 feeds x 2000 frames, 24 queries over windows (24,16) (36,24) (48,32), "
        "jitter 4 into a router session: evaluation- and router-heavy"
    )
    drain_every = 64
    passes = 8

    def prepare(self, seed: int, smoke: bool) -> Dict:
        from repro.workloads.streams import bench_scenario, interleave_feeds

        feeds_n, frames = (2, 150) if smoke else (8, 2000)
        groups = [(24, 16), (36, 24), (48, 32)]
        feeds, queries = bench_scenario(feeds_n, frames, groups, 8, seed=QUERY_SEED)
        return {
            "events": list(interleave_feeds(feeds, jitter=4, seed=seed)),
            "ordered": list(interleave_feeds(feeds)),
            "queries": distinct(queries, len(queries)),
            "groups": groups,
            "smoke": smoke,
        }

    def build(self, inputs: Dict):
        from repro.session import Session

        session = Session("router", method="SSG", watermark=4)
        return session, _register(session, inputs["queries"])

    def drive(self, target, inputs, deadline, result) -> None:
        """Ingest every event; drain and take matches every 64 events, and
        once more after the final flush.  Each drain ends a segment."""
        session, handles = target
        stamps: Dict[Tuple[str, int], float] = {}
        began = time.perf_counter()
        for stream_id, frame in inputs["events"]:
            now = time.perf_counter()
            if now >= deadline:
                break
            stamps[(stream_id, frame.frame_id)] = now
            session.ingest(stream_id, frame)
            result.frames += 1
            result.attempted += 1
            if result.frames % self.drain_every == 0:
                session.drain()
                result.attempted += 1
                _collect(handles, stamps, result)
                now = time.perf_counter()
                result.segments.append((self.drain_every, now - began))
                began = now
        session.flush()
        session.drain()
        result.attempted += 1
        _collect(handles, stamps, result)
        result.segments.append((result.frames % self.drain_every,
                                time.perf_counter() - began))

    def finish(self, target, inputs, outcome, result, budget) -> None:
        super().finish(target, inputs, outcome, result, budget)
        # A frame dropped as late is a failed operation.
        result.failed = result.backend_stats["totals"]["dropped_late"]
        result.requests = result.attempted - result.failed

    def make_reference(self, inputs: Dict, frames: int) -> Dict:
        """An inline session fed the same frames without jitter."""
        from repro.session import Session

        ingested = {(s, f.frame_id) for s, f in inputs["events"][:frames]}
        reference = Session("inline", method="SSG")
        try:
            handles = _register(reference, inputs["queries"])
            for stream_id, frame in inputs["ordered"]:
                if (stream_id, frame.frame_id) in ingested:
                    reference.ingest(stream_id, frame)
            reference.drain()
            return {
                "matches": [h.take_matches() for h in handles],
                # The reference runs the same engines in order, so its
                # generator counters stand in for the router's, which
                # stats() does not expose.
                "max_live_states": _max_live_states(reference.stats()["backend_stats"]),
            }
        finally:
            reference.close()


# ----------------------------------------------------------------------
# gateway-pool
# ----------------------------------------------------------------------
ADMIN_KEY = "perfbench-admin"


def _keyed_result(base, name: str):
    """A ``TenantResult`` that also keeps each latency under its (query,
    stream), so passes line up match by match."""

    class KeyedResult(base):
        def __init__(self, name: str):
            super().__init__(name)
            self.keyed: Dict[Tuple[int, str], List[float]] = {}

        def record_matches(self, local_qid, events, posted_at, now) -> None:
            super().record_matches(local_qid, events, posted_at, now)
            for event in events:
                stamp = posted_at.get((event["stream"], event["frame_id"]))
                if stamp is not None:
                    self.keyed.setdefault((local_qid, event["stream"]), []).append(
                        now - stamp
                    )

    return KeyedResult(name)


class GatewayPool(Workload):
    name = "gateway-pool"
    why = (
        "2 tenants x 2 feeds x 4 queries over HTTP, one keep-alive client thread "
        "each, against a gateway on a 2-worker pool: HTTP, dispatch, pump, IPC"
    )
    #: Frames per feed; a pass then lasts about 6 s on a 2-CPU machine.
    frames_per_feed = 3000
    passes = 5

    def prepare(self, seed: int, smoke: bool) -> Dict:
        from repro.serve.loadgen import seeded_tenants

        frames = 60 if smoke else self.frames_per_feed
        shape = {"feeds_per_tenant": 2, "queries_per_tenant": 4}
        tenants = seeded_tenants(2, seed=seed, frames_per_feed=frames, **shape)
        fixed = seeded_tenants(2, seed=QUERY_SEED, frames_per_feed=1, **shape)
        for tenant, queries in zip(tenants, fixed):
            tenant.queries = queries.queries
        return {
            "tenants": tenants,
            "events": [
                (f"{t.name}/{stream_id}", frame)
                for t in tenants for stream_id, frame in t.events
            ],
            "queries": [q for t in tenants for q in t.queries],
            "groups": sorted({(q.window, q.duration) for t in tenants for q in t.queries}),
            "smoke": smoke,
        }

    def build(self, inputs: Dict):
        from repro.serve.gateway import Gateway, GatewayRunner

        gateway = Gateway(
            [t.config() for t in inputs["tenants"]], admin_key=ADMIN_KEY,
            backend="pool", num_sessions=1, session_kwargs={"num_workers": 2},
        )
        return (GatewayRunner(gateway).start(),)

    def drive(self, target, inputs, deadline, result) -> None:
        """One ``drive_tenant`` thread per tenant.  The inputs are sized to
        the time, since a tenant thread cannot be stopped midway."""
        from repro.serve.loadgen import TenantResult, canonical, drive_tenant

        runner = target[0]
        tenants = inputs["tenants"]
        results = [_keyed_result(TenantResult, t.name) for t in tenants]
        threads = [
            threading.Thread(
                target=drive_tenant,
                args=(tenant, runner.host, runner.port, tenant_result),
                name=f"perfbench-{tenant.name}",
            )
            for tenant, tenant_result in zip(tenants, results)
        ]
        began = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=150)
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("a tenant thread did not finish within 150 s")
        errored = sum(1 for r in results if r.error is not None)
        throttled = sum(r.batches_throttled for r in results)
        result.requests = sum(r.requests for r in results)
        # A throttled (429) batch and an aborted tenant are failed requests.
        result.attempted = result.requests + throttled + errored
        result.failed = throttled + errored
        result.frames = sum(r.frames_posted for r in results)
        # Both tenants run at once, so the pass is one segment.
        result.segments = [(result.frames, time.perf_counter() - began)]
        result.latencies = {
            (t.name,) + key: samples
            for t, r in zip(tenants, results) for key, samples in r.keyed.items()
        }
        result.lagged = sum(r.lagged for r in results)
        # The canonical rendering is all the check needs; the events
        # themselves would crowd the heap (and every forked worker) in the
        # passes that follow.
        result.delivered = {
            t.name: (r.error, canonical(r.delivered)) for t, r in zip(tenants, results)
        }

    def finish(self, target, inputs, outcome, result, budget) -> None:
        from repro.serve.client import GatewayClient

        runner = target[0]
        with GatewayClient(runner.host, runner.port, ADMIN_KEY) as admin:
            stats = admin.stats().payload
        result.gateway = stats["gateway"]
        result.backend_stats = stats["sessions"]["0"]["stats"]["backend_stats"]
        runner.close()
        if budget is not None:
            self._state_checkpoint(inputs, outcome, budget)

    @staticmethod
    def _state_checkpoint(inputs: Dict, outcome: Outcome, budget: float) -> None:
        """Checkpoint and restore of the state the gateway served.

        The gateway has no checkpoint endpoint, so the same tenant-scoped
        streams and the distinct union of the tenants' queries are replayed
        into a pool session of the same shape, outside the timed section.
        """
        from repro.session import Session

        session = Session("pool", num_workers=2, restrict_labels=False)
        try:
            handles = _register(session, distinct(inputs["queries"], len(inputs["queries"])))
            for stream_id, frame in inputs["events"]:
                session.ingest(stream_id, frame)
            session.flush()
            session.drain()
            # Delivered, as the gateway's pump would have taken them.
            for handle in handles:
                handle.take_matches()
            _checkpoint_restore(session, outcome, budget)
        finally:
            session.close()

    def check(self, inputs: Dict, outcome: Outcome) -> List[str]:
        """Every tenant's delivered events equal a direct-session replay."""
        from repro.serve.loadgen import canonical, direct_oracle

        problems = list(outcome.mismatches)
        for tenant in inputs["tenants"]:
            expected = canonical(direct_oracle(tenant))
            for number, result in enumerate(outcome.passes):
                error, delivered = result.delivered[tenant.name]
                if error is not None:
                    problems.append(f"pass {number}: {tenant.name}: {error!r}")
                elif delivered != expected:
                    problems.append(
                        f"pass {number}: {tenant.name}: delivered matches differ "
                        "from the oracle"
                    )
        return problems


WORKLOADS = {w.name: w for w in (DenseScene(), FleetQueries(), GatewayPool())}
