"""Span recording for the traced run, and the self-time arithmetic.

The recorder wraps public entry points of the program from the outside
(:func:`install`); nothing inside ``repro`` is edited.  Each call into a
wrapped function becomes one :class:`Span` with its name, start, end,
parent span, thread and trace id.  The trace id is the id of the outermost
span of the calling chain, carried across threads where the benchmark can
see the hand-off (the session dispatcher).  Spans stay in memory until
:meth:`SpanRecorder.write` dumps them at the end of a run.

Pool worker processes and the gateway's asyncio handlers are out of reach
from outside: only parent-side spans (the pool's route/flush/drain calls,
the dispatcher hand-off, the HTTP client calls) are recorded for them.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple


class Span(NamedTuple):
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int
    trace: int


class _Open:
    """An open span on some thread's stack."""

    __slots__ = ("span_id", "trace")

    def __init__(self, span_id: int, trace: int):
        self.span_id = span_id
        self.trace = trace


class SpanRecorder:
    """Collects spans from any thread; ``list.append`` keeps it lock-free."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[_Open]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[_Open]:
        """The innermost open span of the calling thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, parent: Optional[_Open] = None) -> Iterator[_Open]:
        """Record ``name`` around the body.  ``parent`` overrides the
        calling thread's innermost span (for work handed to another thread)."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span_id = next(self._ids)
        opened = _Open(span_id, parent.trace if parent is not None else span_id)
        stack.append(opened)
        start = time.perf_counter()
        try:
            yield opened
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(
                span_id, name, start, end,
                parent.span_id if parent is not None else None,
                threading.get_ident(), opened.trace,
            ))

    def write(self, path: str) -> None:
        """Dump every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span._asdict()) + "\n")


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def covered(interval: Tuple[float, float], children: Iterable[Tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``children``.

    Children are clipped to the interval first, so a child on another
    thread that outlives its parent only counts while the parent is open,
    and overlapping children count once.
    """
    lo, hi = interval
    clipped = sorted(
        (max(lo, start), min(hi, end))
        for start, end in children
        if min(hi, end) > max(lo, start)
    )
    total = 0.0
    run_start = run_end = None
    for start, end in clipped:
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.span_id: (span.end - span.start)
        - covered((span.start, span.end), children.get(span.span_id, ()))
        for span in spans
    }


#: Span name prefix -> layer.  A span belongs to the layer of its prefix.
LAYER_OF_PREFIX = {
    "session": "session",
    "checkpoint": "checkpoint",
    "router": "router",
    "shard": "router",
    "engine": "engine",
    "core": "core",
    "query": "query",
    "pool": "pool",
    "dispatch": "dispatch",
    "serve": "serve",
}


def layer_of(name: str) -> str:
    return LAYER_OF_PREFIX[name.split(".", 1)[0]]


def busy_time(spans: List[Span], names: Iterable[str]) -> float:
    """Summed duration of the named spans, counting nested ones once."""
    wanted = set(names)
    ids = {span.span_id for span in spans if span.name in wanted}
    return sum(
        span.end - span.start
        for span in spans
        if span.span_id in ids and span.parent not in ids
    )


def layer_self_times(spans: List[Span]) -> Dict[str, float]:
    """Layer -> summed self time of its spans."""
    own = self_times(spans)
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        totals[layer_of(span.name)] += own[span.span_id]
    return dict(totals)


# ----------------------------------------------------------------------
# Wrapping public entry points
# ----------------------------------------------------------------------
class Installed:
    """What :func:`install` patched, plus the objects it saw do work."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._undo: List[Callable[[], None]] = []
        #: id -> instance of every generator / evaluator / engine that ran
        #: a wrapped call, so their public ``stats`` can be summed later.
        self.generators: Dict[int, object] = {}
        self.evaluators: Dict[int, object] = {}
        self.engines: Dict[int, object] = {}
        #: (queue wait, run time) of every dispatched session operation.
        self.dispatch: List[Tuple[float, float]] = []

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()


def _patch(installed: Installed, owner, attr: str, wrapper) -> None:
    original = owner.__dict__[attr]
    setattr(owner, attr, wrapper)
    installed._undo.append(lambda: setattr(owner, attr, original))


def _wrap_method(installed: Installed, owner, attr: str, name: str,
                 seen: Optional[Dict[int, object]] = None) -> None:
    recorder = installed.recorder
    original = owner.__dict__[attr]

    def wrapper(self, *args, **kwargs):
        if seen is not None:
            seen[id(self)] = self
        with recorder.span(name):
            return original(self, *args, **kwargs)

    _patch(installed, owner, attr, wrapper)


def _wrap_function(installed: Installed, module, attr: str, name: str) -> None:
    recorder = installed.recorder
    original = getattr(module, attr)

    def wrapper(*args, **kwargs):
        with recorder.span(name):
            return original(*args, **kwargs)

    _patch(installed, module, attr, wrapper)


def install(recorder: SpanRecorder) -> Installed:
    """Wrap the program's public entry points; undo with ``uninstall()``."""
    from repro.core.base import MCOSGenerator
    from repro.engine.engine import TemporalVideoQueryEngine
    from repro.query.evaluator import QueryEvaluator
    from repro.serve.client import GatewayClient
    from repro.session import session as session_module
    from repro.session.dispatch import SessionDispatcher
    from repro.session.session import Session
    from repro.streaming.pool import ShardWorkerPool
    from repro.streaming.router import StreamRouter
    from repro.streaming.shard import StreamShard

    installed = Installed(recorder)
    for attr in ("ingest", "drain", "flush"):
        _wrap_method(installed, Session, attr, f"session.{attr}")
    _wrap_method(installed, Session, "checkpoint", "checkpoint.export")
    restore = Session.__dict__["restore"].__func__

    def restore_wrapper(cls, *args, **kwargs):
        with recorder.span("checkpoint.import"):
            return restore(cls, *args, **kwargs)

    _patch(installed, Session, "restore", classmethod(restore_wrapper))
    _wrap_function(installed, session_module, "to_bytes", "checkpoint.encode")
    _wrap_function(installed, session_module, "from_bytes", "checkpoint.decode")
    for attr in ("route", "flush", "drain_matches"):
        _wrap_method(installed, StreamRouter, attr, f"router.{attr}")
    for attr in ("offer", "flush"):
        _wrap_method(installed, StreamShard, attr, f"shard.{attr}")
    _wrap_method(installed, TemporalVideoQueryEngine, "process_frame",
                 "engine.process_frame", installed.engines)
    _wrap_method(installed, MCOSGenerator, "process_frame",
                 "core.process_frame", installed.generators)
    _wrap_method(installed, QueryEvaluator, "evaluate_result_set",
                 "query.evaluate_result_set", installed.evaluators)
    for attr in ("route", "route_many", "flush", "drain_matches"):
        _wrap_method(installed, ShardWorkerPool, attr, f"pool.{attr}")
    for attr in ("post_frames", "poll_matches"):
        _wrap_method(installed, GatewayClient, attr, f"serve.{attr}")

    submit = SessionDispatcher.__dict__["submit"]

    def submit_wrapper(self, fn):
        submitted = time.perf_counter()
        with recorder.span("dispatch.submit") as parent:
            def stamped(session):
                started = time.perf_counter()
                try:
                    with recorder.span("dispatch.run", parent=parent):
                        return fn(session)
                finally:
                    installed.dispatch.append(
                        (started - submitted, time.perf_counter() - started)
                    )

            return submit(self, stamped)

    _patch(installed, SessionDispatcher, "submit", submit_wrapper)
    return installed
