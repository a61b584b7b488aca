"""Self-time arithmetic and span bookkeeping of the traced run."""

import threading

import pytest

from perfbench.spans import Span, SpanRecorder, covered, layer_self_times, self_times


def span(span_id, name, start, end, parent=None, thread=1):
    return Span(span_id, name, start, end, parent, thread, 1)


def test_nested_spans_subtract_only_direct_children():
    spans = [
        span(1, "session.ingest", 0.0, 10.0),
        span(2, "engine.process_frame", 1.0, 9.0, parent=1),
        span(3, "core.process_frame", 2.0, 6.0, parent=2),
        span(4, "query.evaluate_result_set", 6.0, 8.0, parent=2),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(4.0)
    assert own[4] == pytest.approx(2.0)
    layers = layer_self_times(spans)
    assert layers == pytest.approx(
        {"session": 2.0, "engine": 2.0, "core": 4.0, "query": 2.0}
    )


def test_overlapping_children_count_once():
    spans = [
        span(1, "session.drain", 0.0, 10.0),
        span(2, "pool.drain_matches", 1.0, 5.0, parent=1, thread=2),
        span(3, "pool.flush", 3.0, 7.0, parent=1, thread=3),
        span(4, "pool.flush", 8.0, 9.0, parent=1, thread=2),
    ]
    assert self_times(spans)[1] == pytest.approx(10.0 - 6.0 - 1.0)


def test_child_on_another_thread_is_clipped_to_its_parent():
    # A dispatched run starts on the worker thread while the submitting
    # span is still open and ends long after it closed.
    spans = [
        span(1, "dispatch.submit", 0.0, 2.0, thread=1),
        span(2, "dispatch.run", 1.5, 6.0, parent=1, thread=2),
        span(3, "session.ingest", 2.0, 5.0, parent=2, thread=2),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(1.5)
    assert own[2] == pytest.approx(1.5)
    assert own[3] == pytest.approx(3.0)


def test_covered_ignores_children_outside_the_interval():
    assert covered((0.0, 1.0), [(2.0, 3.0), (-2.0, -1.0)]) == 0.0
    assert covered((0.0, 4.0), [(-1.0, 1.0), (0.5, 2.0), (3.0, 9.0)]) == pytest.approx(3.0)


def test_recorder_links_parents_and_trace_ids_across_threads():
    recorder = SpanRecorder()
    with recorder.span("dispatch.submit") as outer:
        with recorder.span("session.ingest"):
            pass

        def work():
            with recorder.span("dispatch.run", parent=outer):
                with recorder.span("session.drain"):
                    pass

        thread = threading.Thread(target=work)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
    by_name = {s.name: s for s in recorder.spans}
    root = by_name["dispatch.submit"]
    assert root.parent is None and root.trace == root.span_id
    assert by_name["session.ingest"].parent == root.span_id
    assert by_name["dispatch.run"].parent == root.span_id
    assert by_name["dispatch.run"].thread != root.thread
    assert by_name["session.drain"].parent == by_name["dispatch.run"].span_id
    assert {s.trace for s in recorder.spans} == {root.span_id}
