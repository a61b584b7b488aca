"""Best-of-passes arithmetic and the reference kept between runs."""

from dataclasses import dataclass

import pytest

from perfbench import workloads
from perfbench.workloads import Outcome, Pass, best_latencies, best_of


def test_each_segment_counts_at_its_fastest_pass():
    passes = [
        Pass(segments=[(64, 1.0), (64, 3.0), (10, 0.5)]),
        Pass(segments=[(64, 2.0), (64, 1.5), (10, 0.25)]),
    ]
    assert best_of(passes) == (138, pytest.approx(2.75))


def test_segments_are_compared_only_while_every_pass_has_the_same_one():
    passes = [
        Pass(segments=[(64, 1.0), (64, 1.0), (64, 1.0)]),
        Pass(segments=[(64, 0.5), (20, 0.1)]),  # cut short by its deadline
    ]
    assert best_of(passes) == (64, pytest.approx(0.5))


def test_latencies_line_up_by_key_and_position():
    passes = [
        Pass(latencies={(0, "a"): [0.3, 0.1], (1, "a"): [0.2]}),
        Pass(latencies={(0, "a"): [0.1, 0.4, 0.9], (2, "b"): [0.1]}),
    ]
    # (0, "a") is delivered by both (its third match by one only); the
    # other keys by one pass each.
    assert sorted(best_latencies(passes)) == pytest.approx([0.1, 0.1])


@dataclass(frozen=True)
class FakeMatch:
    stream_id: str
    frame_id: int


class FakeWorkload(workloads._SessionWorkload):
    name = "fake"

    def __init__(self):
        self.made = 0

    def make_reference(self, inputs, frames):
        self.made += 1
        matches = [FakeMatch(stream, frame) for stream, frame in inputs["events"][:frames]]
        return {"matches": [matches], "max_live_states": 5}


def test_a_reference_over_all_events_is_made_once_and_kept(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "REFERENCES", str(tmp_path))
    workload = FakeWorkload()
    inputs = {"events": [("a", 1), ("b", 1), ("a", 2)], "smoke": True}
    first = workload.reference(inputs, 3, Outcome())
    outcome = Outcome()
    again = workload.reference(inputs, 3, outcome)
    assert workload.made == 1 and len(list(tmp_path.iterdir())) == 1
    assert first == again == {(0, "a"): [hash(FakeMatch("a", 1)), hash(FakeMatch("a", 2))],
                              (0, "b"): [hash(FakeMatch("b", 1))]}
    assert outcome.max_live_states == 5
    # A pass cut short is checked against a reference made for its frames.
    assert workload.reference(inputs, 2, Outcome()) == {
        (0, "a"): [hash(FakeMatch("a", 1))], (0, "b"): [hash(FakeMatch("b", 1))]}
    assert workload.made == 2
