import random
import tracemalloc
from dataclasses import replace

import pytest

from sectorsphere.scheduler import (
    ScheduleEvent,
    Scheduler,
    SpeHandle,
    check_work_conservation,
    simulate_schedule,
    validate_schedule,
)
from sectorsphere.sphere import DataSegment


def make_segments(spec):
    """spec: list of (file, locations, count) -> DataSegments with ordinals."""
    segments = []
    for file, locations, count in spec:
        for _ in range(count):
            segments.append(DataSegment(file=file, offset=len(segments), rows=1,
                                        ordinal=len(segments),
                                        locations=tuple(locations)))
    return segments


def constant_duration(segment, spe):
    return 1.0


def assign(time, node, segment):
    return ScheduleEvent("assign", time, node, 0, segment.ordinal, segment.file,
                         local=node in segment.locations, locations=segment.locations)


def finish(time, node, segment, kind="complete"):
    return ScheduleEvent(kind, time, node, 0, segment.ordinal, segment.file)


def test_colocated_spes_get_their_local_files():
    segments = make_segments([("f1", ("nodeA",), 2), ("f2", ("nodeB",), 2)])
    spes = [SpeHandle("nodeA"), SpeHandle("nodeB")]
    events = simulate_schedule(segments, spes, constant_duration)
    assert validate_schedule(events, spes) == []
    for ev in events:
        if ev.kind == "assign":
            expected = "f1" if ev.spe_node == "nodeA" else "f2"
            assert ev.file == expected and ev.local


def test_single_file_uses_both_spes_despite_same_file_rule():
    segments = make_segments([("only", ("nodeA",), 4)])
    spes = [SpeHandle("nodeA"), SpeHandle("nodeB")]
    events = simulate_schedule(segments, spes, constant_duration)
    assert validate_schedule(events, spes) == []
    assert check_work_conservation(events, spes, segments) == []
    assert {ev.spe_node for ev in events if ev.kind == "assign"} == {"nodeA", "nodeB"}
    # the second concurrent assignment is the allowed exception
    assert any(ev.exception for ev in events if ev.kind == "assign")


def test_exception_only_when_no_other_file_pending():
    segments = make_segments([("a", ("n1",), 3), ("b", ("n2",), 3)])
    spes = [SpeHandle("n1"), SpeHandle("n2")]
    events = simulate_schedule(segments, spes, constant_duration)
    assert validate_schedule(events, spes) == []
    assert not any(ev.exception for ev in events)
    # an exception claimed while another file's segment is pending is flagged
    tampered = [replace(events[0], exception=True)] + events[1:]
    assert validate_schedule(tampered, spes) == [
        "event 0: segment 0 has a wrong exception flag"]


def random_instance(rng):
    nodes = ["node%d" % i for i in range(rng.randint(1, 4))]
    spec = []
    for f in range(rng.randint(1, 6)):
        k = rng.randint(1, len(nodes))
        locations = tuple(rng.sample(nodes, k))
        spec.append(("file%d" % f, locations, rng.randint(1, 5)))
    segments = make_segments(spec)
    spes = [SpeHandle(n, slot) for n in nodes
            for slot in range(rng.randint(1, 2))]
    return segments, spes


def test_randomized_schedules_pass_validator():
    rng = random.Random(77)
    for _ in range(100):
        segments, spes = random_instance(rng)
        durations = {}

        def duration(segment, spe):
            key = (segment.ordinal, spe.key)
            if key not in durations:
                durations[key] = rng.uniform(0.5, 3.0)
            return durations[key]

        events = simulate_schedule(segments, spes, duration)
        assert validate_schedule(events, spes) == []
        assert check_work_conservation(events, spes, segments) == []
        assigned = [ev.ordinal for ev in events if ev.kind == "assign"]
        assert sorted(assigned) == [s.ordinal for s in segments]


def test_validator_catches_bad_logs():
    segments = make_segments([("a", ("n1",), 2), ("b", ("n2",), 2)])
    spes = [SpeHandle("n1"), SpeHandle("n2")]
    events = simulate_schedule(segments, spes, constant_duration)
    assert validate_schedule(events, spes) == []
    # claim a remote assignment for a segment on the worker's own node
    tampered = [replace(events[0], local=False)] + events[1:]
    assert validate_schedule(tampered, spes) == ["event 0: segment 0 has a wrong local flag"]


A0, A1, B, C = make_segments([("a", ("n1", "n2"), 2), ("b", ("n2",), 1), ("c", ("n1",), 1)])


@pytest.mark.parametrize("log, violations", [
    ([assign(0, "n2", A1), assign(0, "n1", B), finish(1, "n2", A1), finish(1, "n1", B),
      assign(1, "n1", C), finish(2, "n1", C)],
     ["event 1: SPE on n1 took remote segment 2 while local [3] pending"]),
    ([assign(0, "n1", A0), assign(0, "n2", A1), finish(1, "n1", A0), finish(1, "n2", A1),
      assign(1, "n2", B), finish(2, "n2", B)],
     ["event 1: segment 1 runs file 'a' concurrently without need"]),
    ([assign(0, "n1", A0), finish(1, "n1", A0, "fail"), assign(1, "n1", A0),
      finish(2, "n1", A0)],
     ["event 2: segment 0 reassigned to excluded node n1"]),
    ([assign(0, "n1", B), finish(1, "n1", B)],
     ["event 0: SPE on n1 took remote segment 2 that idle [('n2', 0)] may run"]),
    # a worker on the node a retry excludes is no reason to wait
    ([assign(0, "n2", B), finish(1, "n2", B, "fail"), assign(1, "n1", B), finish(2, "n1", B)],
     []),
], ids=["locality", "same-file", "excluded-node", "wait", "wait-not-for-excluded"])
def test_validator_checks_each_rule_on_a_hand_written_log(log, violations):
    assert validate_schedule(log, [SpeHandle("n1"), SpeHandle("n2")]) == violations


def test_no_idle_violation_after_a_final_failure():
    segments = make_segments([("a", ("n1", "n2"), 1), ("b", ("n1", "n2"), 1)])
    spes = [SpeHandle("n1"), SpeHandle("n2")]
    clock = [0.0]
    sched = Scheduler(segments, spes, now=lambda: clock[0])
    first, other = sched.try_next(spes[0]), sched.try_next(spes[1])
    clock[0] = 1.0
    assert sched.fail(spes[0], first, "boom") is True
    assert sched.try_next(spes[0]) is None  # the retry excludes n1
    clock[0] = 2.0
    sched.complete(spes[1], other)
    assert sched.try_next(spes[1]) is first
    clock[0] = 3.0
    assert sched.fail(spes[1], first, "boom again") is False
    assert sched.try_next(spes[0]) is None
    assert validate_schedule(sched.events, spes) == []
    assert check_work_conservation(sched.events, spes, segments) == []


def test_schedule_log_memory_is_linear_in_segments():
    rng = random.Random(1)
    nodes = ["n%d" % i for i in range(8)]
    spec = [("f%d" % f, tuple(rng.sample(nodes, 2)), 10) for f in range(100)]
    segments = make_segments(spec)
    spes = [SpeHandle(n) for n in nodes]
    tracemalloc.start()
    try:
        events = simulate_schedule(segments, spes, constant_duration)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(events) == 2 * len(segments)
    # a copy of the pending queue in every event would take about 40 MiB
    assert peak < 2 * 1024 * 1024


def test_retry_excluded_node_respected():
    segments = make_segments([("a", ("n1", "n2"), 2)])
    spes = [SpeHandle("n1"), SpeHandle("n2")]
    sched = Scheduler(segments, spes)
    first = sched.try_next(spes[0])
    assert first is not None
    assert sched.fail(spes[0], first, "boom") is True  # will retry elsewhere
    retried = sched.try_next(spes[1])
    others = [sched.try_next(spes[1])]
    taken = [t for t in (retried, *others) if t]
    assert any(t.segment.ordinal == first.segment.ordinal and t.excluded == "n1"
               for t in taken)
    # and the excluded node never picks it back up while another node exists
    assert all(t.segment.ordinal != first.segment.ordinal
               for t in [sched.try_next(spes[0])] if t)


def test_second_failure_is_final():
    segments = make_segments([("a", ("n1",), 1)])
    spes = [SpeHandle("n1"), SpeHandle("n2")]
    sched = Scheduler(segments, spes)
    t1 = sched.try_next(spes[0])
    sched.fail(spes[0], t1, "first")
    t2 = sched.try_next(spes[1])
    assert t2.segment.ordinal == t1.segment.ordinal
    assert sched.fail(spes[1], t2, "second") is False
    assert len(sched.failures) == 1
    assert sched.next_for(spes[0]) is None  # job drains


def test_worker_without_local_work_leaves_local_segments_to_idle_peers():
    segments = make_segments([("b-local", ("nodeB",), 1), ("nowhere", (), 1)])
    spes = [SpeHandle("nodeA"), SpeHandle("nodeB")]
    events = simulate_schedule(segments, spes, constant_duration)
    assert validate_schedule(events, spes) == []
    who_ran = {ev.file: ev.spe_node for ev in events if ev.kind == "assign"}
    assert who_ran == {"b-local": "nodeB", "nowhere": "nodeA"}


def test_worker_waits_instead_of_taking_an_idle_peers_local_segment():
    segments = make_segments([("b-local", ("nodeB",), 2)])
    spes = [SpeHandle("nodeA"), SpeHandle("nodeB")]
    sched = Scheduler(segments, spes)
    # nodeB's worker is idle and may run both in place, so nodeA's waits
    assert sched.try_next(spes[0]) is None
    first = sched.try_next(spes[1])
    assert first.segment.ordinal == 0
    # with nodeB's worker busy, the rest goes to the worker that would idle
    second = sched.try_next(spes[0])
    assert second.segment.ordinal == 1
    events = sched.events
    assert [(ev.spe_node, ev.local) for ev in events] == [("nodeB", True), ("nodeA", False)]
    assert validate_schedule(events, spes) == []


def test_worker_takes_a_retry_that_its_idle_local_peer_is_excluded_from():
    segments = make_segments([("b-local", ("nodeB",), 1)])
    spes = [SpeHandle("nodeA"), SpeHandle("nodeB")]
    sched = Scheduler(segments, spes)
    task = sched.try_next(spes[1])
    assert sched.fail(spes[1], task, "boom") is True
    # nodeB's worker is idle but may not run the retry: waiting for it
    # would never end
    retried = sched.try_next(spes[0])
    assert retried is task and retried.excluded == "nodeB"


def test_waiting_schedules_stay_work_conserving():
    segments = make_segments([("b", ("nodeB",), 5), ("c", ("nodeC",), 1)])
    spes = [SpeHandle("nodeA"), SpeHandle("nodeB"), SpeHandle("nodeC")]
    events = simulate_schedule(segments, spes, constant_duration)
    assert validate_schedule(events, spes) == []
    assert check_work_conservation(events, spes, segments) == []
    first = [(ev.spe_node, ev.file) for ev in events if ev.kind == "assign" and ev.time == 0]
    assert ("nodeB", "b") in first and ("nodeC", "c") in first and len(first) == 3
