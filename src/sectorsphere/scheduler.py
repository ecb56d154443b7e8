"""Segment-to-worker scheduling.

Assignment policy, in priority order: workers prefer segments whose file
has a replica on their own node; two segments of one file do not run
concurrently unless the only alternative is an idle worker; no worker
idles while an assignable segment is pending, except that a worker with
nothing local waits rather than take a segment that an idle worker on
one of its replica nodes may take. Retried segments carry an excluded
node so the second attempt lands on a different machine.

Every decision is captured in an event log with a snapshot of the state
it was made against, so schedules (live or simulated) can be validated
after the fact.
"""

from __future__ import annotations

import heapq
import threading
import time
from collections import Counter
from dataclasses import dataclass


@dataclass
class SpeHandle:
    """One processing element: a (node, slot) pair executing one segment at a time."""
    node: str
    slot: int = 0
    state: str = "idle"
    current: int | None = None

    @property
    def key(self) -> tuple[str, int]:
        return (self.node, self.slot)


@dataclass
class SegmentTask:
    segment: object  # needs .ordinal, .file, .locations
    attempts: int = 0
    excluded: str | None = None


@dataclass
class ScheduleEvent:
    kind: str  # assign | complete | fail
    time: float
    spe_node: str
    spe_slot: int
    ordinal: int
    file: str
    local: bool = False
    exception: bool = False  # same-file rule yielded to work conservation
    pending: tuple = ()      # (ordinal, file, locations, excluded) incl. the chosen one
    running_files: tuple = ()


class Scheduler:
    def __init__(self, segments, spes, now=time.monotonic):
        self._pending: list[SegmentTask] = [SegmentTask(s) for s in segments]
        self._spes = list(spes)
        self._single_node = len({s.node for s in spes}) <= 1
        self._now = now
        self._running: dict[tuple, SegmentTask] = {}
        self._running_files: Counter = Counter()
        self._outstanding = len(self._pending)
        self._failures: list[dict] = []
        self.events: list[ScheduleEvent] = []
        self._cond = threading.Condition()

    # -------------------------------------------------------------- picking

    def _allowed(self, task: SegmentTask, spe: SpeHandle) -> bool:
        return self._single_node or task.excluded != spe.node

    def _pick(self, spe: SpeHandle) -> SegmentTask | None:
        allowed = [t for t in self._pending if self._allowed(t, spe)]
        if not allowed:
            return None
        permitted = [t for t in allowed if not self._running_files[t.segment.file]]
        pool = permitted or allowed
        local = [t for t in pool if spe.node in t.segment.locations]
        if local:
            choice = local[0]
        else:
            # nothing local here: leave a segment to an idle worker on one
            # of its replica nodes that may run it in place, and wait if
            # every segment has such a worker
            idle = [s for s in self._spes if s is not spe and s.key not in self._running]
            unclaimed = [t for t in pool if not any(
                s.node in t.segment.locations and self._allowed(t, s) for s in idle)]
            if not unclaimed:
                return None
            choice = unclaimed[0]
        self._record_assign(spe, choice, exception=not permitted)
        self._pending.remove(choice)
        self._running[spe.key] = choice
        self._running_files[choice.segment.file] += 1
        spe.state = "busy"
        spe.current = choice.segment.ordinal
        choice.attempts += 1
        # a worker waiting on this one's idleness may now take what is left
        self._cond.notify_all()
        return choice

    def _record_assign(self, spe: SpeHandle, task: SegmentTask, exception: bool) -> None:
        snapshot = tuple((t.segment.ordinal, t.segment.file,
                          tuple(t.segment.locations), t.excluded)
                         for t in self._pending)
        running = tuple(f for f, n in self._running_files.items() if n > 0)
        self.events.append(ScheduleEvent(
            kind="assign", time=self._now(),
            spe_node=spe.node, spe_slot=spe.slot,
            ordinal=task.segment.ordinal, file=task.segment.file,
            local=spe.node in task.segment.locations,
            exception=exception, pending=snapshot, running_files=running))

    # ------------------------------------------------------------- blocking

    def next_for(self, spe: SpeHandle) -> SegmentTask | None:
        """Block until a segment is assignable to this worker, or all work is done."""
        with self._cond:
            while True:
                if self._outstanding == 0:
                    return None
                task = self._pick(spe)
                if task is not None:
                    return task
                self._cond.wait(timeout=0.5)

    def try_next(self, spe: SpeHandle) -> SegmentTask | None:
        with self._cond:
            if self._outstanding == 0:
                return None
            return self._pick(spe)

    def _finish(self, spe: SpeHandle, task: SegmentTask, kind: str) -> None:
        self._running.pop(spe.key, None)
        self._running_files[task.segment.file] -= 1
        spe.state = "idle"
        spe.current = None
        self.events.append(ScheduleEvent(
            kind=kind, time=self._now(), spe_node=spe.node, spe_slot=spe.slot,
            ordinal=task.segment.ordinal, file=task.segment.file))

    def complete(self, spe: SpeHandle, task: SegmentTask) -> None:
        with self._cond:
            self._finish(spe, task, "complete")
            self._outstanding -= 1
            self._cond.notify_all()

    def fail(self, spe: SpeHandle, task: SegmentTask, error: str) -> bool:
        """Record a failed attempt. Returns True if the segment will be retried."""
        with self._cond:
            self._finish(spe, task, "fail")
            if task.attempts >= 2:
                self._failures.append({"ordinal": task.segment.ordinal,
                                       "file": task.segment.file,
                                       "error": error, "node": spe.node})
                self._outstanding -= 1
                self._cond.notify_all()
                return False
            task.excluded = spe.node
            self._pending.append(task)
            self._cond.notify_all()
            return True

    @property
    def failures(self) -> list[dict]:
        with self._cond:
            return list(self._failures)


# ------------------------------------------------------------------ validate

def validate_schedule(events, spes) -> list[str]:
    """Check a schedule log against the three assignment rules.

    Replays the log, cross-checks each assign snapshot, and returns a list
    of violation descriptions (empty when the schedule is clean).
    """
    violations = []
    nodes = {s.node for s in spes}
    single_node = len(nodes) <= 1
    running_files: Counter = Counter()
    busy: dict[tuple, int] = {}

    for i, ev in enumerate(events):
        key = (ev.spe_node, ev.spe_slot)
        if ev.kind == "assign":
            replay = tuple(f for f, n in running_files.items() if n > 0)
            if set(replay) != set(ev.running_files):
                violations.append("event %d: snapshot disagrees with replay" % i)
            if key in busy:
                violations.append("event %d: SPE %s assigned while busy" % (i, key))
            chosen = next((t for t in ev.pending if t[0] == ev.ordinal), None)
            if chosen is None:
                violations.append("event %d: assigned segment missing from snapshot" % i)
            elif chosen[3] == ev.spe_node and not single_node:
                violations.append(
                    "event %d: segment %d reassigned to excluded node %s"
                    % (i, ev.ordinal, ev.spe_node))
            pending = [t for t in ev.pending
                       if single_node or t[3] != ev.spe_node]
            permitted = [t for t in pending if t[1] not in ev.running_files]
            pool = permitted or pending
            if ev.file in ev.running_files and permitted:
                violations.append(
                    "event %d: segment %d runs file %r concurrently without need"
                    % (i, ev.ordinal, ev.file))
            if not ev.local:
                local_available = [t for t in pool if ev.spe_node in t[2]]
                if local_available:
                    violations.append(
                        "event %d: SPE on %s took remote segment %d while local %s pending"
                        % (i, ev.spe_node, ev.ordinal,
                           [t[0] for t in local_available]))
            running_files[ev.file] += 1
            busy[key] = ev.ordinal
        else:
            running_files[ev.file] -= 1
            busy.pop(key, None)
    return violations


def check_work_conservation(events, spes, segments) -> list[str]:
    """Strict work-conservation check for simulated (virtual-time) schedules:
    at every settled instant, no worker may sit idle while a segment it is
    allowed to take is pending."""
    violations = []
    spes = list(spes)
    single_node = len({s.node for s in spes}) <= 1
    idle = {s.key for s in spes}
    pending = {s.ordinal: (s.ordinal, s.file, tuple(s.locations), None)
               for s in segments}

    def settled(when):
        for spe in spes:
            if spe.key not in idle:
                continue
            takeable = [t for t in pending.values()
                        if single_node or t[3] != spe.node]
            if takeable:
                violations.append(
                    "at t=%.3f worker %s idles with assignable segments %s"
                    % (when, spe.key, sorted(t[0] for t in takeable)))

    for i, ev in enumerate(events):
        key = (ev.spe_node, ev.spe_slot)
        if ev.kind == "assign":
            pending.pop(ev.ordinal, None)
            idle.discard(key)
        else:
            idle.add(key)
            if ev.kind == "fail":
                pending[ev.ordinal] = (ev.ordinal, ev.file, (), ev.spe_node)
        # a burst of same-time events settles when the timestamp changes
        if i + 1 == len(events) or events[i + 1].time > ev.time:
            settled(ev.time)
    return violations


# ------------------------------------------------------------------ simulate

def simulate_schedule(segments, spes, duration_fn, seed_events=None):
    """Run the scheduling policy under virtual time; returns the event log.

    duration_fn(segment, spe) gives each execution's virtual duration.
    """
    clock = {"now": 0.0}
    sched = Scheduler(segments, spes, now=lambda: clock["now"])
    heap: list[tuple[float, int, SpeHandle, SegmentTask]] = []
    counter = 0

    def feed(spe):
        nonlocal counter
        task = sched.try_next(spe)
        if task is None:
            return False
        counter += 1
        heapq.heappush(heap, (clock["now"] + duration_fn(task.segment, spe),
                              counter, spe, task))
        return True

    def settle():
        # a worker that waited for an idle one may take work once that one
        # is busy, so offer work until a pass over the idle workers assigns none
        assigned = True
        while assigned:
            assigned = False
            for idle_spe in [s for s in spes if s.state == "idle"]:
                assigned = feed(idle_spe) or assigned

    settle()
    while heap:
        finish, _, spe, task = heapq.heappop(heap)
        clock["now"] = finish
        sched.complete(spe, task)
        settle()
    return sched.events
