"""Segment-to-worker scheduling.

Assignment policy, in priority order: workers prefer segments whose file
has a replica on their own node; two segments of one file do not run
concurrently unless the only alternative is an idle worker; no worker
idles while an assignable segment is pending, except that a worker with
nothing local waits rather than take a segment that an idle worker on
one of its replica nodes may take. Retried segments carry an excluded
node so the second attempt lands on a different machine.

Every decision goes into an event log, one small event each; an assign
names its segment's replica nodes. Replaying the log rebuilds the state
each decision was made in, so schedules (live or simulated) can be
validated after the fact in memory linear in the number of segments.
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

    @property
    def key(self) -> tuple[str, int]:
        return (self.node, self.slot)


@dataclass
class SegmentTask:
    segment: object  # needs .ordinal, .file, .locations
    attempts: int = 0
    excluded: str | None = None


@dataclass(slots=True)
class ScheduleEvent:
    kind: str  # assign | complete | fail
    time: float
    spe_node: str
    spe_slot: int
    ordinal: int
    file: str
    local: bool = False
    exception: bool = False  # same-file rule yielded to work conservation
    locations: tuple = ()    # assign only: the segment's replica nodes


class Scheduler:
    def __init__(self, segments, spes, now=time.monotonic):
        self._pending: list[SegmentTask] = [SegmentTask(s) for s in segments]
        self._spes = list(spes)
        self._single_node = len({s.node for s in spes}) <= 1
        self._now = now
        self._running: set[tuple] = set()  # keys of the busy workers
        self._running_files: Counter = Counter()
        self._outstanding = len(self._pending)
        self._failures: list[dict] = []
        self.events: list[ScheduleEvent] = []
        self._cond = threading.Condition()

    # -------------------------------------------------------------- picking

    def idle(self) -> list[SpeHandle]:
        """The workers with no segment running, in the order they were given."""
        with self._cond:
            return [s for s in self._spes if s.key not in self._running]

    def _pick(self, spe: SpeHandle) -> SegmentTask | None:
        allowed = [t for t in self._pending if self._single_node or t.excluded != spe.node]
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
            idle = [s for s in self.idle() if s is not spe]
            unclaimed = [t for t in pool if not any(
                s.node in t.segment.locations and (self._single_node or t.excluded != s.node)
                for s in idle)]
            if not unclaimed:
                return None
            choice = unclaimed[0]
        self._record("assign", spe, choice, local=bool(local), exception=not permitted,
                     locations=choice.segment.locations)
        self._pending.remove(choice)
        self._running.add(spe.key)
        self._running_files[choice.segment.file] += 1
        choice.attempts += 1
        # a worker waiting on this one's idleness may now take what is left
        self._cond.notify_all()
        return choice

    def _record(self, kind: str, spe: SpeHandle, task: SegmentTask, **extra) -> None:
        self.events.append(ScheduleEvent(
            kind=kind, time=self._now(), spe_node=spe.node, spe_slot=spe.slot,
            ordinal=task.segment.ordinal, file=task.segment.file, **extra))

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
        self._running.discard(spe.key)
        self._running_files[task.segment.file] -= 1
        self._record(kind, spe, task)

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

def _replay(events, segments=()):
    """Rebuild the scheduler's state from its log: yield (event, pending,
    running_files, busy) before each event and (None, ...) after the last.
    pending maps ordinal -> (ordinal, file, locations, excluded); it starts
    with `segments` and every segment the log assigns, and a failed one
    returns, excluding its node, only if the log assigns it again."""
    known = {s.ordinal: (s.file, tuple(s.locations)) for s in segments}
    assigns_left: Counter = Counter()
    for ev in events:
        if ev.kind == "assign":
            known.setdefault(ev.ordinal, (ev.file, tuple(ev.locations)))
            assigns_left[ev.ordinal] += 1
    pending = {o: (o, f, locs, None) for o, (f, locs) in known.items()}
    running_files: Counter = Counter()
    busy: dict[tuple, int] = {}
    for ev in events:
        yield ev, pending, running_files, busy
        key = (ev.spe_node, ev.spe_slot)
        if ev.kind == "assign":
            pending.pop(ev.ordinal, None)
            assigns_left[ev.ordinal] -= 1
            running_files[ev.file] += 1
            busy[key] = ev.ordinal
            continue
        running_files[ev.file] -= 1
        busy.pop(key, None)
        if ev.kind == "fail" and assigns_left[ev.ordinal] > 0:
            pending[ev.ordinal] = (ev.ordinal, ev.file, known[ev.ordinal][1], ev.spe_node)
    yield None, pending, running_files, busy


def validate_schedule(events, spes) -> list[str]:
    """Check each decision of a schedule log against the state the replay
    rebuilds for it, by the rules above plus one segment per worker and
    only pending segments run. Returns the violations (empty if clean)."""
    violations = []
    spes = list(spes)
    single_node = len({s.node for s in spes}) <= 1
    for i, (ev, pending, running_files, busy) in enumerate(_replay(events)):
        if ev is None:
            break
        key = (ev.spe_node, ev.spe_slot)
        if ev.kind != "assign":
            if busy.get(key) != ev.ordinal:
                violations.append("event %d: SPE %s ends segment %d, which it does not run"
                                  % (i, key, ev.ordinal))
            continue
        if key in busy:
            violations.append("event %d: SPE %s assigned while busy" % (i, key))
        chosen = pending.get(ev.ordinal)
        if chosen is None:
            violations.append("event %d: segment %d assigned while not pending" % (i, ev.ordinal))
            continue
        if ev.local != (ev.spe_node in chosen[2]):
            violations.append("event %d: segment %d has a wrong local flag" % (i, ev.ordinal))
        if chosen[3] == ev.spe_node and not single_node:
            violations.append("event %d: segment %d reassigned to excluded node %s"
                              % (i, ev.ordinal, ev.spe_node))
            continue
        allowed = [t for t in pending.values() if single_node or t[3] != ev.spe_node]
        permitted = [t for t in allowed if not running_files[t[1]]]
        if running_files[ev.file] and permitted:
            violations.append("event %d: segment %d runs file %r concurrently without need"
                              % (i, ev.ordinal, ev.file))
        if ev.exception != (not permitted):
            violations.append("event %d: segment %d has a wrong exception flag" % (i, ev.ordinal))
        if ev.spe_node in chosen[2]:
            continue
        local = [t[0] for t in permitted or allowed if ev.spe_node in t[2]]
        if local:
            violations.append("event %d: SPE on %s took remote segment %d while local %s pending"
                              % (i, ev.spe_node, ev.ordinal, local))
        idle_there = [s.key for s in spes if s.key != key and s.key not in busy
                      and s.node in chosen[2] and (single_node or chosen[3] != s.node)]
        if idle_there:
            violations.append("event %d: SPE on %s took remote segment %d that idle %s may run"
                              % (i, ev.spe_node, ev.ordinal, idle_there))
    return violations


def check_work_conservation(events, spes, segments) -> list[str]:
    """Strict work-conservation check for simulated (virtual-time) schedules:
    at every settled instant, no worker may sit idle while a segment it is
    allowed to take is pending."""
    violations = []
    spes = list(spes)
    single_node = len({s.node for s in spes}) <= 1
    last = None
    for ev, pending, _, busy in _replay(events, segments):
        # a burst of same-time events settles when the timestamp changes
        if last is not None and (ev is None or ev.time > last.time):
            for spe in (s for s in spes if s.key not in busy):
                takeable = sorted(t[0] for t in pending.values()
                                  if single_node or t[3] != spe.node)
                if takeable:
                    violations.append("at t=%.3f worker %s idles with assignable segments %s"
                                      % (last.time, spe.key, takeable))
        last = ev
    return violations


# ------------------------------------------------------------------ simulate

def simulate_schedule(segments, spes, duration_fn):
    """Run the scheduling policy under virtual time and return the event log;
    duration_fn(segment, spe) gives each execution's virtual duration."""
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
        while any([feed(spe) for spe in sched.idle()]):
            pass

    settle()
    while heap:
        finish, _, spe, task = heapq.heappop(heap)
        clock["now"] = finish
        sched.complete(spe, task)
        settle()
    return sched.events
