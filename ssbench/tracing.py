"""Work counts and per-layer tracing, attached from outside the program.

Both work by replacing public functions and methods of the sectorsphere
modules with wrappers and putting the originals back afterwards. A
function that other modules import by name (read_records_over,
push_file, pack_payload, ...) is replaced in every module that holds it,
because that is where it is called.

WorkCounter is cheap and stays on in every run: messages sent per kind,
and the segments and local assignments of every job. Tracer is the
traced mode: every wrapped call adds its count, wall time and thread CPU
time (time.thread_time) to aggregate counters. Per-record calls
(operators, bucket functions, feature parsing) go into the same
counters, never into span objects. All nodes share one process and one
GIL, so a wall time includes the time a call waited for the GIL.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter

from sectorsphere import angle, benchmarks, client, node, records, routing, scheduler, sphere
from sectorsphere import fileops, transport, wire
from sectorsphere.wire import HEADER_LEN, MessageKind

# Message kinds the workloads send, each reported as transport.calls.<KIND>.
SENT_KINDS = ("LOOKUP", "OWNER", "MEMBERS", "REGISTER", "STAT", "STORE_BEGIN",
              "STORE_DATA", "STORE_INDEX", "STORE_END", "READ", "FETCH", "FETCH_INDEX",
              "REPLICATE", "SPE_RUN", "SPE_RELEASE", "PROGRESS", "SHUFFLE_APPEND",
              "FINALIZE_JOB")

COUNT, BYTES, SECONDS, RATIO = "count", "bytes", "s", "ratio"

# name -> (unit, better); the per_layer list of BENCHMARK.json
METRICS = {
    "transport.calls": (COUNT, "lower"),
    **{"transport.calls." + k: (COUNT, "lower") for k in SENT_KINDS},
    "transport.oneway_calls": (COUNT, "lower"),
    "transport.request_bytes": (BYTES, "lower"),
    "transport.reply_bytes": (BYTES, "lower"),
    "transport.rtt_wait_s": (SECONDS, "lower"),
    "wire.pack_cpu_s": (SECONDS, "lower"),
    "wire.unpack_cpu_s": (SECONDS, "lower"),
    "routing.owner_calls": (COUNT, "lower"),
    "node.lookup_calls": (COUNT, "lower"),
    "records.index_parse_calls": (COUNT, "lower"),
    "records.index_parse_entries": (COUNT, "lower"),
    "records.index_parse_cpu_s": (SECONDS, "lower"),
    "records.index_encode_cpu_s": (SECONDS, "lower"),
    "records.validate_cpu_s": (SECONDS, "lower"),
    "node.read_local_calls": (COUNT, "lower"),
    "node.read_local_rows": (COUNT, "lower"),
    "node.read_local_cpu_s": (SECONDS, "lower"),
    "node.store_calls": (COUNT, "lower"),
    "node.store_bytes": (BYTES, "lower"),
    "node.store_s": (SECONDS, "lower"),
    "node.shuffle_append_calls": (COUNT, "lower"),
    "node.shuffle_append_bytes": (BYTES, "lower"),
    "node.shuffle_append_s": (SECONDS, "lower"),
    "node.finalize_s": (SECONDS, "lower"),
    "node.replica_pushes": (COUNT, "lower"),
    "node.replicate_s": (SECONDS, "lower"),
    "fileops.push_calls": (COUNT, "lower"),
    "fileops.push_bytes": (BYTES, "lower"),
    "fileops.push_s": (SECONDS, "lower"),
    "fileops.fetch_calls": (COUNT, "lower"),
    "fileops.fetch_bytes": (BYTES, "lower"),
    "fileops.fetch_s": (SECONDS, "lower"),
    "fileops.remote_read_calls": (COUNT, "lower"),
    "fileops.remote_read_rows": (COUNT, "lower"),
    "fileops.remote_read_s": (SECONDS, "lower"),
    "scheduler.assignments": (COUNT, "lower"),
    "scheduler.local_assignments": (COUNT, "higher"),
    "scheduler.locality": (RATIO, "higher"),
    "scheduler.retries": (COUNT, "lower"),
    "scheduler.wait_s": (SECONDS, "lower"),
    "sphere.segments": (COUNT, "lower"),
    "sphere.segment_s": (SECONDS, "lower"),
    "sphere.segment_cpu_s": (SECONDS, "lower"),
    "sphere.operator_calls": (COUNT, "lower"),
    "sphere.operator_cpu_s": (SECONDS, "lower"),
    "sphere.bucket_calls": (COUNT, "lower"),
    "sphere.bucket_cpu_s": (SECONDS, "lower"),
    "sphere.shuffle_bytes": (BYTES, "lower"),
    "sphere.engine_self_cpu_s": (SECONDS, "lower"),
    "client.upload_s": (SECONDS, "lower"),
    "client.download_s": (SECONDS, "lower"),
    "client.iter_records_s": (SECONDS, "lower"),
    "client.locate_calls": (COUNT, "lower"),
    "client.stat_calls": (COUNT, "lower"),
    "benchmarks.teragen_s": (SECONDS, "lower"),
    "benchmarks.sample_s": (SECONDS, "lower"),
    "benchmarks.terasplit_kernel_cpu_s": (SECONDS, "lower"),
    "angle.parse_calls": (COUNT, "lower"),
    "angle.parse_cpu_s": (SECONDS, "lower"),
    "angle.kmeans_calls": (COUNT, "lower"),
    "angle.kmeans_iterations": (COUNT, "lower"),
    "angle.kmeans_cpu_s": (SECONDS, "lower"),
    "angle.detect_cpu_s": (SECONDS, "lower"),
}

# Built-in operators and bucket functions, re-registered wrapped.
OPERATORS = ("identity", "one-per-record", "sort-records", "window-cluster")
BUCKETS = ("key-range", "window-index")

# A frame of kind K has the CPU time of nested calls of these kinds
# subtracted from its own: a segment minus its reads, operator, bucket and
# shuffle-send calls; the terasplit kernel minus the client reads feeding it.
DEDUCTS = {"segment": ("engine",), "split": ("iter",)}


def kind_name(kind: int) -> str:
    try:
        return MessageKind(kind).name
    except ValueError:
        return str(kind)


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


class Patcher:
    """Replaces attributes and undoes every change in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr: str, value) -> None:
        old = owner.__dict__[attr]
        self._undo.append(lambda: setattr(owner, attr, old))
        setattr(owner, attr, value)

    def on_restore(self, undo) -> None:
        self._undo.append(undo)

    def everywhere(self, original, make_wrapper) -> None:
        """Replace `original` in every sectorsphere module that holds it;
        make_wrapper(module_name) builds each replacement."""
        for name, module in sorted(sys.modules.items()):
            if name.split(".")[0] != "sectorsphere" or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, make_wrapper(name))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()


class WorkCounter:
    """Messages sent per kind, and segments and local assignments per job."""

    def __init__(self):
        self.messages: Counter = Counter()
        self.segments = 0
        self.local = 0
        self.retries = 0
        self._lock = threading.Lock()

    def reset(self) -> None:
        with self._lock:
            self.messages.clear()
            self.segments = self.local = self.retries = 0

    def install(self, patch: Patcher) -> None:
        network = transport.InMemoryNetwork
        dispatch, oneway, run_job = network.dispatch, network.dispatch_oneway, sphere.run_job

        def counted_dispatch(net, local, peer, request):
            with self._lock:
                self.messages[kind_name(request.kind)] += 1
            return dispatch(net, local, peer, request)

        def counted_oneway(net, local, peer, request):
            with self._lock:
                self.messages[kind_name(request.kind)] += 1
            return oneway(net, local, peer, request)

        def counted_run_job(*args, **kwargs):
            out, report = run_job(*args, **kwargs)
            assigns = [e for e in report.events if e.kind == "assign"]
            with self._lock:
                self.segments += len({e.ordinal for e in assigns})
                self.local += sum(1 for e in assigns if e.local)
                self.retries += len(assigns) - len({e.ordinal for e in assigns})
            return out, report

        patch.set(network, "dispatch", counted_dispatch)
        patch.set(network, "dispatch_oneway", counted_oneway)
        patch.everywhere(run_job, lambda module: counted_run_job)

    def line(self) -> str:
        with self._lock:
            kinds = ",".join("%s:%d" % kv for kv in sorted(self.messages.items()))
            return ("segments=%d local=%d retries=%d messages=%d kinds=%s"
                    % (self.segments, self.local, self.retries,
                       sum(self.messages.values()), kinds))


class CountingClock:
    """Real-time clock for the in-memory network that adds up how long its
    injected round-trip sleeps took."""

    def __init__(self):
        self.slept = 0.0
        self._lock = threading.Lock()

    def now(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            start = time.perf_counter()
            time.sleep(seconds)
            took = time.perf_counter() - start
            with self._lock:
                self.slept += took


class Tracer:
    """Aggregate per-layer counters fed by wrappers around public calls."""

    def __init__(self):
        self.clock = CountingClock()
        self._threads: list[Counter] = []  # every thread's own counters
        self._lock = threading.Lock()
        self._local = threading.local()

    def _state(self) -> tuple[list, Counter]:
        """This thread's frame stack and counters, made on first use. Each
        thread adds to its own counters, so no call takes a lock."""
        local = self._local
        try:
            return local.stack, local.totals
        except AttributeError:
            local.stack, local.totals = [], Counter()
            with self._lock:
                self._threads.append(local.totals)
            return local.stack, local.totals

    @property
    def totals(self) -> Counter:
        """The counters summed over all threads."""
        with self._lock:
            parts = list(self._threads)
        summed: Counter = Counter()
        for part in parts:
            summed.update(dict(part))
        return summed

    # ------------------------------------------------------------ wrapping

    @staticmethod
    def _credit(stack: list, kind: str, cpu: float) -> None:
        for frame in reversed(stack):
            if frame[0] == kind:
                return  # an enclosing call of the same kind already counts it
            if kind in DEDUCTS.get(frame[0], ()):
                frame[1] += cpu
                return

    def wrap(self, fn, calls=None, wall=None, cpu=None, own=None, extra=None, kind=None):
        """Wrap fn so that each call adds 1 to the counter named `calls`, its
        wall time to `wall`, its thread CPU time to `cpu` and that CPU time
        minus the deducted nested calls (DEDUCTS) to `own`; then
        extra(counters, args, kwargs, result) adds anything else."""
        perf_counter, thread_time = time.perf_counter, time.thread_time

        def wrapper(*args, **kwargs):
            stack, totals = self._state()
            frame = [kind, 0.0]
            stack.append(frame)
            wall0, cpu0 = perf_counter(), thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                used = thread_time() - cpu0
                took = perf_counter() - wall0
                stack.pop()
                if kind is not None:
                    self._credit(stack, kind, used)
            if calls:
                totals[calls] += 1
            if wall:
                totals[wall] += took
            if cpu:
                totals[cpu] += used
            if own:
                totals[own] += used - frame[1]
            if extra:
                extra(totals, args, kwargs, result)
            return result
        return wrapper

    def wrap_generator(self, fn, wall: str, kind: str):
        """Time only the generator's own steps, not the consumer's."""
        def wrapper(*args, **kwargs):
            steps = fn(*args, **kwargs)
            stack, totals = self._state()
            while True:
                frame = [kind, 0.0]
                stack.append(frame)
                wall0, cpu0 = time.perf_counter(), time.thread_time()
                try:
                    item = next(steps)
                except StopIteration:
                    return
                finally:
                    totals[wall] += time.perf_counter() - wall0
                    stack.pop()
                    self._credit(stack, kind, time.thread_time() - cpu0)
                yield item
        return wrapper

    # ----------------------------------------------------------- install

    def install(self, patch: Patcher) -> None:
        wrap = self.wrap
        network = transport.InMemoryNetwork

        def everywhere(original, engine_in=None, kind=None, **counters):
            patch.everywhere(original, lambda module: wrap(
                original, kind="engine" if module == engine_in else kind, **counters))

        def on_dispatch(totals, args, kwargs, response):
            request = args[3]
            totals["transport.calls." + kind_name(request.kind)] += 1
            totals["transport.request_bytes"] += HEADER_LEN + len(request.payload)
            totals["transport.reply_bytes"] += HEADER_LEN + len(response.payload)

        def on_oneway(totals, args, kwargs, result):
            request = args[3]
            totals["transport.calls." + kind_name(request.kind)] += 1
            totals["transport.request_bytes"] += HEADER_LEN + len(request.payload)

        patch.set(network, "dispatch", wrap(
            network.dispatch, calls="transport.calls", extra=on_dispatch))
        patch.set(network, "dispatch_oneway", wrap(
            network.dispatch_oneway, calls="transport.oneway_calls", extra=on_oneway))
        everywhere(wire.pack_payload, cpu="wire.pack_cpu_s")
        everywhere(wire.unpack_payload, cpu="wire.unpack_cpu_s")

        ring = routing.RingView
        patch.set(ring, "owner", wrap(ring.owner, calls="routing.owner_calls"))

        index = records.RecordIndex
        from_bytes = index.__dict__["from_bytes"].__func__
        patch.set(index, "from_bytes", classmethod(wrap(
            from_bytes, calls="records.index_parse_calls", cpu="records.index_parse_cpu_s",
            extra=lambda t, a, k, r: t.update({"records.index_parse_entries": len(r)}))))
        patch.set(index, "to_bytes", wrap(index.to_bytes, cpu="records.index_encode_cpu_s"))
        patch.set(index, "validate", wrap(index.validate, cpu="records.validate_cpu_s"))

        storage = node.StorageNode
        patch.set(storage, "lookup", wrap(storage.lookup, calls="node.lookup_calls"))
        patch.set(storage, "read_local", wrap(
            storage.read_local, calls="node.read_local_calls", cpu="node.read_local_cpu_s",
            extra=lambda t, a, k, r: t.update({"node.read_local_rows": len(r[0])}),
            kind="engine"))
        patch.set(storage, "store_file", wrap(
            storage.store_file, calls="node.store_calls", wall="node.store_s",
            extra=lambda t, a, k, r: t.update({"node.store_bytes": len(_arg(a, k, 3, "data"))})))
        patch.set(storage, "shuffle_append", wrap(
            storage.shuffle_append, calls="node.shuffle_append_calls",
            wall="node.shuffle_append_s",
            extra=lambda t, a, k, r: t.update(
                {"node.shuffle_append_bytes": len(_arg(a, k, 4, "body"))})))
        patch.set(storage, "finalize_job", wrap(storage.finalize_job, wall="node.finalize_s"))
        patch.set(storage, "push_replica", wrap(storage.push_replica, calls="node.replica_pushes"))
        patch.set(storage, "replicate_check", wrap(
            storage.replicate_check, wall="node.replicate_s"))

        everywhere(fileops.push_file, calls="fileops.push_calls", wall="fileops.push_s",
                   extra=lambda t, a, k, r: t.update({"fileops.push_bytes": len(
                       _arg(a, k, 2, "data")) + len(_arg(a, k, 3, "index_bytes") or b"")}))
        everywhere(fileops.fetch_file, calls="fileops.fetch_calls", wall="fileops.fetch_s",
                   extra=lambda t, a, k, r: t.update(
                       {"fileops.fetch_bytes": len(r[0]) + len(r[1] or b"")}))
        everywhere(fileops.read_records_over, engine_in="sectorsphere.sphere",
                   calls="fileops.remote_read_calls", wall="fileops.remote_read_s",
                   extra=lambda t, a, k, r: t.update({"fileops.remote_read_rows": len(r[0])}))

        def on_next(totals, args, kwargs, task):
            if task is not None:
                totals["scheduler.assignments"] += 1
                totals["scheduler.local_assignments"] += args[1].node in task.segment.locations

        sched = scheduler.Scheduler
        patch.set(sched, "next_for", wrap(sched.next_for, wall="scheduler.wait_s", extra=on_next))
        patch.set(sched, "fail", wrap(sched.fail, extra=lambda t, a, k, retried: t.update(
            {"scheduler.retries": int(bool(retried))})))

        host = sphere.SpeHost
        patch.set(host, "run_segment", wrap(
            host.run_segment, calls="sphere.segments", wall="sphere.segment_s",
            cpu="sphere.segment_cpu_s", own="sphere.engine_self_cpu_s", kind="segment"))
        # The shuffle send has no public entry point; this private method is
        # the one place where a segment's shuffle traffic leaves the engine.
        patch.set(host, "_send_shuffle", wrap(
            host._send_shuffle, kind="engine", extra=lambda t, a, k, r: t.update(
                {"sphere.shuffle_bytes": sum(len(rec) for _, rec in _arg(a, k, 2, "tagged"))})))
        for name in OPERATORS:
            if sphere.operator_registered(name):
                fn, scope = sphere.get_operator(name)
                sphere.register_operator(name, wrap(
                    fn, calls="sphere.operator_calls", cpu="sphere.operator_cpu_s",
                    kind="engine"), scope=scope)
                patch.on_restore(lambda n=name, f=fn, s=scope: sphere.register_operator(n, f, s))
        for name in BUCKETS:
            fn = sphere.get_bucket_fn(name)
            sphere.register_bucket(name, wrap(
                fn, calls="sphere.bucket_calls", cpu="sphere.bucket_cpu_s", kind="engine"))
            patch.on_restore(lambda n=name, f=fn: sphere.register_bucket(n, f))

        session = client.ClientSession
        patch.set(session, "upload", wrap(session.upload, wall="client.upload_s"))
        patch.set(session, "download", wrap(session.download, wall="client.download_s"))
        patch.set(session, "iter_records", self.wrap_generator(
            session.iter_records, wall="client.iter_records_s", kind="iter"))
        patch.set(session, "locate", wrap(session.locate, calls="client.locate_calls"))
        patch.set(session, "stat", wrap(session.stat, calls="client.stat_calls"))

        everywhere(benchmarks.teragen, wall="benchmarks.teragen_s")
        everywhere(benchmarks.sample_boundaries, wall="benchmarks.sample_s")
        everywhere(benchmarks.terasplit_pairs, own="benchmarks.terasplit_kernel_cpu_s",
                   kind="split")

        everywhere(angle.parse_feature_record, calls="angle.parse_calls",
                   cpu="angle.parse_cpu_s")
        everywhere(angle.kmeans, calls="angle.kmeans_calls", cpu="angle.kmeans_cpu_s",
                   extra=lambda t, a, k, r: t.update({"angle.kmeans_iterations": len(r[2]) - 1}))
        everywhere(angle.detect_emergent, cpu="angle.detect_cpu_s")

    def metrics(self, rounds: int) -> dict:
        """Every per-layer metric as a mean per round; 0 where a workload
        never reaches the layer."""
        totals = self.totals
        totals["transport.rtt_wait_s"] = self.clock.slept
        assigned = totals["scheduler.assignments"]
        per_round = {name: totals[name] / rounds for name in METRICS}
        per_round["scheduler.locality"] = (
            totals["scheduler.local_assignments"] / assigned if assigned else 0.0)
        return {name: {"value": value, "unit": METRICS[name][0]}
                for name, value in per_round.items()}
