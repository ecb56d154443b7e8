"""Sector/Sphere benchmark.

    python3 ssbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Repeats whole rounds of the
workload (see workloads.py) until S seconds have passed, checks every
round's outputs, prints one line per round with its phase times and work
counts, and ends with one JSON line: the end-to-end metrics (medians over
rounds) with --trace 0, the per-layer metrics (means per round) with
--trace 1. Exits 1 when an operation fails or a check finds a wrong
output, 2 when the checkout has no sectorsphere sources.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCES = ROOT / "src"
WORK_DIR = ROOT / ".ssbench-work"
WORKLOADS = ("terasort", "terasort-wan", "angle", "archive")

# end-to-end metric -> unit; the end_to_end list of BENCHMARK.json
END_TO_END = {"setup_s": "s", "ingest_s": "s", "total_s": "s", "cpu_s": "s",
              "peak_rss_mb": "MiB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def end_to_end(rounds) -> dict:
    """Medians over rounds; total_s and cpu_s cover every phase after set-up."""
    median = statistics.median
    timed = [[v for k, v in r.phases.items() if k != "setup_s"] for r in rounds]
    cpu = [[v for k, v in r.cpu.items() if k != "setup_s"] for r in rounds]
    values = {
        "setup_s": median([r.phases["setup_s"] for r in rounds]),
        "ingest_s": median([r.phases["ingest_s"] for r in rounds]),
        "total_s": median([sum(t) for t in timed]),
        "cpu_s": median([sum(c) for c in cpu]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def phase_line(label: str, phases: dict, cpu: dict) -> str:
    parts = ["%s=%.4f" % kv for kv in phases.items()]
    if "job_s" in cpu:
        parts.append("job_cpu_s=%.4f" % cpu["job_s"])
    return "%s %s" % (label, " ".join(parts))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SOURCES / "sectorsphere" / "__init__.py").is_file():
        print("ssbench: no sectorsphere sources under %s" % SOURCES, file=sys.stderr)
        return 2
    sys.path[:0] = [str(SOURCES), str(HERE)]
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    work = WORK_DIR / ("%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    patch = tracing.Patcher()
    counter = tracing.WorkCounter()
    counter.install(patch)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(patch)

    rounds, attempted, failed, correct = [], 0, 0, True
    deadline = time.perf_counter() + args.seconds
    try:
        while True:
            gc.collect()
            counter.reset()
            attempted += workload.operations
            round_dir = work / ("round-%03d" % len(rounds))
            try:
                result = workload.run(round_dir, tracer.clock if tracer else None)
            except Exception:
                traceback.print_exc()
                failed += workload.operations
                correct = False
                break
            finally:
                shutil.rmtree(round_dir, ignore_errors=True)
            rounds.append(result)
            print(phase_line("round %d" % len(rounds), result.phases, result.cpu))
            print("work %d %s" % (len(rounds), counter.line()))
            if result.problems:
                for problem in result.problems:
                    print("ssbench: check failed: %s" % problem, file=sys.stderr)
                correct = False
                break
            if time.perf_counter() >= deadline:
                break
    finally:
        patch.restore()
        shutil.rmtree(work, ignore_errors=True)
        if WORK_DIR.is_dir() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()

    if rounds:
        phases = {k: statistics.median(r.phases[k] for r in rounds) for k in rounds[0].phases}
        cpu = {k: statistics.median(r.cpu[k] for r in rounds) for k in rounds[0].cpu}
        print(phase_line("median of %d rounds:" % len(rounds), phases, cpu))
    if not rounds:
        metrics = {}
    elif args.trace:
        metrics = tracer.metrics(len(rounds))
    else:
        metrics = end_to_end(rounds)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
