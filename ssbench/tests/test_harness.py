"""The runner, the metric lists and the tracer's install and restore."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import tracing
import workloads
from sectorsphere import benchmarks, client, fileops, node, sphere, transport

BENCH = Path(__file__).resolve().parents[1]
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_metric_lists_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == tracing.METRICS
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert list(workloads.WORKLOADS) == list(run.WORKLOADS)


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "terasort", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_restores_every_patched_name():
    before = (transport.InMemoryNetwork.dispatch, node.StorageNode.read_local,
              client.read_records_over, sphere.read_records_over, sphere.run_job,
              benchmarks.terasplit_pairs, sphere.get_operator("identity")[0],
              sphere.get_bucket_fn("key-range"))
    patch = tracing.Patcher()
    tracing.WorkCounter().install(patch)
    tracing.Tracer().install(patch)
    assert transport.InMemoryNetwork.dispatch is not before[0]
    assert sphere.get_bucket_fn("key-range") is not before[-1]
    patch.restore()
    after = (transport.InMemoryNetwork.dispatch, node.StorageNode.read_local,
             client.read_records_over, sphere.read_records_over, sphere.run_job,
             benchmarks.terasplit_pairs, sphere.get_operator("identity")[0],
             sphere.get_bucket_fn("key-range"))
    assert after == before


def test_traced_segment_deducts_engine_children():
    tracer = tracing.Tracer()

    def child():
        sum(range(20000))

    def segment():
        wrapped_child()
        sum(range(20000))

    wrapped_child = tracer.wrap(child, cpu="child", kind="engine")
    tracer.wrap(segment, cpu="total", own="own", kind="segment")()
    totals = tracer.totals
    assert abs(totals["total"] - totals["child"] - totals["own"]) < 1e-9
    assert 0 < totals["own"] < totals["total"]


class FakeChannel:
    def call(self, kind, header=None, body=b""):
        return {"token": "t"}, b""


def test_function_imported_by_name_is_counted_once():
    patch = tracing.Patcher()
    tracer = tracing.Tracer()
    tracer.install(patch)
    try:
        node.push_file(FakeChannel(), "f", b"abc", None)
        client.push_file(FakeChannel(), "f", b"abcd", None)
        fileops.push_file(FakeChannel(), "f", b"ab", None)
    finally:
        patch.restore()
    assert tracer.totals["fileops.push_calls"] == 3
    assert tracer.totals["fileops.push_bytes"] == 9


class WrongOutput:
    operations = 2

    def __init__(self, seed):
        pass

    def run(self, work, clock):
        result = workloads.Round(phases={"setup_s": 0.1, "ingest_s": 0.2}, cpu={"ingest_s": 0.2})
        result.problems.append("output differs")
        return result


def test_failed_check_exits_nonzero(monkeypatch, tmp_path, capsys):
    monkeypatch.setitem(workloads.WORKLOADS, "terasort", WrongOutput)
    monkeypatch.setattr(run, "WORK_DIR", tmp_path / "work")
    code = run.main(["--workload", "terasort", "--seed", "1", "--seconds", "5", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (2, 0)
