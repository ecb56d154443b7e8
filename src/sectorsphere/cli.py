"""Command-line surface.

Subcommands: node (run a real-socket storage daemon), upload / download /
locate (file management), submit (run a job from a descriptor), teragen /
terasort / terasplit (benchmarks), angle (local pipeline over a feature
file), scenario (end-to-end experiments on an in-process cluster).

Exit codes: 0 success, 2 config or usage error, 3 transport error,
4 job error, 5 validation failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import angle as angle_mod
from . import benchmarks, scenarios, sphere
from .client import ClientSession
from .cluster import parse_cluster_config, tcp_node
from .errors import ConfigError, JobError, SectorError, TransportError
from .transport import TcpTransport

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TRANSPORT = 3
EXIT_JOB = 4
EXIT_VALIDATION = 5


def _client(server: str) -> ClientSession:
    return ClientSession(TcpTransport("0.0.0.0:0"), server)


def cmd_node(args) -> int:
    node = tcp_node(parse_cluster_config(args.config), args.name)
    print("node %s serving at %s (data in %s)"
          % (args.name, node.address, node.data_dir))
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        node.stop()
    return EXIT_OK


def cmd_upload(args) -> int:
    with _client(args.server) as session:
        locations = session.upload(Path(args.source), args.name)
    print("stored %s on %s" % (args.name, ", ".join(locations)))
    return EXIT_OK


def cmd_download(args) -> int:
    with _client(args.server) as session:
        n = session.download(args.name, Path(args.destination))
    print("downloaded %s: %d bytes -> %s" % (args.name, n, args.destination))
    return EXIT_OK


def cmd_locate(args) -> int:
    with _client(args.server) as session:
        for location in session.locate(args.name):
            print(location)
    return EXIT_OK


def cmd_submit(args) -> int:
    descriptor = json.loads(Path(args.job).read_text())
    limits = sphere.DEFAULT_LIMITS
    if "limits" in descriptor:
        limits = sphere.SegmentLimits(descriptor["limits"]["s_min"],
                                      descriptor["limits"]["s_max"])
    output = sphere.OutputSpec.from_header(
        {"mode": sphere.OutputMode.LOCAL, **descriptor.get("output", {})})
    try:
        with _client(descriptor["server"]) as session:
            _, report = session.run_job(
                descriptor["files"], descriptor["operator"],
                params=bytes.fromhex(descriptor.get("params", "")),
                output=output, limits=limits, job_id=descriptor.get("job_id"))
    except JobError as exc:
        print("job failed: %s" % exc, file=sys.stderr)
        for failure in exc.failed_segments:
            print("  segment %(ordinal)d of %(file)s on %(node)s: %(error)s"
                  % failure, file=sys.stderr)
        return EXIT_JOB
    for seg in sorted(report.segments, key=lambda s: s["ordinal"]):
        print("segment %4d %-8s node=%s rows=%d"
              % (seg["ordinal"], seg["status"], seg["node"], seg.get("rows", 0)))
    done = sum(1 for s in report.segments if s.get("status") == "ok")
    print("segments done: %d/%d (%d%%)"
          % (done, len(report.segments), 100 * done // max(1, len(report.segments))))
    for node_address, seconds in sorted(report.node_seconds.items()):
        print("node %s busy %.3fs" % (node_address, seconds))
    if output.mode == sphere.OutputMode.CLIENT:
        print("records returned: %d" % len(report.records))
    else:
        print("output files: %s" % ", ".join(f["name"] for f in report.output_files))
    return EXIT_OK


def cmd_teragen(args) -> int:
    path = benchmarks.teragen(args.records, args.seed, Path(args.out))
    print("wrote %d records to %s" % (args.records, path))
    return EXIT_OK


def cmd_terasort(args) -> int:
    descriptor = json.loads(Path(args.job).read_text())
    with _client(descriptor["server"]) as session:
        t = time.monotonic()
        out_stream, reports = benchmarks.terasort(
            session, descriptor["files"],
            destinations=descriptor.get("destinations"),
            job_id=descriptor.get("job_id"))
        elapsed = time.monotonic() - t
    print("terasort: %d files -> %d sorted buckets in %.3fs"
          % (len(descriptor["files"]), len(out_stream.files), elapsed))
    for f in out_stream.files:
        print("  %s records=%d on %s" % (f.name, f.records, f.locations[0]))
    return EXIT_OK


def cmd_terasplit(args) -> int:
    result = benchmarks.terasplit_local(Path(args.input))
    print(result.to_line())
    return EXIT_OK


def cmd_angle(args) -> int:
    vectors = angle_mod.read_feature_file(Path(args.features), args.delimiter)
    if not vectors:
        raise ConfigError("no feature vectors in %s" % args.features)
    t0 = args.t0 if args.t0 is not None else min(v.timestamp for v in vectors)
    models, series = angle_mod.run_pipeline_local(
        vectors, length=args.window, t0=t0, k=args.k, seed=args.seed,
        history_len=args.history, z_threshold=args.z)
    ordered = sorted(models)
    for position, window_index in enumerate(ordered):
        delta = series.deltas[position - 1] if position >= 1 else float("nan")
        flagged = position in series.flags
        centers = []
        if flagged:
            model = models[window_index]
            centers = [list(map(float, model.centers[i]))
                       for i in series.emergent.get(position, [])]
        print("%d\t%.6g\t%s\t%s"
              % (window_index, delta, "EMERGENT" if flagged else "-",
                 json.dumps(centers)))
    return EXIT_OK


def cmd_scenario(args) -> int:
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    kwargs = {}
    if args.records is not None:
        if args.name == "terasort-local":
            kwargs["records_total"] = args.records
        elif args.name == "terasort-wan":
            kwargs["records_per_node"] = args.records
    if args.seed is not None:
        kwargs["seed"] = args.seed
    try:
        metrics, ok = scenarios.run_scenario(args.name, workdir,
                                             out_path=args.out, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc))
    for key in sorted(metrics):
        print("%s=%s" % (key, metrics[key]))
    return EXIT_OK if ok else EXIT_VALIDATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sectorsphere",
        description="desk-scale distributed storage and stream compute")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("node", help="run a storage node daemon (tcp)")
    p.add_argument("--config", required=True)
    p.add_argument("--name", required=True)
    p.set_defaults(fn=cmd_node)

    p = sub.add_parser("upload", help="store a local file in the cluster")
    p.add_argument("--server", required=True, help="entry server host:port")
    p.add_argument("source")
    p.add_argument("name")
    p.set_defaults(fn=cmd_upload)

    p = sub.add_parser("download", help="fetch a stored file")
    p.add_argument("--server", required=True)
    p.add_argument("name")
    p.add_argument("destination")
    p.set_defaults(fn=cmd_download)

    p = sub.add_parser("locate", help="list the nodes holding a file")
    p.add_argument("--server", required=True)
    p.add_argument("name")
    p.set_defaults(fn=cmd_locate)

    p = sub.add_parser("submit", help="run a job from a JSON descriptor")
    p.add_argument("--job", required=True)
    p.set_defaults(fn=cmd_submit)

    p = sub.add_parser("teragen", help="generate benchmark records")
    p.add_argument("--records", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_teragen)

    p = sub.add_parser("terasort", help="sort a stored stream across the cluster")
    p.add_argument("--job", required=True, help="JSON descriptor with server and files")
    p.set_defaults(fn=cmd_terasort)

    p = sub.add_parser("terasplit", help="best entropy split of a local sorted file")
    p.add_argument("--in", dest="input", required=True)
    p.set_defaults(fn=cmd_terasplit)

    p = sub.add_parser("angle", help="emergence report for a local feature file")
    p.add_argument("--features", required=True)
    p.add_argument("--window", type=float, required=True)
    p.add_argument("--t0", type=float, default=None)
    p.add_argument("--k", type=int, default=angle_mod.DEFAULT_K)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--history", type=int, default=angle_mod.DEFAULT_HISTORY)
    p.add_argument("--z", type=float, default=angle_mod.DEFAULT_Z)
    p.add_argument("--delimiter", default=",")
    p.set_defaults(fn=cmd_angle)

    p = sub.add_parser("scenario", help="run a named end-to-end scenario")
    p.add_argument("name")
    p.add_argument("--workdir", required=True)
    p.add_argument("--out", default=None, help="metrics file (key=value lines)")
    p.add_argument("--records", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_scenario)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except TransportError as exc:
        print("transport error: %s" % exc, file=sys.stderr)
        return EXIT_TRANSPORT
    except JobError as exc:
        print("job error: %s" % exc, file=sys.stderr)
        return EXIT_JOB
    except SectorError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
