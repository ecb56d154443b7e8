import json
import socket
import time

import pytest

from sectorsphere import cli
from sectorsphere.benchmarks import KEY_SIZE, RECORD_SIZE
from sectorsphere.client import ClientSession
from sectorsphere.cluster import ClusterConfig, NodeSpec, parse_cluster_config, tcp_node
from sectorsphere.errors import ConfigError
from sectorsphere.records import RecordIndex, read_record_file, write_record_file


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def record_closes(monkeypatch) -> list:
    """Record every ClientSession that is closed from now on, once per close."""
    closed = []
    close = ClientSession.close

    def recorded(session):
        closed.append(session)
        close(session)

    monkeypatch.setattr(ClientSession, "close", recorded)
    return closed


def test_teragen_command(tmp_path):
    out = tmp_path / "gen.dat"
    assert cli.main(["teragen", "--records", "50", "--seed", "3",
                     "--out", str(out)]) == 0
    data, index = read_record_file(out)
    assert len(data) == 50 * RECORD_SIZE and len(index) == 50


def test_terasplit_command(tmp_path, capsys):
    from sectorsphere.records import RecordIndex, write_record_file

    records = sorted((bytes([i]) * RECORD_SIZE for i in range(16)),
                     key=lambda r: r[:KEY_SIZE])
    write_record_file(tmp_path / "sorted.dat", b"".join(records),
                      RecordIndex.uniform(16, RECORD_SIZE))
    assert cli.main(["terasplit", "--in", str(tmp_path / "sorted.dat")]) == 0
    line = capsys.readouterr().out.strip()
    result = json.loads(line)
    assert set(result) == {"threshold", "gain", "left", "right"}


def test_angle_command_reports_flagged_window(tmp_path, capsys):
    from sectorsphere.angle import synthetic_windows, write_feature_file

    vectors, _ = synthetic_windows(n_windows=25, blobs=3, dim=4, per_window=60,
                                   seed=2, shift_window=20)
    path = tmp_path / "features.txt"
    write_feature_file(path, vectors)
    assert cli.main(["angle", "--features", str(path), "--window", "1.0",
                     "--t0", "0", "--k", "3", "--seed", "99"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 25
    flagged = [line for line in lines if "EMERGENT" in line]
    assert len(flagged) == 1 and flagged[0].startswith("20\t")


def test_scenario_unknown_name_is_usage_error(tmp_path):
    assert cli.main(["scenario", "no-such-thing",
                     "--workdir", str(tmp_path)]) == cli.EXIT_CONFIG


def test_scenario_writes_metrics_file(tmp_path):
    out = tmp_path / "metrics.txt"
    code = cli.main(["scenario", "replication-uniformity",
                     "--workdir", str(tmp_path / "w"), "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert "p_value=" in text and "ok=true" in text


def test_duplicate_addresses_rejected(tmp_path):
    config = tmp_path / "cluster.ini"
    config.write_text(
        "[cluster]\nreplica_target = 1\n"
        "[node:a]\naddress = 127.0.0.1:7001\ndata_dir = %s/a\n"
        "[node:b]\naddress = 127.0.0.1:7001\ndata_dir = %s/b\n"
        % (tmp_path, tmp_path))
    with pytest.raises(ConfigError):
        parse_cluster_config(config)
    assert cli.main(["node", "--config", str(config), "--name", "a"]) == cli.EXIT_CONFIG


def test_node_address_not_host_port_exits_2(tmp_path):
    config = tmp_path / "cluster.ini"
    config.write_text(
        "[cluster]\nreplica_target = 1\n"
        "[node:a]\naddress = n1\ndata_dir = %s/a\n" % tmp_path)
    with pytest.raises(ConfigError):
        parse_cluster_config(config)
    assert cli.main(["node", "--config", str(config), "--name", "a"]) == cli.EXIT_CONFIG


@pytest.fixture
def tcp_cluster(tmp_path):
    addresses = ["127.0.0.1:%d" % free_port() for _ in range(2)]
    config = ClusterConfig(
        nodes=[NodeSpec(name="n%d" % i, address=a,
                        data_dir=str(tmp_path / ("n%d" % i)),
                        acl=frozenset({"127.0.0.1"}))
               for i, a in enumerate(addresses)],
        replica_target=1)
    nodes = [tcp_node(config, "n%d" % i) for i in range(2)]
    yield addresses, nodes
    for node in nodes:
        node.stop()


def test_upload_download_locate_over_sockets(tmp_path, tcp_cluster, capsys):
    addresses, _ = tcp_cluster
    source = tmp_path / "payload.bin"
    source.write_bytes(bytes(range(256)) * 64)
    assert cli.main(["upload", "--server", addresses[0],
                     str(source), "files/payload.bin"]) == 0
    assert cli.main(["locate", "--server", addresses[0],
                     "files/payload.bin"]) == 0
    location = capsys.readouterr().out.strip().splitlines()[-1]
    assert location in addresses
    dest = tmp_path / "fetched.bin"
    assert cli.main(["download", "--server", addresses[1],
                     "files/payload.bin", str(dest)]) == 0
    assert dest.read_bytes() == source.read_bytes()


def test_commands_connect_to_no_member_they_do_not_call(tmp_path):
    from sectorsphere.routing import RingView, name_owned_by

    silent = socket.socket()  # a member that never accepts
    silent.bind(("127.0.0.1", 0))
    silent.listen(8)
    addresses = ["127.0.0.1:%d" % free_port() for _ in range(2)]
    addresses.append("127.0.0.1:%d" % silent.getsockname()[1])
    config = ClusterConfig(
        nodes=[NodeSpec(name="n%d" % i, address=a, data_dir=str(tmp_path / ("n%d" % i)),
                        acl=frozenset({"127.0.0.1"}))
               for i, a in enumerate(addresses)],
        replica_target=1)
    nodes = [tcp_node(config, "n%d" % i) for i in range(2)]
    try:
        name = name_owned_by(RingView.from_addresses(addresses), "files/a.bin", addresses[1])
        source = tmp_path / "a.bin"
        source.write_bytes(b"abc")
        assert cli.main(["upload", "--server", addresses[0], str(source), name]) == 0
        assert cli.main(["locate", "--server", addresses[0], name]) == 0
        assert cli.main(["download", "--server", addresses[0], name,
                         str(tmp_path / "b.bin")]) == 0
        silent.setblocking(False)
        with pytest.raises(BlockingIOError):  # no connect is waiting to be accepted
            silent.accept()
    finally:
        for node in nodes:
            node.stop()
        silent.close()


def test_download_unknown_file_exits_nonzero(tcp_cluster, tmp_path, monkeypatch):
    addresses, _ = tcp_cluster
    closed = record_closes(monkeypatch)
    code = cli.main(["download", "--server", addresses[0],
                     "ghost.bin", str(tmp_path / "x")])
    assert code not in (0, None)
    assert len(closed) == 1


def test_submit_identity_job_over_sockets(tmp_path, tcp_cluster, capsys):
    addresses, _ = tcp_cluster
    from sectorsphere.records import RecordIndex

    source = tmp_path / "records.dat"
    records = [bytes([i]) * 10 for i in range(30)]
    source.write_bytes(b"".join(records))
    idx = RecordIndex.uniform(30, 10)
    source.with_name(source.name + ".idx").write_bytes(idx.to_bytes())
    assert cli.main(["upload", "--server", addresses[0],
                     str(source), "job/in.dat"]) == 0
    descriptor = tmp_path / "job.json"
    descriptor.write_text(json.dumps({
        "server": addresses[0],
        "files": ["job/in.dat"],
        "operator": "identity",
        "output": {"mode": "local"},
        "limits": {"s_min": 100, "s_max": 150},
    }))
    assert cli.main(["submit", "--job", str(descriptor)]) == 0
    out = capsys.readouterr().out
    assert "segments done:" in out and "(100%)" in out
    assert "node " in out  # per-node timings printed


def test_submit_in_client_mode_prints_the_records_returned(tmp_path, tcp_cluster, capsys):
    addresses, _ = tcp_cluster
    records = [bytes([i]) * (i + 1) for i in range(40)]
    source = tmp_path / "records.dat"
    write_record_file(source, b"".join(records), RecordIndex.from_sizes(map(len, records)))
    assert cli.main(["upload", "--server", addresses[0],
                     str(source), "job/back.dat"]) == 0
    descriptor = tmp_path / "job.json"
    descriptor.write_text(json.dumps({
        "server": addresses[1], "files": ["job/back.dat"], "operator": "identity",
        "output": {"mode": "client"}, "limits": {"s_min": 200, "s_max": 200}}))
    assert cli.main(["submit", "--job", str(descriptor)]) == 0
    out = capsys.readouterr().out
    assert "records returned: 40" in out and "output files" not in out


def test_submit_with_no_files_exits_with_an_error(tmp_path, tcp_cluster, capsys):
    addresses, _ = tcp_cluster
    descriptor = tmp_path / "empty.json"
    descriptor.write_text(json.dumps({
        "server": addresses[0], "files": [], "operator": "identity"}))
    assert cli.main(["submit", "--job", str(descriptor)]) == 1
    assert "cannot segment an empty stream" in capsys.readouterr().err


def test_submit_unknown_operator_is_job_error(tmp_path, tcp_cluster, monkeypatch):
    addresses, _ = tcp_cluster
    descriptor = tmp_path / "bad.json"
    descriptor.write_text(json.dumps({
        "server": addresses[0], "files": ["whatever"],
        "operator": "does-not-exist"}))
    closed = record_closes(monkeypatch)
    assert cli.main(["submit", "--job", str(descriptor)]) == cli.EXIT_JOB
    assert len(closed) == 1


def test_a_terasort_over_sockets_leaves_no_thread_once_the_nodes_stop(tmp_path, started_threads,
                                                                     tcp_cluster, capsys):
    addresses, nodes = tcp_cluster
    names = []
    for part in range(2):
        source = tmp_path / ("tera-%d.dat" % part)
        assert cli.main(["teragen", "--records", "400", "--seed", str(part + 1),
                         "--out", str(source)]) == 0
        names.append("tera/part-%d.dat" % part)
        assert cli.main(["upload", "--server", addresses[0], str(source), names[-1]]) == 0
    descriptor = tmp_path / "terasort.json"
    descriptor.write_text(json.dumps({"server": addresses[1], "files": names}))
    assert cli.main(["terasort", "--job", str(descriptor)]) == 0
    assert "2 files -> 2 sorted buckets" in capsys.readouterr().out
    for node in nodes:
        node.stop()
    # the nodes' server and replication threads, their executors, their
    # connection and frame threads, the CLI's client and job threads and
    # every channel's receiver end
    deadline = time.monotonic() + 5
    for thread in started_threads:
        thread.join(max(0.0, deadline - time.monotonic()))
    assert [thread.name for thread in started_threads if thread.is_alive()] == []


def test_eight_node_wan_profile_cluster_runs_terasort(tmp_path):
    """Six-to-eight nodes across three sites with the measured rtt profile
    complete a sort end to end in one process."""
    import random

    from sectorsphere.benchmarks import check_sorted, terasort
    from sectorsphere.cluster import quick_cluster
    from sectorsphere.records import RecordIndex
    from sectorsphere.scenarios import wan_profile
    from sectorsphere.transport import LinkProfile

    sites = {"chi-1": "chicago", "chi-2": "chicago", "chi-3": "chicago",
             "pas-1": "pasadena", "pas-2": "pasadena", "pas-3": "pasadena",
             "grn-1": "greenbelt", "grn-2": "greenbelt"}
    profile = LinkProfile()
    rtts = {("chicago", "greenbelt"): 16.0, ("chicago", "pasadena"): 55.0,
            ("greenbelt", "pasadena"): 71.0}
    import itertools
    places = dict(sites)
    places["client-0"] = "chicago"
    for a, b in itertools.combinations(places, 2):
        sa, sb = places[a], places[b]
        profile.set_rtt(a, b, 0.0 if sa == sb else rtts[tuple(sorted((sa, sb)))])

    with quick_cluster(tmp_path / "wan8", 8, replica_target=1,
                       addresses=list(sites), profile=profile) as cluster:
        client = cluster.client()
        rng = random.Random(1)
        records = [rng.randbytes(RECORD_SIZE) for _ in range(800)]
        client.upload(b"".join(records), "wan/in.dat",
                      RecordIndex.uniform(len(records), RECORD_SIZE))
        out, _ = terasort(client, ["wan/in.dat"], sample_target=200)
        result = list(client.iter_records(out.names))
        assert check_sorted(result) and sorted(result) == sorted(records)


def test_scenario_validation_failure_exit_code(tmp_path, monkeypatch):
    from sectorsphere import scenarios

    monkeypatch.setattr(scenarios, "scenario_replication_uniformity",
                        lambda workdir, **kw: ({"forced": 1}, False))
    code = cli.main(["scenario", "replication-uniformity",
                     "--workdir", str(tmp_path)])
    assert code == cli.EXIT_VALIDATION


def test_scenario_validation_is_seed_deterministic(tmp_path):
    from sectorsphere.scenarios import scenario_replication_uniformity

    a, ok_a = scenario_replication_uniformity(tmp_path / "run-a", files=40, nodes=6)
    b, ok_b = scenario_replication_uniformity(tmp_path / "run-b", files=40, nodes=6)
    assert ok_a and ok_b
    for key in ("chi_square", "p_value", "placements", "cycles_to_target"):
        assert a[key] == b[key]
