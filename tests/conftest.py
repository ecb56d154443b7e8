import threading

import pytest
from hypothesis import settings

from sectorsphere.cluster import quick_cluster

# CI runs with --hypothesis-profile=ci, so a failing example found there is
# found again by the same command; local runs stay random.
settings.register_profile("ci", derandomize=True)


@pytest.fixture
def make_cluster(tmp_path):
    """Factory for in-process clusters; everything is stopped on teardown."""
    made = []

    def factory(n_nodes, **kwargs):
        cluster = quick_cluster(tmp_path / ("cluster%d" % len(made)), n_nodes, **kwargs)
        made.append(cluster)
        return cluster

    yield factory
    for cluster in made:
        cluster.stop()


@pytest.fixture
def started_threads(monkeypatch):
    """Every thread started from the set-up of this fixture on."""
    started = []
    start = threading.Thread.start

    def recorded(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recorded)
    return started
