import os
import time

import numpy as np
import pytest

from lobflow import feed, features, forked, shards


def _has_children() -> bool:
    """Whether this process has a child process, running or not yet
    joined; the child is left as it is."""
    try:
        os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT)
    except ChildProcessError:
        return False
    return True


def _join_within(worker, seconds: float = 60) -> None:
    """Join `worker` once it has exited on its own; the test fails if it
    has not within `seconds`."""
    deadline = time.monotonic() + seconds
    while os.waitid(os.P_PID, worker.pid, os.WEXITED | os.WNOHANG | os.WNOWAIT) is None:
        assert time.monotonic() < deadline, f"worker {worker.pid} did not exit"
        time.sleep(0.01)
    worker.join()


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.fixture(autouse=True)
def no_leaked_workers():
    """Every test ends with no child process left and with the BLAS
    thread count it started with."""
    threads = [get() for get, _ in shards._openblas()]
    yield
    assert not _has_children()
    assert [get() for get, _ in shards._openblas()] == threads


@pytest.fixture
def no_leaked_fds():
    """The test ends with no more open file descriptors than it found;
    skipped where /proc/self/fd cannot be read."""
    try:
        before = _open_fds()
    except OSError:
        pytest.skip("/proc/self/fd cannot be read")
    yield
    assert _open_fds() <= before


def _cpus(monkeypatch, n):
    """Make the affinity mask show `n` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _counting_forks(monkeypatch) -> list:
    """A list that gains an item for each `forked.Worker` started from now on."""
    started, start = [], forked.Worker.__init__
    monkeypatch.setattr(forked.Worker, "__init__",
                        lambda self, *a, **k: started.append(1) or start(self, *a, **k))
    return started


def _started_workers(monkeypatch) -> list:
    """A list that gains each `forked.Worker` once it has started."""
    started, start = [], forked.Worker.__init__

    def starting(self, *args, **kwargs):
        start(self, *args, **kwargs)
        started.append(self)

    monkeypatch.setattr(forked.Worker, "__init__", starting)
    return started


def _failing_forks(monkeypatch, code):
    """Make every fork fail as it does under a pids limit (EAGAIN) or
    without memory (ENOMEM), without starting a process."""
    def fork():
        raise OSError(code, os.strerror(code))
    monkeypatch.setattr(os, "fork", fork)


@pytest.fixture(scope="session")
def noise_lines():
    cfg = feed.GeneratorConfig(n_events=5000)
    return list(feed.generate_synthetic(cfg, seed=11))


@pytest.fixture(scope="session")
def planted_events():
    cfg = feed.GeneratorConfig(n_events=12000, planted=feed.PLANTED_LAST_EVENT_SIDE,
                               min_gap_ms=1)
    return list(feed.iter_events(feed.generate_synthetic(cfg, seed=5)))


@pytest.fixture(scope="session")
def planted_datasets(planted_events):
    """All three variants, split roughly 60/20/20 by time, stats fitted."""
    ds = features.build_datasets(planted_events, T=10, S=3, warm_count=40)
    times = ds["orderflow"].event_time
    a = int(times[0])
    b = int(times[int(len(times) * 0.6)])
    c = int(times[int(len(times) * 0.8)])
    d = int(times[-1]) + 1
    for v in ds.values():
        features.split_by_date(v, (a, b), (b, c), (c, d))
        features.compute_norm_stats(v)
    return ds


def make_event(ts=1_510_000_000_000, seq=1, kind=feed.EventKind.LIMIT,
               side=feed.Side.BUY, price=100, size=1.0, oid=None):
    if kind is feed.EventKind.MARKET:
        price = None
    return feed.OrderEvent(ts, seq, kind, side, price, size, oid or f"o{seq}")


@pytest.fixture
def ev():
    return make_event
