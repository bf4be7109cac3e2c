import multiprocessing
import os

import numpy as np
import pytest

from lobflow import feed, features


@pytest.fixture(autouse=True)
def no_leaked_workers():
    """Every test ends with no child process left running."""
    yield
    assert multiprocessing.active_children() == []


def _cpus(monkeypatch, n):
    """Make the affinity mask show `n` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


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
