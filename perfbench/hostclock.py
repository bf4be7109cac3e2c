"""Wall time at a reference host speed.

On a shared host the same pass runs up to twice as slowly, for seconds
to minutes at a time, while other tenants load the machine.  A
:class:`HostClock` times a region and, while the region runs, times a
small fixed reference kernel every 0.1 s from a SIGALRM handler
(and once before and once after the region).  The host's slowdown over
the region is the median kernel time divided by the kernel's time on an
uncontended reference host; the region's time at reference speed is its
wall time, less the time spent sampling, divided by that slowdown.

The kernels use no lobflow code, so a change to lobflow moves the
region's time and not the slowdown.  Each kernel mimics a kind of work:
``python`` parses JSON lines into dicts and lists (interpreter-bound, like
feed parsing and book replay); ``numpy`` runs small GEMMs and gate
nonlinearities of an LSTM step (like the net layer).
"""

from __future__ import annotations

import json
import signal
import statistics
from dataclasses import dataclass
from time import perf_counter

import numpy as np

SAMPLE_INTERVAL_S = 0.1

# each kernel's time on the reference host (2-vCPU Xeon VM, Python 3.11,
# numpy 2.4, one BLAS thread), uncontended: the 10th percentile of 300 runs
REFERENCE_S = {"python": 0.57e-3, "numpy": 0.91e-3}


class _PythonKernel:
    def __init__(self):
        self.lines = [json.dumps({"ts": 1_510_000_000_000 + 37 * i, "seq": i, "kind": "limit",
                                  "side": "buy" if i % 2 else "sell", "price": 10_000 + i % 7,
                                  "size": 0.5, "id": f"o{i}"}, separators=(",", ":"))
                      for i in range(200)]

    def __call__(self):
        book: dict = {}
        for line in self.lines:
            o = json.loads(line)
            book.setdefault(o["price"], []).append((o["id"], o["size"]))
        return len(book)


class _NumpyKernel:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.x, self.wx = rng.standard_normal((256, 75)), rng.standard_normal((75, 256))
        self.h, self.wh = rng.standard_normal((256, 64)), rng.standard_normal((64, 256))

    def __call__(self):
        z = self.x @ self.wx + self.h @ self.wh
        i = 1.0 / (1.0 + np.exp(-z[:, :64]))
        return float((i * np.tanh(z[:, 128:192])).sum())


_KERNELS = {"python": _PythonKernel, "numpy": _NumpyKernel}


@dataclass(frozen=True)
class Timing:
    wall_s: float      # wall time of the region, less the sampling
    slowdown: float    # host slowdown over the region (1.0 = reference speed)

    @property
    def ref_s(self) -> float:
        """The region's time at reference host speed."""
        return self.wall_s / self.slowdown


class HostClock:
    """Times regions of the calling (main) thread; see the module docstring."""

    def __init__(self, kernel: str):
        self._kernel = _KERNELS[kernel]()
        self._reference_s = REFERENCE_S[kernel]

    def _sample(self) -> float:
        t0 = perf_counter()
        self._kernel()
        return perf_counter() - t0

    def time(self, fn):
        """Run `fn()`; returns (its value, Timing)."""
        samples = [self._sample()]
        spent = 0.0

        def tick(signum, frame):
            nonlocal spent
            d = self._sample()
            samples.append(d)
            spent += d

        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        t0 = perf_counter()
        try:
            value = fn()
        finally:
            wall = perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        samples.append(self._sample())
        return value, Timing(wall - spent, statistics.median(samples) / self._reference_s)
