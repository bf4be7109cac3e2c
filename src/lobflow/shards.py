"""Training shards and predict tails of one model on a second process.

`net.train` computes each minibatch's gradient as two fixed shards,
rows [0, cut) and [cut, B) for cut = ceil(B/2) (one shard when B = 1),
and combines them in shard order, weighted by shard size, before Adam:
synchronous data-parallel SGD (Dean et al. 2012; Goyal et al. 2017,
arXiv 1706.02677) with the minibatch and learning rate unchanged, so
only the order of the gradient sums differs from a whole-batch step.
The process count is min(2, len(os.sched_getaffinity(0))); `taskset -c
0` gives one.  With two, a worker forked once per `train` call computes
shard 1 while the parent computes shard 0; with one, the parent runs
both shards in turn through the same shard method, so the trained bytes
do not depend on the core count.  Each shard draws its dropout keep
masks from its own generator, keyed by the run's seed, the epoch, the
minibatch's offset in the epoch and the shard's first row: a stream
derived from a key, not a place in one shared stream (Salmon et al.
2011), so a shard's masks depend on no other shard's draws and
`train`'s own rng only shuffles.  The worker's requests, replies and
errors, and a worker that dies, go over the one channel of
:class:`lobflow.forked.Worker`.  On one CPU the two half shards take
17-20% longer per step than one whole batch (single-process steps at
B=64, not measured end to end).

A predict of more than PREDICT_CHUNK windows splits the same way when
there is a worker, at the multiple of PREDICT_CHUNK nearest the middle,
so each chunk keeps its rows and shape and the probabilities their
bytes.  `train`'s worker serves the validation predicts;
:func:`split_predict` forks a predict-only worker for one call of more
than 2 * PREDICT_CHUNK windows.  Both split rules are :func:`_cut`.

All of this sits behind :class:`Shards`, which `train` and
`split_predict` each open once.  It runs numpy's BLAS, the one their
GEMMs use, at one thread, so two processes on two CPUs do not start two
BLAS threads each.
"""

from __future__ import annotations

import ctypes
import functools
import math
import mmap
from contextlib import ExitStack, contextmanager

import numpy as np

from . import forked
from .net import PREDICT_CHUNK, Model, NetError, Workspace, _batch_shape


class Shards:
    """The minibatch steps and the predicts of `model` in one `train` or
    `split_predict` call: :meth:`step` on the windows of `train_xy` (None
    when no step will come) and :meth:`predict` of `predict_X`.

    Opened as a context manager, it runs numpy's BLAS at one thread (see
    :func:`_one_blas_thread`) and, when `split` holds and the affinity
    mask has a spare CPU, forks a worker that computes shard 1 of each
    step and the tail of each split predict; where that fork fails
    (EAGAIN, ENOMEM) there is no worker.  The worker inherits the
    model and the windows at fork, so no window is pickled.  Without a
    worker, this process computes both shards and the whole predict
    through the same methods.  Each process keeps one Workspace for the
    whole call.

    Before the fork it makes one anonymous shared mapping (MAP_SHARED,
    so the worker inherits it) of float64s: the params and shard 1's
    grads.  The worker's model reads its params from the mapping; each
    request copies the caller's current params there and is a tuple of
    plain values: ("shard", idx, key) with the minibatch's sample indices
    and dropout key, or ("predict", cut).  The worker writes a shard's
    grads into the mapping and replies with its loss, or replies with
    the (len(predict_X) - cut, K) probabilities of the tail.  A request
    that raises there raises again here with its own type, and a worker
    that is gone raises NetError.  Closing ends the worker, drops the
    mapping and gives BLAS its thread counts back."""

    def __init__(self, model: Model, train_xy, predict_X, split: bool):
        self.model, self.train_xy, self.predict_X, self.split = model, train_xy, predict_X, split
        self.ws = Workspace()
        self.worker = self.params = self.grads = None

    def __enter__(self) -> "Shards":
        with ExitStack() as stack:
            stack.enter_context(_one_blas_thread())
            if self.split and forked.spare_cpu():
                shapes = [p.shape for p in self.model.params.values()] * 2
                starts = np.cumsum([0] + [math.prod(s) for s in shapes]).tolist()
                buf = np.frombuffer(mmap.mmap(-1, 8 * starts[-1]), np.float64)
                views = [buf[a:a + math.prod(s)].reshape(s) for a, s in zip(starts, shapes)]
                self.params = dict(zip(self.model.params, views))
                self.grads = dict(zip(self.model.params, views[len(self.params):]))
                try:
                    self.worker = stack.enter_context(forked.Worker(self._serve, exited=lambda e: (
                        NetError("the shard worker exited before it replied") if e is None
                        else NetError(f"the shard worker exited: {e}"))))
                except OSError:   # no process to fork (EAGAIN, ENOMEM): compute here
                    self.params = self.grads = None
            self._close = stack.pop_all()
        return self

    def __exit__(self, *exc) -> None:
        self.worker = self.params = self.grads = None   # the mapping goes with its views
        self._close.__exit__(*exc)

    def step(self, idx: np.ndarray, key: tuple) -> tuple[float, dict]:
        """Mean loss and gradients of the minibatch `idx` of `train_xy`:
        the mean over its shards, rows [0, cut) and [cut, B) for cut =
        _cut(B, 1), weighted by shard size and summed shard 0 first.
        `key`, a tuple of ints >= 0, keys both shards' dropout masks (see
        :meth:`_shard`).  The worker, if there is one, computes shard 1
        while this process computes shard 0."""
        B = len(idx)
        cut = _cut(B, 1)
        shards = [slice(0, cut)] if cut == B else [slice(0, cut), slice(cut, B)]
        if self.worker is not None and cut < B:
            self._submit("shard", idx, key)
            parts = [self._shard(idx, shards[0], key), (self.worker.recv(), self.grads)]
        else:
            parts = [self._shard(idx, s, key) for s in shards]
        sizes = [s.stop - s.start for s in shards]
        loss = sum(n * part[0] for n, part in zip(sizes, parts)) / B
        grads = {k: sum(n * part[1][k] for n, part in zip(sizes, parts)) / B for k in parts[0][1]}
        return loss, grads

    def predict(self) -> np.ndarray:
        """`model.predict(predict_X)`, split across the two processes when
        there is a worker: this process predicts the head X[:cut] while
        the worker predicts the tail, for cut = _cut(len(X),
        PREDICT_CHUNK).  The cut is a multiple of PREDICT_CHUNK, so every
        chunk has the rows and shape it has in one `predict`, and the
        probabilities keep their bytes."""
        X = self.predict_X
        cut = len(X) if self.worker is None else _cut(len(X), PREDICT_CHUNK)
        if cut == len(X):
            return self.model.predict(X, ws=self.ws)
        self._submit("predict", cut)
        head = self.model.predict(X, ws=self.ws, rows=slice(0, cut))
        return np.concatenate([head, self.worker.recv()])

    def _shard(self, idx: np.ndarray, rows: slice, key: tuple) -> tuple[float, dict]:
        """Mean loss and gradients of the training windows idx[rows] of the
        minibatch `idx`, on this process's workspace, with dropout keep
        masks drawn from np.random.default_rng([*key, rows.start]): each
        shard's own stream, which no other shard's draw moves.  Both
        processes run their shards through this one method.  The windows
        are read only as one shard X[idx[rows]]."""
        X, y = self.train_xy
        Xs = X[idx[rows]]
        rng = np.random.default_rng([*key, rows.start])
        masks = self.model.dropout_masks(len(Xs), _batch_shape(Xs)[1], rng, self.ws)
        return self.model.loss_and_grads(Xs, y[idx[rows]], masks=masks, ws=self.ws)

    def _submit(self, *request) -> None:
        for k, p in self.model.params.items():
            self.params[k][...] = p
        self.worker.send(request)

    def _serve(self, conn) -> None:
        """The worker's loop: serve requests on its copy of the workspace
        until the caller closes its end of the pipe or a request raises."""
        self.model.params = self.params
        while True:
            kind, *args = conn.recv()
            if kind == "shard":
                idx, key = args
                out, grads = self._shard(idx, slice(_cut(len(idx), 1), len(idx)), key)
                for k, g in grads.items():
                    self.grads[k][...] = g
            else:
                out = self.model.predict(self.predict_X, ws=self.ws, rows=slice(args[0], None))
            conn.send(out)


def split_predict(model: Model, X) -> np.ndarray:
    """`model.predict(X)`'s probabilities, byte for byte, computed with
    numpy's BLAS at one thread.  When X holds more than 2 * PREDICT_CHUNK
    windows and the affinity mask two CPUs or more, a predict-only worker
    forked for this call predicts the tail (see :meth:`Shards.predict`)
    and exits before the call returns.  Forking, the worker's first page
    faults and the join cost most of one chunk's predict (12-13 ms with
    the worker placed off this process's CPU, against 15-20 ms for a
    64-window chunk of a 64x64 LSTM at T=100 on two cores), so at two
    chunks or fewer this process predicts alone: the split lost every
    alternating pair at 65 and 96 windows, won about half at 128 and
    129 and every one at 256."""
    with Shards(model, None, X, split=len(X) > 2 * PREDICT_CHUNK) as shards:
        return shards.predict()


def _cut(n: int, unit: int) -> int:
    """Where n rows split between two processes: the multiple of `unit`
    nearest n/2 (the larger one on a tie), at least `unit` and at most
    n.  A cut of n leaves the second part empty."""
    return min(n, max(unit, (n + unit) // (2 * unit) * unit))


@functools.cache
def _openblas() -> tuple:
    """The (get, set) thread-count functions of each OpenBLAS loaded in
    this process that exports scipy-openblas's 64-bit-integer names or
    OpenBLAS's plain ones, found through the shared objects that
    /proc/self/maps lists; empty where there is no such file.  That is
    numpy's BLAS.  scipy's own libscipy_openblas, loaded only once a
    p-value or the oracle's quadrature is computed, exports neither and
    is not found; `train` and `predict` never load or reach it."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split(None, 5)[-1].strip() for line in fh
                            if "openblas" in line.rsplit("/", 1)[-1]})
    except OSError:
        return ()
    found = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get, put in (("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
                         ("openblas_get_num_threads", "openblas_set_num_threads")):
            if hasattr(lib, get) and hasattr(lib, put):
                get, put = getattr(lib, get), getattr(lib, put)
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                found.append((get, put))
                break
    return tuple(found)


@contextmanager
def _one_blas_thread():
    """Run the block with each OpenBLAS that :func:`_openblas` finds,
    numpy's, at one thread and give each its old thread count back on
    exit.  Two processes on two CPUs would otherwise start a BLAS thread
    per CPU each, and the trained bytes would depend on the thread
    count.  The BLAS that scipy loads for itself, in a process that
    computes a p-value, keeps its count, which is enough: `train` and
    `predict` run their GEMMs through numpy and load no scipy."""
    libs = _openblas()
    counts = [get() for get, _ in libs]
    for _, put in libs:
        put(1)
    try:
        yield
    finally:
        for (_, put), n in zip(libs, counts):
            put(n)
