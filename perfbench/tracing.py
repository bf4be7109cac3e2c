"""Span tracing around lobflow's public layer functions.

Nothing in ``src/`` is touched: :func:`traced` swaps timing wrappers in
for the public functions and methods of ``lobflow.feed``, ``lob``,
``features``, ``net``, ``stats``, ``svg`` and ``cli`` (``lobflow.oracle``
is never wrapped) and puts the originals back on exit.

Spans are aggregated per ``(parent span, span)`` key rather than
kept one by one, because ``lob.apply`` and ``feed.read`` fire once per
event.  A span's self time is its duration minus the time covered by
the spans it directly encloses.  Lazily produced events are timed per
``next()`` call, so parsing is charged to ``feed.read`` wherever the
stream is consumed.
"""

from __future__ import annotations

import functools
import os
from contextlib import contextmanager
from time import perf_counter

from lobflow import cli, feed, features, lob, net, stats, svg

# aggregate slots: calls, inclusive seconds, seconds in direct child spans,
# items, direct child spans, all descendant spans
_N, _TOTAL, _CHILD, _ITEMS, _DIRECT, _DESC = range(6)


class Tracer:
    """Span aggregates keyed by (parent span, span), plus named counters.

    `cost` is the wrapper's own time per span, as (seconds inside the
    span's interval, seconds charged to its parent); see :func:`calibrate`.
    Times read back through :meth:`total` and :meth:`self_time` have it
    taken out.
    """

    def __init__(self, cost: tuple = (0.0, 0.0)):
        self.inside, self.outside = cost
        self.agg: dict[tuple, list] = {}
        self.counters: dict[str, float] = {}
        self.books: dict[int, lob.OrderBook] = {}
        self._stack: list = []   # open spans: [name, child seconds, direct, descendants]

    def call(self, name, fn, args, kwargs, observe=None):
        stack = self._stack
        parent = stack[-1] if stack else None
        frame = [name, 0.0, 0, 0]
        stack.append(frame)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            dur = perf_counter() - t0
            stack.pop()
            if parent is not None:
                parent[1] += dur
                parent[2] += 1
                parent[3] += frame[3] + 1
            key = (parent[0] if parent is not None else None, name)
            a = self.agg.get(key)
            if a is None:
                a = self.agg[key] = [0, 0.0, 0.0, 0, 0, 0]
            a[_N] += 1
            a[_TOTAL] += dur
            a[_CHILD] += frame[1]
            a[_DIRECT] += frame[2]
            a[_DESC] += frame[3]
        if observe is not None:
            a[_ITEMS] += observe(self, key[0], args, result)
        return result

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- queries -------------------------------------------------------------

    def select(self, name=None, prefix=None, parent=...) -> list:
        """Aggregate rows matching a span name (or name prefix) and parent."""
        rows = []
        for (par, nm), a in self.agg.items():
            if name is not None and nm != name:
                continue
            if prefix is not None and not nm.startswith(prefix):
                continue
            if parent is not ... and par != parent:
                continue
            rows.append(a)
        return rows

    def total(self, **kw) -> float:
        """Inclusive seconds, less the wrappers' cost in the span and below it."""
        per_span = self.inside + self.outside
        return sum(a[_TOTAL] - a[_N] * self.inside - a[_DESC] * per_span
                   for a in self.select(**kw))

    def self_time(self, **kw) -> float:
        """Seconds outside direct child spans, less the wrappers' cost."""
        return sum(a[_TOTAL] - a[_CHILD] - a[_N] * self.inside - a[_DIRECT] * self.outside
                   for a in self.select(**kw))

    def calls(self, **kw) -> int:
        return sum(a[_N] for a in self.select(**kw))

    def items(self, **kw) -> float:
        return sum(a[_ITEMS] for a in self.select(**kw))

    def counter(self, name: str) -> float:
        return self.counters.get(name, 0)


def _noop():
    return None


def calibrate(n: int = 20_000, repeats: int = 3) -> tuple:
    """Wrapper cost per span: (inside its own interval, charged to its parent).

    Times `n` wrapped no-op calls under one enclosing span; the least of
    `repeats` trials is kept.
    """
    best = None
    for _ in range(repeats):
        t = Tracer()
        inner = _wrap(t, _noop, "inner", _obs_none)

        def loop():
            for _ in range(n):
                inner()

        t.call("outer", loop, (), {})
        inside = t.agg[("outer", "inner")][_TOTAL] / n
        outer = t.agg[(None, "outer")]
        outside = (outer[_TOTAL] - outer[_CHILD]) / n
        if best is None or inside + outside < sum(best):
            best = (inside, outside)
    return best


class _TracedStream:
    """Iterator proxy timing each `next()` of an event stream as a span."""

    def __init__(self, tracer: Tracer, inner):
        self._tracer = tracer
        self._inner = inner

    def __iter__(self):
        return self

    def __next__(self):
        return self._tracer.call("feed.read", next, (self._inner,), {}, _obs_event)


# -- observers: (tracer, parent span, call args, result) -> items -------------


def _obs_none(tracer, parent, args, result):
    return 0


def _obs_event(tracer, parent, args, result):
    return 1


def _obs_book(tracer, parent, args, result):
    tracer.books[id(args[0])] = args[0]
    return 0


def _obs_batch(tracer, parent, args, result):
    return len(args[1])


def _lstm_gemm_flops(cfg, batch: int, T: int) -> int:
    """Multiply-adds x 2 of the LSTM input and recurrent GEMMs of one forward."""
    flops, width = 0, cfg.input_width
    for H in cfg.layers:
        flops += 2 * batch * T * 4 * H * (width + H)
        width = H
    return flops


def _obs_forward(tracer, parent, args, result):
    model, X = args[0], args[1]
    if parent == "net.train":
        # backward runs the same GEMMs twice over (dW and d-input), hence x3
        tracer.count("net.train_flop", 3 * _lstm_gemm_flops(model.cfg, X.shape[0], X.shape[1]))
    return len(X)


def _obs_build(tracer, parent, args, result):
    datasets = list(result.values())
    if datasets:
        c = datasets[0].counters
        tracer.count("features.samples", datasets[0].n)
        tracer.count("features.samples_skipped",
                     c.get("skipped_insufficient_history", 0)
                     + c.get("skipped_undefined_mid", 0))
        tracer.count("features.window_bytes", sum(ds.X.nbytes for ds in datasets))
    return 0


def _obs_save(tracer, parent, args, result):
    return os.path.getsize(args[1])


# (owner, attribute, span name, observer)
_SPANS = (
    (feed, "write_stream", "feed.generate", None),
    (lob.OrderBook, "apply_event", "lob.apply", _obs_book),
    (lob.OrderBook, "snapshot", "lob.snapshot", None),
    (features, "build_datasets", "features.build", _obs_build),
    (features, "split_by_date", "features.split", None),
    (features, "compute_norm_stats", "features.norm", None),
    (features, "save_dataset", "features.save", _obs_save),
    (features, "load_dataset", "features.load", None),
    (features, "dataset_digest", "features.digest", None),
    (features.Dataset, "subset", "features.subset", None),
    (net, "train", "net.train", None),
    (net.Model, "forward", "net.forward", _obs_forward),
    (net.Model, "backward", "net.backward", None),
    (net.Model, "predict", "net.predict", _obs_batch),
    (net, "adam_step", "net.adam", None),
    (net, "save_checkpoint", "net.ckpt_save", None),
    (net, "load_checkpoint", "net.ckpt_load", None),
    (stats, "daily_market_aggregates", "stats.daily_market_aggregates", None),
    (stats, "daily_mcc", "stats.daily_mcc", None),
    (stats, "slope_regression", "stats.slope_regression", None),
    (stats, "paired_t_test", "stats.paired_t_test", None),
    (stats, "universality_drop", "stats.universality_drop", None),
    (stats, "confusion", "stats.confusion", None),
    (stats, "mcc", "stats.mcc", None),
    (svg, "line_chart", "svg.render", None),
    (cli, "main", "cli.main", None),
    (cli, "cmd_generate", "cli.generate", None),
    (cli, "cmd_build", "cli.build", None),
    (cli, "cmd_train", "cli.train", None),
    (cli, "cmd_evaluate", "cli.evaluate", None),
    (cli, "cmd_report", "cli.report", None),
)


def _wrap(tracer: Tracer, fn, name: str, observe):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, observe)
    return wrapper


@contextmanager
def traced(tracer: Tracer):
    """Install the layer wrappers for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, observe in _SPANS:
            fn = owner.__dict__[attr]
            saved.append((owner, attr, fn))
            setattr(owner, attr, _wrap(tracer, fn, name, observe))
        read_events = feed.read_events
        saved.append((feed, "read_events", read_events))
        feed.read_events = functools.wraps(read_events)(
            lambda path: _TracedStream(tracer, read_events(path)))
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


# name -> unit, in report order; every workload reports every name
LAYER_UNITS = {
    "feed.events": "count", "feed.parse_s": "s", "feed.events_per_s": "1/s",
    "feed.generate_s": "s",
    "lob.apply_calls": "count", "lob.apply_s": "s",
    "lob.snapshot_calls": "count", "lob.snapshot_s": "s",
    "lob.dropped_market_events": "count",
    "features.self_s": "s", "features.samples": "count",
    "features.samples_skipped": "count", "features.sample_yield": "ratio",
    "features.window_bytes": "bytes", "features.norm_s": "s", "features.save_s": "s",
    "features.ds_bytes": "bytes", "features.load_s": "s",
    "net.train_steps": "count", "net.forward_s": "s", "net.backward_s": "s",
    "net.adam_s": "s", "net.train_self_s": "s", "net.val_predict_s": "s",
    "net.train_samples_per_s": "samples/s", "net.train_gflop_per_s": "GFLOP/s",
    "net.predict_samples": "count", "net.predict_s": "s",
    "net.predict_samples_per_s": "samples/s",
    "net.ckpt_save_s": "s", "net.ckpt_load_s": "s",
    "stats.self_s": "s", "svg.render_s": "s", "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(setup: Tracer, run: Tracer, overhead_s: float) -> dict:
    """Per-layer values of one traced pass, keyed as in LAYER_UNITS.

    `setup` traced the workload's input preparation and `run` one timed
    pass.  Only ``feed.generate_s`` and the ``features.*`` values draw on
    the set-up trace (on `learn` the orderflow `.ds` is built there).
    """
    m: dict[str, float] = {}

    def over(fn, **kw):
        return fn(setup, **kw) + fn(run, **kw)

    def ctr(name):
        return setup.counter(name) + run.counter(name)

    events = run.items(name="feed.read")
    parse_s = run.self_time(name="feed.read")
    m["feed.events"] = events
    m["feed.parse_s"] = parse_s
    m["feed.events_per_s"] = _ratio(events, parse_s)
    m["feed.generate_s"] = setup.total(name="feed.generate")

    m["lob.apply_calls"] = run.calls(name="lob.apply")
    m["lob.apply_s"] = run.self_time(name="lob.apply")
    m["lob.snapshot_calls"] = run.calls(name="lob.snapshot")
    m["lob.snapshot_s"] = run.self_time(name="lob.snapshot")
    m["lob.dropped_market_events"] = sum(b.dropped_market_events for b in run.books.values())

    samples, skipped = ctr("features.samples"), ctr("features.samples_skipped")
    m["features.self_s"] = over(Tracer.self_time, prefix="features.")
    m["features.samples"] = samples
    m["features.samples_skipped"] = skipped
    m["features.sample_yield"] = _ratio(samples, samples + skipped)
    m["features.window_bytes"] = ctr("features.window_bytes")
    m["features.norm_s"] = over(Tracer.total, name="features.norm")
    m["features.save_s"] = over(Tracer.total, name="features.save")
    m["features.ds_bytes"] = over(Tracer.items, name="features.save")
    m["features.load_s"] = run.total(name="features.load")

    train_samples = run.items(name="net.forward", parent="net.train")
    fwd_s = run.total(name="net.forward", parent="net.train")
    bwd_s = run.total(name="net.backward", parent="net.train")
    train_s = run.total(name="net.train")
    m["net.train_steps"] = run.calls(name="net.adam", parent="net.train")
    m["net.forward_s"] = fwd_s
    m["net.backward_s"] = bwd_s
    m["net.adam_s"] = run.total(name="net.adam", parent="net.train")
    m["net.train_self_s"] = run.self_time(name="net.train")
    m["net.val_predict_s"] = run.total(name="net.predict", parent="net.train")
    m["net.train_samples_per_s"] = _ratio(train_samples, train_s)
    m["net.train_gflop_per_s"] = _ratio(run.counter("net.train_flop") / 1e9, fwd_s + bwd_s)
    # predict calls outside training: the evaluate stage
    predict_samples = (run.items(name="net.predict")
                       - run.items(name="net.predict", parent="net.train"))
    predict_s = run.total(name="net.predict") - m["net.val_predict_s"]
    m["net.predict_samples"] = predict_samples
    m["net.predict_s"] = predict_s
    m["net.predict_samples_per_s"] = _ratio(predict_samples, predict_s)
    m["net.ckpt_save_s"] = run.total(name="net.ckpt_save")
    m["net.ckpt_load_s"] = run.total(name="net.ckpt_load")

    m["stats.self_s"] = run.self_time(prefix="stats.")
    m["svg.render_s"] = run.total(name="svg.render")
    m["cli.self_s"] = run.self_time(prefix="cli.")
    m["trace.overhead_s"] = overhead_s
    return m
