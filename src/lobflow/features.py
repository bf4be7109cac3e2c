"""Dataset construction: labelling, per-event tables, date splits.

The replayed stream is turned into length-T samples, one per mid-price
moving event, labelled 1 for an upward move and 0 for a downward move.
Each variant stores its features once per replayed event, as one row of
a table; a sample stores only the end index of its window, which is the
table rows [end - T, end) of the T events strictly preceding the mover.
`Dataset.X` gathers the (N, T, F) windows from the table on demand.
Three variants are built in one pass on shared labels and window ends:

  orderflow  per event: [dt_ms, hour, size, kind, side, rel_price]
  bench1     per event: [bid px*S, bid vol*S, ask px*S, ask vol*S, mid,
                         mo_rate_buy, mo_rate_sell]
  bench2     bench1 without the two MO-rate columns

The MO rates depend on the window, so the bench1 table holds the
best-bid and best-ask order counts and buy and sell market-order flags
in their place.  The gather derives each rate as the number of market
orders of that side in the window over that step's best-level order
count (0 when the count is 0).

Feature values are stored raw; the normalization applied at the model
input (log1p on dt, log on size and rel_price, snapshot prices as tick
offsets from the stored mid column, volumes log1p) is computed here on
the train split only and recorded in the dataset header.  The `mid`
column in the snapshot variants exists solely to support that offset
transform and is dropped by the encoder.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Iterable, Optional

import numpy as np

from . import lob
from .feed import EventKind, OrderEvent, Side

VARIANTS = ("orderflow", "bench1", "bench2")

SPLIT_NONE, SPLIT_TRAIN, SPLIT_VAL, SPLIT_TEST = -1, 0, 1, 2
SPLIT_NAMES = {"train": SPLIT_TRAIN, "validation": SPLIT_VAL, "test": SPLIT_TEST}


class FeatureError(Exception):
    pass


class OverlappingRanges(FeatureError):
    pass


class UnorderedRanges(FeatureError):
    pass


class MissingStats(FeatureError):
    pass


def hour_utc(timestamp_ms):
    return (timestamp_ms // 3_600_000) % 24


def warm_up(events: Iterable[OrderEvent], book: Optional[lob.OrderBook] = None,
            until_ts: Optional[int] = None, until_count: Optional[int] = None):
    """Apply the stream prefix to the book without emitting anything.

    The boundary is either a timestamp (events with ts < until_ts are
    consumed) or an event count.  Returns (book, consumed, remaining
    iterator, last_consumed_ts).
    """
    if (until_ts is None) == (until_count is None):
        raise ValueError("exactly one of until_ts / until_count required")
    book = book if book is not None else lob.OrderBook()
    it = iter(events)
    consumed = 0
    last_ts = None
    for ev in it:
        if until_ts is not None and ev.timestamp_ms >= until_ts:
            return book, consumed, chain([ev], it), last_ts
        if until_count is not None and consumed >= until_count:
            return book, consumed, chain([ev], it), last_ts
        book.apply_event(ev)
        consumed += 1
        last_ts = ev.timestamp_ms
    return book, consumed, iter(()), last_ts


# ---------------------------------------------------------------------------
# Dataset container
# ---------------------------------------------------------------------------


def _table_width(variant: str, S: int) -> int:
    if variant == "orderflow":
        return 6
    return 4 * S + (5 if variant == "bench1" else 1)


def _cumsum0(a: np.ndarray) -> np.ndarray:
    """Cumulative sums along axis 0 with a leading zero row: c[j] = a[:j].sum(0)."""
    return np.concatenate((np.zeros((1,) + a.shape[1:]), np.cumsum(a, axis=0)))


@dataclass
class Dataset:
    variant: str
    T: int
    S: int
    pair: str
    table: np.ndarray        # (E, C) float64, raw columns of each replayed event
    table_ts: np.ndarray     # (E,) int64 ms, timestamp of each table row's event
    end: np.ndarray          # (N,) int64, sample window is table rows [end - T, end)
    y: np.ndarray            # (N,) uint8
    event_time: np.ndarray   # (N,) int64 ms, labelling-event timestamp
    split: np.ndarray        # (N,) int8, SPLIT_* codes
    norm_stats: Optional[dict] = None   # {"mean": [...], "sd": [...]} per encoded channel
    split_ranges: Optional[dict] = None
    counters: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.y)

    @property
    def X(self) -> np.ndarray:
        """(N, T, F) float64 raw feature windows, gathered from the table."""
        return _gather(self, self.end)

    @property
    def window_last_ts(self) -> np.ndarray:
        """(N,) int64 ms, timestamp of each window's newest event (look-ahead audit)."""
        return self.table_ts[self.end - 1]

    def subset(self, split_name: str) -> "Dataset":
        m = self.split == SPLIT_NAMES[split_name]
        return Dataset(self.variant, self.T, self.S, self.pair, self.table, self.table_ts,
                       self.end[m], self.y[m], self.event_time[m], self.split[m],
                       self.norm_stats, self.split_ranges, dict(self.counters))

    def split_counts(self) -> dict:
        return {name: int(np.sum(self.split == code)) for name, code in SPLIT_NAMES.items()}


def _gather(ds: Dataset, end: np.ndarray) -> np.ndarray:
    """The (len(end), T, F) windows ending before the given table rows."""
    rows = end[:, None] - ds.T + np.arange(ds.T)
    if ds.variant != "bench1":
        return ds.table[rows]
    w = 4 * ds.S + 1
    X = np.zeros(rows.shape + (w + 2,))
    X[..., :w] = ds.table[rows, :w]
    mo = _cumsum0(ds.table[:, w + 2:])
    n_mo = (mo[end] - mo[end - ds.T])[:, None, :]
    counts = ds.table[rows, w:w + 2]
    np.divide(n_mo, counts, out=X[..., w:], where=counts > 0)
    return X


def build_datasets(events: Iterable[OrderEvent], T: int, S: int, pair: str = "SYN",
                   warm_until_ts: Optional[int] = None, warm_count: Optional[int] = None,
                   variants: tuple = VARIANTS) -> dict[str, Dataset]:
    """Single replay pass producing every requested variant on shared labels.

    Movers with fewer than T events since the warm-up are skipped.  When a
    snapshot variant is requested, samples whose window holds an event
    with no defined mid are dropped from all variants so the variants
    stay index-aligned.
    """
    counters: dict = {}
    need_snap = any(v != "orderflow" for v in variants)
    need_counts = "bench1" in variants
    if warm_until_ts is None and warm_count is None:
        warm_count = 0
    book, n_warm, rest, warm_last_ts = warm_up(iter(events), until_ts=warm_until_ts,
                                               until_count=warm_count)
    counters["warmup_events"] = n_warm

    ts, flow, snaps, ends, labels, times = [], [], [], [], [], []
    for j, ev in enumerate(rest):
        try:
            rel = book.relative_price(ev.side, ev.price_ticks)
        except lob.EmptySide:
            # no same-side best yet (stream head); at-best by convention
            rel = 1
            counters["rel_price_fallbacks"] = counters.get("rel_price_fallbacks", 0) + 1
        delta = book.apply_event(ev)
        ts.append(ev.timestamp_ms)
        flow.append((ev.size, ev.kind.value, ev.side.value, rel))
        if need_snap:
            s = book.snapshot(S)
            row = s.bid_prices + s.bid_volumes + s.ask_prices + s.ask_volumes
            row.append(float(delta.mid_after) if delta.mid_after is not None else np.nan)
            if need_counts:
                row.append(book.level_count(Side.BUY, book.best_bid()))
                row.append(book.level_count(Side.SELL, book.best_ask()))
            snaps.append(row)
        if delta.mid_changed:
            if j >= T:
                ends.append(j)
                labels.append(1 if delta.mid_after > delta.mid_before else 0)
                times.append(ev.timestamp_ms)
            else:
                counters["skipped_insufficient_history"] = \
                    counters.get("skipped_insufficient_history", 0) + 1
        elif delta.mid_before is None and delta.mid_after is not None:
            counters["mid_became_defined"] = counters.get("mid_became_defined", 0) + 1

    ts = np.asarray(ts, dtype=np.int64)
    flow = np.asarray(flow, dtype=np.float64).reshape(len(ts), 4)
    end = np.asarray(ends, dtype=np.int64)
    y = np.asarray(labels, dtype=np.uint8)
    t = np.asarray(times, dtype=np.int64)
    dt = np.diff(ts, prepend=ts[:1] if warm_last_ts is None else warm_last_ts)
    tables = {"orderflow": np.column_stack((dt, hour_utc(ts), flow))}
    if need_snap:
        w = 4 * S + 1
        snap = np.asarray(snaps, dtype=np.float64).reshape(len(ts), w + 2 * need_counts)
        undefined = _cumsum0(np.isnan(snap[:, w - 1]))
        keep = undefined[end] == undefined[end - T]
        if not keep.all():
            counters["skipped_undefined_mid"] = int(np.sum(~keep))
            end, y, t = end[keep], y[keep], t[keep]
        tables["bench2"] = snap[:, :w]
        if need_counts:
            kind, side = flow[:, 1], flow[:, 2]
            market = kind == EventKind.MARKET.value
            tables["bench1"] = np.column_stack((snap, market & (side == Side.BUY.value),
                                                market & (side == Side.SELL.value)))
    counters["samples"] = len(end)
    return {v: Dataset(v, T, S, pair, tables[v], ts, end.copy(), y.copy(), t.copy(),
                       np.full(len(y), SPLIT_NONE, dtype=np.int8), counters=dict(counters))
            for v in variants}


def split_by_date(ds: Dataset, train_range, val_range, test_range) -> Dataset:
    """Tag samples by half-open [start_ms, end_ms) ranges; drop the rest.

    Ranges must be disjoint and ordered train < validation < test.
    """
    ranges = [("train", train_range), ("validation", val_range), ("test", test_range)]
    for name, (a, b) in ranges:
        if not a < b:
            raise UnorderedRanges(f"{name} range is empty or inverted")
    for (n1, r1), (n2, r2) in zip(ranges, ranges[1:]):
        if r1[0] < r2[1] and r2[0] < r1[1]:
            raise OverlappingRanges(f"{n1} and {n2} ranges overlap")
        if r1[1] > r2[0]:
            raise UnorderedRanges(f"{n1} range must precede {n2}")
    split = np.full(ds.n, SPLIT_NONE, dtype=np.int8)
    for name, (a, b) in ranges:
        split[(ds.event_time >= a) & (ds.event_time < b)] = SPLIT_NAMES[name]
    ds.split = split
    ds.split_ranges = {name: list(rng) for name, rng in ranges}
    ds.counters["dropped_outside_ranges"] = int(np.sum(split == SPLIT_NONE))
    return ds


# ---------------------------------------------------------------------------
# Encoder-side numeric transforms and train-split statistics
# ---------------------------------------------------------------------------


def transform_numeric(X: np.ndarray, variant: str, S: int) -> np.ndarray:
    """Map raw features to the numeric channels the model standardizes.

    orderflow: (..., 3) = [log1p dt, log size, log rel_price]
    bench*:    (..., 4S [+2]) = [px - mid, log1p vol, raw rates]
    """
    if variant == "orderflow":
        return np.stack([np.log1p(X[..., 0]), np.log(X[..., 2]), np.log(X[..., 5])], axis=-1)
    mid = X[..., 4 * S:4 * S + 1]
    bid_off = X[..., 0:S] - mid
    ask_off = X[..., 2 * S:3 * S] - mid
    parts = [bid_off, np.log1p(X[..., S:2 * S]), ask_off, np.log1p(X[..., 3 * S:4 * S])]
    if variant == "bench1":
        parts.append(X[..., 4 * S + 1:4 * S + 3])
    return np.concatenate(parts, axis=-1)


def compute_norm_stats(ds: Dataset) -> dict:
    """Per-channel mean/sd of the transformed numerics, train split only."""
    train = _gather(ds, ds.end[ds.split == SPLIT_TRAIN])
    if len(train) == 0:
        raise MissingStats("no train samples to fit normalization on")
    z = transform_numeric(train, ds.variant, ds.S).reshape(-1, _numeric_width(ds.variant, ds.S))
    mean = z.mean(axis=0)
    sd = np.maximum(z.std(axis=0), 1e-8)
    ds.norm_stats = {"mean": mean.tolist(), "sd": sd.tolist()}
    return ds.norm_stats


def _numeric_width(variant: str, S: int) -> int:
    if variant == "orderflow":
        return 3
    return 4 * S + (2 if variant == "bench1" else 0)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

_MAGIC = b"OFDS"
_VERSION = 2
_PREFIX = struct.Struct("<4sII")   # magic, version, header length


def save_dataset(ds: Dataset, path) -> None:
    """Header, then table (E, C) float64, table_ts (E,) int64 and the
    per-sample end int64, y uint8, event_time int64 and split int8."""
    header = {
        "format": "lobflow-dataset", "version": _VERSION,
        "variant": ds.variant, "T": ds.T, "S": ds.S, "pair": ds.pair,
        "n": ds.n, "events": len(ds.table_ts), "table_width": int(ds.table.shape[1]),
        "norm_stats": ds.norm_stats, "split_ranges": ds.split_ranges,
        "counters": ds.counters,
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_PREFIX.pack(_MAGIC, _VERSION, len(blob)))
        fh.write(blob)
        for arr, dtype in ((ds.table, np.float64), (ds.table_ts, np.int64),
                           (ds.end, np.int64), (ds.y, np.uint8),
                           (ds.event_time, np.int64), (ds.split, np.int8)):
            fh.write(np.ascontiguousarray(arr, dtype=dtype).tobytes())


def load_dataset(path) -> Dataset:
    """Read a version-2 `.ds`; its size must be exactly what its header declares."""
    data = Path(path).read_bytes()
    if len(data) < _PREFIX.size or data[:4] != _MAGIC:
        raise FeatureError(f"not a dataset file: bad magic {data[:4]!r}")
    _, version, hlen = _PREFIX.unpack_from(data)
    if version != _VERSION:
        hint = " (it stores whole windows; rebuild it with `lobflow build`)" if version == 1 else ""
        raise FeatureError(f"unsupported dataset version {version} in {path}{hint}")
    try:
        header = json.loads(data[_PREFIX.size:_PREFIX.size + hlen].decode("utf-8"))
        variant, T, S, n = header["variant"], header["T"], header["S"], header["n"]
        E, C = header["events"], header["table_width"]
    except (ValueError, KeyError, TypeError) as e:
        raise FeatureError(f"{path}: bad dataset header: {e}") from e
    if not all(type(v) is int and v >= 0 for v in (T, S, n, E, C)):
        raise FeatureError(f"{path}: bad dataset header: sizes must be non-negative integers")
    widths = [E * C * 8, E * 8, n * 8, n, n * 8, n]
    if variant not in VARIANTS or C != _table_width(variant, S):
        raise FeatureError(f"{path}: table width {C} does not fit variant {variant!r}, S={S}")
    if len(data) != _PREFIX.size + hlen + sum(widths):
        raise FeatureError(f"{path}: {len(data)} bytes, header declares "
                           f"{_PREFIX.size + hlen + sum(widths)}")
    arrays, offset = [], _PREFIX.size + hlen
    for size, dtype in zip(widths, (np.float64, np.int64, np.int64, np.uint8, np.int64, np.int8)):
        arrays.append(np.frombuffer(data, dtype=dtype, count=size // np.dtype(dtype).itemsize,
                                    offset=offset).copy())
        offset += size
    table, table_ts, end, y, t, split = arrays
    if n and (end.min() < T or end.max() > E):
        raise FeatureError(f"{path}: window ends outside the {E}-event table")
    return Dataset(variant, T, S, header["pair"], table.reshape(E, C), table_ts, end, y, t,
                   split, header["norm_stats"], header["split_ranges"],
                   header["counters"] or {})


def export_text(ds: Dataset, path) -> None:
    """Lossless text form: header line, then one line per sample."""
    header = {"variant": ds.variant, "T": ds.T, "S": ds.S, "pair": ds.pair, "n": ds.n,
              "norm_stats": ds.norm_stats, "split_ranges": ds.split_ranges,
              "counters": ds.counters}
    X, wlast = ds.X, ds.window_last_ts
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True))
        fh.write("\n")
        for i in range(ds.n):
            feats = " ".join(repr(float(v)) for v in X[i].ravel())
            fh.write(f"{int(ds.y[i])} {int(ds.event_time[i])} {int(wlast[i])} "
                     f"{int(ds.split[i])} {feats}\n")


def dataset_digest(ds: Dataset) -> str:
    """Stable content hash used by determinism checks."""
    h = hashlib.sha256()
    h.update(json.dumps([ds.variant, ds.T, ds.S, ds.pair, ds.norm_stats, ds.split_ranges],
                        sort_keys=True).encode())
    for arr in (ds.X, ds.y, ds.event_time, ds.split, ds.window_last_ts):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()
