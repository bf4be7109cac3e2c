"""Dataset construction: labelling, per-event tables, date splits.

The replayed stream is turned into length-T samples, one per mid-price
moving event, labelled 1 for an upward move and 0 for a downward move.
Each variant stores its features once per replayed event, as one row of
a table; a sample stores only its label and the table row `end` of its
mover, whose window is the rows [end - T, end) of the T events strictly
preceding it.  Everything else about a sample is derived: `Dataset.X`
gathers the (N, T, C) windows as plain table rows, the event time is the
mover's `table_ts[end]`, and the split is the one of the dataset's
`split_ranges` that holds that time.  The stream's first `warm_count`
events only build the book; one loop then replays every later event
into the same book and records for it only what needs the live book:
the event's raw fields (ts, size, kind and side codes, int64 price), the
best bid and ask after it and, for the snapshot variants, which stored
snapshot half of each side it shows.  The book hands back a side's same
half, which ends in that side's best-level order count, until an event
reaches its levels (see :mod:`lobflow.lob`), so a half is stored only
when its object changes, and the snapshot table is filled column by
column from the stored halves.  numpy then derives every other column
from those: the relative price from the previous row's same-side best,
the half-tick mids before and after each event and from them the mid
moves, labels and mid column, and the market-order flags.  Prices and
mids stay exact integers until one cast to float at the end.  Three
variants are built in that pass on shared labels and window ends:

  orderflow  per event: [dt_ms, hour, size, kind, side, rel_price]
  bench1     per event: [bid px*S, bid vol*S, ask px*S, ask vol*S, mid,
                         bid orders, ask orders, buy MO, sell MO]
  bench2     bench1's first 4S + 1 columns

bench1's features end in two market-order rates, which depend on the
window, so its row holds what they are made of: the order counts of the
best bid and best ask levels and 0/1 flags for a buy or sell market
order.  `transform_numeric` derives each rate where the window is
encoded: the number of market orders of that side in the window over
that step's best-level order count (0 when the count is 0).

Feature values are stored raw; the normalization applied at the model
input (log1p on dt, log on size and rel_price, snapshot prices as tick
offsets from the stored mid column, volumes log1p) is computed here on
the train split only and recorded in the dataset header.  The `mid`
column in the snapshot variants exists solely to support that offset
transform and is dropped by the encoder.

Building never gathers windows: the train statistics weight each table
row by the number of train windows that hold it, and the dataset digest
hashes the stored arrays and the split ranges, of which the windows,
event times and splits are functions.  Training and evaluation gather
one minibatch or predict chunk at a time, through `Dataset.windows`;
`Dataset.X`, all windows at once, is kept for tests, demos and the
benchmark.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field, replace
from itertools import islice
from typing import Iterable, Optional

import numpy as np

from . import checks, container, lob
from .feed import EventKind, OrderEvent, Side

VARIANTS = ("orderflow", "bench1", "bench2")

# the longest window (events) and the deepest book snapshot (levels) a
# run config may ask for, so that an oversized value stops before any
# work; net.ModelConfig bounds S too, so a checkpoint header cannot ask
# for more
MAX_T = 10_000
MAX_S = 100

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


# ---------------------------------------------------------------------------
# Dataset container
# ---------------------------------------------------------------------------


def table_width(variant: str, S: int) -> int:
    """Columns of a variant's table row, and so of each step of its windows."""
    if variant == "orderflow":
        return 6
    return 4 * S + (5 if variant == "bench1" else 1)


def _cumsum0(a: np.ndarray) -> np.ndarray:
    """Cumulative sums along axis 0 with a leading zero row: c[j] = a[:j].sum(0)."""
    return np.concatenate((np.zeros((1,) + a.shape[1:]), np.cumsum(a, axis=0)))


@dataclass
class Dataset:
    """One variant's event table and samples.  Sample i is labelled by
    the event of table row end[i] and sees the rows [end[i] - T, end[i]);
    its event time, split and window are read from those rows and the
    split ranges, never stored."""

    variant: str
    T: int
    S: int
    pair: str
    table: np.ndarray        # (E, C) float64, raw columns of each replayed event
    table_ts: np.ndarray     # (E,) int64 ms, timestamp of each table row's event
    end: np.ndarray          # (N,) int64, table row of each sample's mover
    y: np.ndarray            # (N,) uint8
    norm_stats: Optional[dict] = None   # {"mean": [...], "sd": [...]} per encoded channel
    split_ranges: Optional[dict] = None  # {name: [start_ms, end_ms]}, see check_split_ranges
    counters: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.y)

    @property
    def event_time(self) -> np.ndarray:
        """(N,) int64 ms, timestamp of each sample's labelling event."""
        return self.table_ts[self.end]

    @property
    def split(self) -> np.ndarray:
        """(N,) int8 SPLIT_* code of the split range holding each event
        time; SPLIT_NONE outside them, or everywhere without ranges."""
        split = np.full(self.n, SPLIT_NONE, dtype=np.int8)
        if self.split_ranges is not None:
            t = self.event_time
            for name, code in SPLIT_NAMES.items():
                a, b = self.split_ranges[name]
                split[(t >= a) & (t < b)] = code
        return split

    @property
    def X(self) -> np.ndarray:
        """(N, T, C) float64 raw feature windows, gathered from the table."""
        return _gather(self, self.end)

    @property
    def windows(self) -> "Windows":
        """The windows of `X`, gathered only for the samples indexed."""
        return Windows(self)

    @property
    def window_last_ts(self) -> np.ndarray:
        """(N,) int64 ms, timestamp of each window's newest event (look-ahead audit)."""
        return self.table_ts[self.end - 1]

    def subset(self, split_name: str) -> "Dataset":
        m = self.split == SPLIT_NAMES[split_name]
        return replace(self, end=self.end[m], y=self.y[m], counters=dict(self.counters))

    def split_counts(self) -> dict:
        split = self.split
        return {name: int(np.sum(split == code)) for name, code in SPLIT_NAMES.items()}


def _gather(ds: Dataset, end: np.ndarray) -> np.ndarray:
    """The (len(end), T, C) windows: the table rows [end - T, end)."""
    return ds.table[end[:, None] - ds.T + np.arange(ds.T)]


class Windows:
    """A dataset's windows, gathered on indexing: its length is the
    sample count, and indexing it with an int array or a slice of sample
    positions returns those samples' rows of `Dataset.X`."""

    __slots__ = ("ds",)

    def __init__(self, ds: Dataset):
        self.ds = ds

    def __len__(self) -> int:
        return self.ds.n

    def __getitem__(self, idx) -> np.ndarray:
        return _gather(self.ds, self.ds.end[idx])


def build_datasets(events: Iterable[OrderEvent], T: int, S: int, pair: str = "SYN",
                   warm_count: int = 0, variants: tuple = VARIANTS) -> dict[str, Dataset]:
    """Single replay pass producing every requested variant on shared labels.

    The stream's first `warm_count` events only build the book; every
    later event becomes a table row.  The replay records per row only
    what needs the live book (see `_replay`); the other columns, the mid
    moves and the labels are then derived in numpy, from exact int64
    prices and uint64 half-tick mids that become floats once, at the end.
    Movers with fewer than T events since the warm-up are skipped.  When
    a snapshot variant is requested, samples whose window holds an event
    with no defined mid are dropped from all variants so the variants
    stay index-aligned.  A table timestamp without a UTC date in years
    1-9999 raises FeatureError.
    """
    need_snap = any(v != "orderflow" for v in variants)
    warm, warm_last_ts, dropped, cols = _replay(events, warm_count, S, need_snap)
    # before the flow table, so that the stored halves are freed first
    snap = _snapshot_table(cols, S) if need_snap else None
    counters: dict = {"warmup_events": warm}
    ts, kind, side = cols["ts"], cols["kind"], cols["side"]
    E = len(ts)
    for t in (ts.min(), ts.max()) if E else ():
        if not checks.UTC_MS_MIN <= t <= checks.UTC_MS_MAX:
            raise FeatureError(f"table timestamp {t} ms has no UTC date in years 1-9999")
    market, buy = kind == EventKind.MARKET.value, side == Side.BUY.value
    # row j's bests are bid[j] and ask[j] before its event, bid[j + 1] and ask[j + 1] after
    bid, ask = cols["bid"], cols["ask"]

    flow = np.empty((E, 6))
    flow[:1, 0] = ts[:1] - (ts[:1] if warm_last_ts is None else warm_last_ts)
    np.subtract(ts[1:], ts[:-1], out=flow[1:, 0])
    # the UTC hour, through the column itself: no (E,) temporaries
    np.floor_divide(ts, 3_600_000, out=flow[:, 1])
    np.remainder(flow[:, 1], 24, out=flow[:, 1])
    flow[:, 2] = cols["size"]
    flow[:, 3] = kind
    flow[:, 4] = side
    # relative price: 1 + the tick distance from the same-side best before
    # the event, made in the price buffer; 1 for a market order and,
    # counted, for an empty side (no best yet at the stream head)
    one = np.where(buy, bid[:-1] == 0, ask[:-1] == 0)
    if one.any():
        counters["rel_price_fallbacks"] = int(np.count_nonzero(one))
    one |= market
    rel = cols["price"]
    np.subtract(bid[:-1], rel, out=rel, where=buy)
    np.subtract(ask[:-1], rel, out=rel, where=~buy)
    np.abs(rel, out=rel)
    rel += 1
    rel[one] = 1
    flow[:, 5] = rel

    # half-tick mids, before (mid2[j]) and after (mid2[j + 1]) row j's event,
    # made in the bid buffer: bid + ask of two positive int64 prices is
    # exact in uint64
    defined = (bid != 0) & (ask != 0)
    mid2 = bid.view(np.uint64)
    mid2 += ask.view(np.uint64)
    moved = defined[:-1] & defined[1:]
    moved &= mid2[:-1] != mid2[1:]
    movers = np.flatnonzero(moved)
    end = movers[movers >= T]
    if len(end) < len(movers):
        counters["skipped_insufficient_history"] = len(movers) - len(end)
    y = (mid2[end + 1] > mid2[end]).astype(np.uint8)
    became = int(np.count_nonzero(defined[1:] & ~defined[:-1]))
    if became:
        counters["mid_became_defined"] = became
    if dropped:
        counters["dropped_market_events"] = dropped

    tables = {"orderflow": flow}
    if need_snap:
        w = 4 * S + 1
        # the mid in ticks: halving commutes with rounding to a float
        np.multiply(mid2[1:], 0.5, out=snap[:, w - 1])
        snap[~defined[1:], w - 1] = np.nan
        snap[:, w + 2] = market & buy
        snap[:, w + 3] = market & ~buy
        undefined = _cumsum0(~defined[1:])
        keep = undefined[end] == undefined[end - T]
        if not keep.all():
            counters["skipped_undefined_mid"] = int(np.sum(~keep))
            end, y = end[keep], y[keep]
        tables["bench1"], tables["bench2"] = snap, snap[:, :w]
    counters["samples"] = len(end)
    return {v: Dataset(v, T, S, pair, tables[v], ts, end.copy(), y.copy(),
                       counters=dict(counters))
            for v in variants}


# the replay's per-row columns and the typecodes of their buffers, which
# numpy reads as the same types: int64, float64 and int8
_COLUMNS = (("ts", "q"), ("size", "d"), ("kind", "b"), ("side", "b"), ("price", "q"),
            ("bid", "q"), ("ask", "q"), ("bid_half", "q"), ("ask_half", "q"))


def _replay(events: Iterable[OrderEvent], warm_count: int, S: int,
            need_snap: bool) -> tuple[int, Optional[int], int, dict]:
    """Replay the stream into a fresh book, which is dropped on return,
    and return the warm-up's event count and last ts, the book's dropped
    market orders, and the `_COLUMNS`: numpy views of the flat typed
    buffers the loop fills.  The first `warm_count` events only build
    the book.  Per later event, a table row: its ts, size, kind and side
    codes and int64 price (0 for a market order).  `bid` and `ask` hold
    the bests before the first row, then after each row's event.  Prices
    are positive (the feed rejects others), so 0 marks a missing price
    or best.

    With a snapshot variant, `bid_halves` and `ask_halves` hold each
    snapshot half of S levels once, as the book gives it: a row of
    prices, then volumes, then the best level's order count; row j's
    halves are the rows `bid_half[j]` and `ask_half[j]` of those.  The
    book hands back a half's same tuple while it is unchanged (see
    :mod:`lobflow.lob`), so a half is stored only when its object
    changes."""
    book = lob.OrderBook()
    events = iter(events)
    warm, warm_last_ts = 0, None
    for ev in islice(events, warm_count):
        book.apply_event(ev)
        warm += 1
        warm_last_ts = ev.timestamp_ms
    cols = {name: array(code) for name, code in _COLUMNS}
    cols["bid"].append(book.best_bid() or 0)
    cols["ask"].append(book.best_ask() or 0)
    ts, size, kind, side, price, bid, ask, bid_half, ask_half = cols.values()
    apply, best_bid, best_ask = book.apply_event, book.best_bid, book.best_ask
    snapshot = book.snapshot
    bid_store, ask_store = array("d"), array("d")
    bids = asks = None   # the halves stored last
    nb = na = -1         # and their rows
    for ev in events:
        apply(ev)
        ts.append(ev.timestamp_ms)
        size.append(ev.size)
        # the enum's `_value_`, without the `value` property's descriptor call
        kind.append(ev.kind._value_)
        side.append(ev.side._value_)
        price.append(ev.price_ticks or 0)
        bid.append(best_bid() or 0)
        ask.append(best_ask() or 0)
        if need_snap:
            row_bids, row_asks = snapshot(S)
            if row_bids is not bids:
                bids = row_bids
                nb += 1
                bid_store.extend(bids)
            if row_asks is not asks:
                asks = row_asks
                na += 1
                ask_store.extend(asks)
            bid_half.append(nb)
            ask_half.append(na)
    cols = {name: np.frombuffer(a, dtype=a.typecode) for name, a in cols.items()}
    width = 2 * S + 1
    cols["bid_halves"] = np.frombuffer(bid_store).reshape(-1, width)
    cols["ask_halves"] = np.frombuffer(ask_store).reshape(-1, width)
    return warm, warm_last_ts, book.dropped_market_events, cols


def _snapshot_table(cols: dict, S: int) -> np.ndarray:
    """The bench1 table of the replay's snapshot halves, which it takes
    out of `cols`: filled column by column from the stored halves, with
    no (E, 2S) temporary.  bench2's table is its first 4S + 1 columns.
    Its mid and market-order flag columns are left for the caller."""
    w = 4 * S + 1
    table = np.empty((len(cols["bid_half"]), w + 4))
    for side, first, count in (("bid", 0, w), ("ask", 2 * S, w + 1)):
        halves, rows = cols.pop(f"{side}_halves"), cols.pop(f"{side}_half")
        for k in range(2 * S):
            np.take(halves[:, k], rows, out=table[:, first + k])
        np.take(halves[:, 2 * S], rows, out=table[:, count])
    return table


def check_split_ranges(ranges, where: str = "") -> dict:
    """The train, validation and test entries of a `split_ranges` object,
    checked: each is a half-open [start_ms, end_ms) list of two integers,
    non-empty, and each ends at or before the next starts.  Other keys
    are ignored.  A failure raises FeatureError (UnorderedRanges or
    OverlappingRanges for the order) with `where` before the message."""
    if not isinstance(ranges, dict):
        raise FeatureError(f"{where}split_ranges must be a JSON object, got {ranges!r}")
    out = {}
    for name in SPLIT_NAMES:
        r = ranges.get(name)
        if not (isinstance(r, list) and len(r) == 2):
            raise FeatureError(f"{where}'split_ranges.{name}' must be a list of two integers, "
                               f"got {r!r}")
        for v in r:
            checks.integer(v, f"{where}'split_ranges.{name}' entry", FeatureError)
        if not r[0] < r[1]:
            raise UnorderedRanges(f"{where}'split_ranges.{name}' {r} is empty or inverted")
        out[name] = list(r)
    pairs = list(out.items())
    for (n1, r1), (n2, r2) in zip(pairs, pairs[1:]):
        if r1[0] < r2[1] and r2[0] < r1[1]:
            raise OverlappingRanges(f"{where}split_ranges {n1} and {n2} overlap")
        if r1[1] > r2[0]:
            raise UnorderedRanges(f"{where}split_ranges {n1} must precede {n2}")
    return out


def split_by_date(ds: Dataset, train_range, val_range, test_range) -> Dataset:
    """Split samples by half-open [start_ms, end_ms) ranges of their
    event time, which must be disjoint and ordered train < validation <
    test; the samples outside them are in no split."""
    ranges = (train_range, val_range, test_range)
    ds.split_ranges = check_split_ranges({name: list(r) for name, r in zip(SPLIT_NAMES, ranges)})
    ds.counters["dropped_outside_ranges"] = int(np.sum(ds.split == SPLIT_NONE))
    return ds


# ---------------------------------------------------------------------------
# Encoder-side numeric transforms and train-split statistics
# ---------------------------------------------------------------------------


def transform_numeric(X: np.ndarray, variant: str, S: int) -> np.ndarray:
    """Map raw features to the numeric channels the model standardizes.

    orderflow: (..., 3) = [log1p dt, log size, log rel_price]
    bench*:    (..., 4S [+2]) = [px - mid, log1p vol, MO rates]

    bench1 needs whole windows, (..., T, C): a step's rate counts the
    market orders over the step axis of its window.
    """
    if variant == "orderflow":
        return np.stack([np.log1p(X[..., 0]), np.log(X[..., 2]), np.log(X[..., 5])], axis=-1)
    mid = X[..., 4 * S:4 * S + 1]
    bid_off = X[..., 0:S] - mid
    ask_off = X[..., 2 * S:3 * S] - mid
    parts = [bid_off, np.log1p(X[..., S:2 * S]), ask_off, np.log1p(X[..., 3 * S:4 * S])]
    if variant == "bench1":
        n = X[..., 4 * S + 3:].sum(axis=-2, keepdims=True)
        counts = X[..., 4 * S + 1:4 * S + 3]
        parts.append(np.divide(n, counts, out=np.zeros(counts.shape), where=counts > 0))
    return np.concatenate(parts, axis=-1)


def _cover(E: int, T: int, end: np.ndarray, weights=None) -> np.ndarray:
    """Per table row, the sum of `weights` (1 each by default) over the
    windows [end - T, end) that hold it: one cumsum over start/stop marks."""
    marks = np.bincount(end - T, weights, E + 1) - np.bincount(end, weights, E + 1)
    return np.cumsum(marks[:E])


def compute_norm_stats(ds: Dataset) -> dict:
    """Per-channel mean/sd of the transformed numerics, train split only.

    Computed from the event table without gathering the windows: a row
    enters the per-event channels once per train window that holds it
    (its cover), and only rows with a cover enter at all.  A bench1 rate
    is its window's market-order count n over the step's best-level
    count c, so its sums weight each row's 1/c (0 where c is 0) by the
    n (and n**2) summed over the windows holding the row.  Sums run
    along contiguous rows, where numpy sums pairwise.
    """
    end = ds.end[ds.split == SPLIT_TRAIN]
    if len(end) == 0:
        raise MissingStats("no train samples to fit normalization on")
    E, T, n = len(ds.table), ds.T, len(end) * ds.T
    cover = _cover(E, T, end)
    rows = cover > 0
    w = cover[rows]
    per_event = "orderflow" if ds.variant == "orderflow" else "bench2"
    z = np.ascontiguousarray(transform_numeric(ds.table[rows], per_event, ds.S).T)
    mean = (z * w).sum(axis=1) / n
    var = (w * (z - mean[:, None]) ** 2).sum(axis=1) / n
    if ds.variant == "bench1":
        c = 4 * ds.S + 1
        mo = _cumsum0(ds.table[:, c + 2:])
        n_mo = mo[end] - mo[end - T]
        counts = ds.table[:, c:c + 2]
        inv = np.divide(1.0, counts, out=np.zeros_like(counts), where=counts > 0)
        m1 = [(_cover(E, T, end, n_mo[:, k]) * inv[:, k]).sum() / n for k in (0, 1)]
        m2 = [(_cover(E, T, end, n_mo[:, k] ** 2) * inv[:, k] ** 2).sum() / n for k in (0, 1)]
        mean = np.concatenate((mean, m1))
        var = np.concatenate((var, np.maximum(np.subtract(m2, np.square(m1)), 0.0)))
    sd = np.maximum(np.sqrt(var), 1e-8)
    ds.norm_stats = {"mean": mean.tolist(), "sd": sd.tolist()}
    return ds.norm_stats


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

_MAGIC = b"OFDS"
# the stored header fields and arrays, in file order, under their Dataset
# names; every other array is derived from them
_FIELDS = ("variant", "T", "S", "pair", "norm_stats", "split_ranges", "counters")
_STORED = (("table", "<f8"), ("table_ts", "<i8"), ("end", "<i8"), ("y", "|u1"))


def _header(ds: Dataset) -> dict:
    return {k: getattr(ds, k) for k in _FIELDS}


def _stored(ds: Dataset) -> dict:
    return {name: np.ascontiguousarray(getattr(ds, name), dtype=dtype) for name, dtype in _STORED}


def save_dataset(ds: Dataset, path) -> str:
    """Write `ds` as a :mod:`lobflow.container` file: the header fields,
    then table (E, C) float64, table_ts (E,) int64 and the per-sample
    end int64 and y uint8.  Returns the file's digest, the
    :func:`dataset_digest` of `ds`."""
    return container.write(path, _MAGIC, _header(ds), _stored(ds))


def load_dataset(path) -> Dataset:
    """Read a `.ds` that :func:`save_dataset` wrote; the container checks
    its bytes, this its fields, arrays and values (every table value
    that a sample's window reads finite among them)."""
    fields, arrays = container.read(path, _MAGIC, FeatureError)
    if sorted(fields) != sorted(_FIELDS) \
            or [(k, a.dtype.str) for k, a in arrays.items()] != list(_STORED):
        raise FeatureError(f"{path}: its fields and arrays are not a dataset's")
    ds = Dataset(**fields, **arrays)
    # the bounds load_config applies to a run's T and S
    checks.integer(ds.T, f"{path}: T", FeatureError, 1, MAX_T)
    checks.integer(ds.S, f"{path}: S", FeatureError, 1, MAX_S)
    if ds.variant not in VARIANTS:
        raise FeatureError(f"{path}: variant {ds.variant!r} is not one of {VARIANTS}")
    checks.pair_name(ds.pair, f"{path}: pair", FeatureError)
    _check_fields(path, ds)
    if ds.table.ndim != 2 or ds.table.shape[1] != table_width(ds.variant, ds.S):
        raise FeatureError(f"{path}: table shape {ds.table.shape} does not fit variant "
                           f"{ds.variant!r}, S={ds.S}")
    E = len(ds.table)
    if ds.table_ts.shape != (E,) or any(a.shape != (ds.y.size,) for a in (ds.end, ds.y)):
        raise FeatureError(f"{path}: table or per-sample arrays differ in length")
    # a sample's window is the rows [end - T, end), and its mover row end
    if ds.n and (ds.end.min() < ds.T or ds.end.max() >= E):
        raise FeatureError(f"{path}: window ends outside the {E}-event table")
    # only the rows some window reads: build keeps rows whose mid is NaN
    # and drops the samples whose windows hold them
    bad_row = ~np.isfinite(ds.table).all(axis=1)
    bad = _cumsum0(bad_row)
    hit = np.flatnonzero(bad[ds.end] != bad[ds.end - ds.T])
    if len(hit):
        end = int(ds.end[hit[0]])
        row = end - ds.T + int(np.argmax(bad_row[end - ds.T:end]))
        col = int(np.argmax(~np.isfinite(ds.table[row])))
        raise FeatureError(f"{path}: table row {row}, column {col} is {ds.table[row, col]}, "
                           f"not a finite number, in the window of sample {hit[0]}")
    if np.any(ds.y > 1):
        raise FeatureError(f"{path}: labels must be 0 or 1")
    return ds


def _check_fields(path, ds: Dataset) -> None:
    """The header's norm stats, split ranges and counters; whether the
    stats fit a model is the model config's to check."""
    stats = ds.norm_stats
    if stats is not None:
        if not (isinstance(stats, dict) and stats.keys() == {"mean", "sd"}
                and all(isinstance(v, list) for v in stats.values())
                and len(stats["mean"]) == len(stats["sd"])):
            raise FeatureError(f"{path}: norm_stats must be null or "
                               "{\"mean\": [...], \"sd\": [...]} of equal length")
        for key, values in stats.items():
            for v in values:
                checks.number(v, f"{path}: norm_stats.{key} entry", FeatureError)
    if ds.split_ranges is not None:
        check_split_ranges(ds.split_ranges, f"{path}: ")
    if not (isinstance(ds.counters, dict) and all(type(v) is int for v in ds.counters.values())):
        raise FeatureError(f"{path}: counters must be an object of integers")


def dataset_digest(ds: Dataset) -> str:
    """The SHA-256 that :func:`save_dataset` puts in the `.ds` header,
    without writing the file: it covers the header fields and the stored
    arrays, of which the windows, event times and splits are functions."""
    return container.digest(_MAGIC, _header(ds), _stored(ds))
