import dataclasses
import math
import struct
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lobflow import checks, container, feed, features, lob, oracle
from lobflow.feed import EventKind, Side


# ---------------------------------------------------------------------------
# warm-up
# ---------------------------------------------------------------------------


class TestWarmUp:
    """The warm-up prefix only builds the book; the table starts after it."""

    def test_count_zero_consumes_nothing(self, planted_events):
        events = planted_events[:300]
        ds = features.build_datasets(events, T=10, S=3, warm_count=0,
                                     variants=("orderflow",))["orderflow"]
        assert ds.counters["warmup_events"] == 0
        assert ds.table_ts[0] == events[0].timestamp_ms and ds.table[0, 0] == 0
        assert len(ds.table) == len(events)

    def test_count_past_the_end_consumes_all(self, planted_events):
        got = features.build_datasets(planted_events, T=10, S=3,
                                      warm_count=len(planted_events) + 1)
        for ds in got.values():
            assert ds.counters["warmup_events"] == len(planted_events)
            assert len(ds.table) == len(ds.table_ts) == ds.n == 0

    def test_count_boundary(self, planted_events):
        events = planted_events[:300]
        ds = features.build_datasets(events, T=10, S=3, warm_count=7,
                                     variants=("orderflow",))["orderflow"]
        assert ds.counters["warmup_events"] == 7
        assert ds.table_ts[0] == events[7].timestamp_ms
        assert ds.table[0, 0] == events[7].timestamp_ms - events[6].timestamp_ms

    def test_warm_book_matches_oracle(self, planted_events):
        n, S = 500, 4
        ds = features.build_datasets(planted_events[:n + 100], T=10, S=S, warm_count=n,
                                     variants=("bench2",))["bench2"]
        ref = oracle.ReferenceBook()
        for e in planted_events[:n + 1]:
            ref.apply(e)
        row = ds.table[0]
        for side, px, vol in ((Side.BUY, row[:S], row[S:2 * S]),
                              (Side.SELL, row[2 * S:3 * S], row[3 * S:4 * S])):
            want = ref.top_levels(side, S)
            assert list(zip(px.tolist(), vol.tolist()))[:len(want)] == want
            assert not vol[len(want):].any()

    def test_table_timestamp_needs_a_utc_date(self, ev):
        # the last and first ms with a UTC date in years 1-9999 build
        specs = [(1, dict(price=100)), (1, dict(side=Side.SELL, price=102)), (1, dict(price=101))]
        for t0 in (checks.UTC_MS_MAX - 3, checks.UTC_MS_MIN - 1):
            assert orderflow(stream(ev, *specs, t0=t0), T=2).n == 1
        for t0, bad in ((checks.UTC_MS_MAX - 2, checks.UTC_MS_MAX + 1),
                        (checks.UTC_MS_MIN - 2, checks.UTC_MS_MIN - 1)):
            with pytest.raises(features.FeatureError, match=f"^table timestamp {bad} ms "):
                orderflow(stream(ev, *specs, t0=t0), T=2)
        # the warm-up is no table row
        assert orderflow(stream(ev, *specs, t0=checks.UTC_MS_MIN - 2), T=1, warm_count=1).n == 1

    def test_no_keyword_is_count_zero(self, planted_events):
        events = planted_events[:300]
        got = [features.build_datasets(events, T=10, S=3, **kw)
               for kw in ({}, {"warm_count": 0})]
        assert got[0]["orderflow"].counters["warmup_events"] == 0
        for v in features.VARIANTS:
            assert features.dataset_digest(got[0][v]) == features.dataset_digest(got[1][v])


# ---------------------------------------------------------------------------
# per-window reference: the construction the event tables replace
# ---------------------------------------------------------------------------


def reference_build(events, T, S, warm_count, snapshots=True):
    """Annotate each event, keep the T most recent annotations and copy
    them out per mover, window by window, for all three variants.  With
    `snapshots` false (no snapshot variant built) windows that hold an
    undefined mid are kept, and only the orderflow windows are made."""
    warm_count = min(warm_count, len(events))
    book = lob.OrderBook()
    for ev in events[:warm_count]:
        book.apply_event(ev)
    prev_ts = events[warm_count - 1].timestamp_ms if warm_count else None
    rest = events[warm_count:]
    counters = {"warmup_events": warm_count}

    def bump(key, by=1):
        counters[key] = counters.get(key, 0) + by

    window = deque(maxlen=T)
    X = {v: [] for v in features.VARIANTS}
    rates = []
    y, times, last_ts = [], [], []
    bb, ba = book.best_bid(), book.best_ask()
    # the exact half-tick mid bid + ask decides moves and labels
    mid2 = bb + ba if bb is not None and ba is not None else None
    for ev in rest:
        # relative price: plus-one tick distance from the same-side best
        # before the event; 1 for a market order or an empty side
        best = bb if ev.side is Side.BUY else ba
        if best is None:
            rel = 1
            bump("rel_price_fallbacks")
        else:
            rel = 1 if ev.price_ticks is None else 1 + abs(best - ev.price_ticks)
        book.apply_event(ev)
        bb, ba = book.best_bid(), book.best_ask()
        before, mid2 = mid2, bb + ba if bb is not None and ba is not None else None
        # each half: S prices, S volumes, then its best level's order count
        bids, asks = book.snapshot(S)
        count_b, count_a = bids[-1], asks[-1]
        ann = {
            "ts": ev.timestamp_ms,
            "flow": [ev.timestamp_ms - prev_ts if prev_ts is not None else 0,
                     ev.timestamp_ms // 3_600_000 % 24, ev.size, ev.kind.value,
                     ev.side.value, rel],
            "mid": None if mid2 is None else mid2 / 2,
            "snap": [*bids[:-1], *asks[:-1]],
            "bb": count_b,
            "ba": count_a,
            "mo": (ev.kind is EventKind.MARKET and ev.side is Side.BUY,
                   ev.kind is EventKind.MARKET and ev.side is Side.SELL),
        }
        prev_ts = ev.timestamp_ms
        if before is not None and mid2 is not None and mid2 != before:
            if len(window) < T:
                bump("skipped_insufficient_history")
            elif snapshots and any(a["mid"] is None for a in window):
                bump("skipped_undefined_mid")
            else:
                X["orderflow"].append(np.array([a["flow"] for a in window], dtype=float))
                if snapshots:
                    n_buy = sum(a["mo"][0] for a in window)
                    n_sell = sum(a["mo"][1] for a in window)
                    X["bench2"].append(np.array([a["snap"] + [a["mid"]] for a in window]))
                    X["bench1"].append(np.array(
                        [a["snap"] + [a["mid"], a["bb"], a["ba"], *a["mo"]] for a in window]))
                    rates.append(np.array([[n_buy / a["bb"] if a["bb"] else 0.0,
                                            n_sell / a["ba"] if a["ba"] else 0.0]
                                           for a in window]))
                    degenerate = sum(1 for a in window if not (a["bb"] and a["ba"]))
                    if degenerate:
                        bump("degenerate_rates", degenerate)
                y.append(1 if mid2 > before else 0)
                times.append(ev.timestamp_ms)
                last_ts.append(window[-1]["ts"])
        elif before is None and mid2 is not None:
            bump("mid_became_defined")
        window.append(ann)
    if book.dropped_market_events:
        counters["dropped_market_events"] = book.dropped_market_events
    counters["samples"] = len(y)
    X = {v: np.array(x).reshape(-1, T, features.table_width(v, S)) for v, x in X.items()}
    return (X, np.array(rates).reshape(-1, T, 2), np.array(y, dtype=np.uint8),
            np.array(times, dtype=np.int64), np.array(last_ts, dtype=np.int64), counters)


def assert_equals_reference(events, T, S, warm_count, variants=features.VARIANTS):
    """build_datasets gives the reference's windows, labels, times and
    counters byte for byte, for each variant of `variants`."""
    snapshots = variants != ("orderflow",)
    X, rates, y, times, last_ts, counters = reference_build(events, T, S, warm_count,
                                                            snapshots)
    got = features.build_datasets(events, T=T, S=S, warm_count=warm_count, variants=variants)
    assert tuple(got) == variants
    for v, ds in got.items():
        assert ds.X.dtype == X[v].dtype and ds.X.shape == X[v].shape, v
        assert ds.X.tobytes() == X[v].tobytes(), v
        assert ds.y.tobytes() == y.tobytes()
        assert ds.event_time.tobytes() == times.tobytes()
        assert ds.window_last_ts.tobytes() == last_ts.tobytes()
        assert ds.counters == counters
    if "bench1" in got:
        got_rates = features.transform_numeric(got["bench1"].X, "bench1", S)[..., -2:]
        assert got_rates.shape == rates.shape
        assert got_rates.tobytes() == rates.tobytes()
    return counters


# every non-empty set of variants, in build order
VARIANT_SUBSETS = [tuple(v for k, v in enumerate(features.VARIANTS) if mask >> k & 1)
                   for mask in range(1, 2 ** len(features.VARIANTS))]


def market_heavy_noise():
    cfg = feed.GeneratorConfig(n_events=3000, prop_limit=0.45, prop_market=0.35,
                               prop_cancel=0.2)
    return list(feed.iter_events(feed.generate_synthetic(cfg, seed=9)))


class TestReferenceWindows:
    @pytest.mark.parametrize("stream", ["planted", "noise"])
    def test_byte_equal_to_per_window_build(self, stream, planted_events):
        events, warm = (planted_events, 40) if stream == "planted" else (market_heavy_noise(), 0)
        counters = assert_equals_reference(events, T=10, S=3, warm_count=warm)
        if stream == "noise":
            assert counters["skipped_undefined_mid"] > 0

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), T=st.integers(1, 12), S=st.integers(1, 4),
           warm=st.one_of(st.just(0), st.integers(1, 320)),
           variants=st.sampled_from(VARIANT_SUBSETS),
           market=st.sampled_from([0.2, 0.35]))
    def test_byte_equal_on_generated_streams(self, seed, T, S, warm, variants, market):
        # a market-heavy mix empties a side now and then; with no warm-up
        # the stream head has empty sides before the mid becomes defined
        cfg = feed.GeneratorConfig(n_events=300, prop_limit=0.8 - market, prop_market=market,
                                   prop_cancel=0.2)
        events = list(feed.iter_events(feed.generate_synthetic(cfg, seed=seed)))
        assert_equals_reference(events, T, S, warm, variants)

    @pytest.mark.parametrize("base", [2 ** 53 + 1, 2 ** 62 + 2 ** 61 + 1])
    def test_byte_equal_above_2_53_ticks(self, ev, base):
        # odd prices past float's 53 bits: mids and relative prices must
        # round once, from the exact integers, as the reference does; past
        # 2**62 the bid + ask of a mid passes int64
        B, A = Side.BUY, Side.SELL
        specs = [(1, dict(price=base)), (1, dict(side=A, price=base + 7)),
                 (1, dict(price=base + 2)), (1, dict(side=A, price=base + 5)),
                 (1, dict(price=base - 3)), (1, dict(side=A, price=base + 4)),
                 (1, dict(kind=EventKind.MARKET, side=B, size=1.0)),
                 (1, dict(price=base + 3)), (1, dict(side=A, price=base + 9)),
                 (1, dict(kind=EventKind.MARKET, side=A, size=1.0)),
                 (1, dict(kind=EventKind.CANCEL, side=A, price=base + 9, size=1.0, oid="o9")),
                 (1, dict(price=base + 1)), (1, dict(side=A, price=base + 6))]
        events = stream(ev, *specs)
        for variants in VARIANT_SUBSETS:
            counters = assert_equals_reference(events, T=2, S=2, warm_count=0,
                                               variants=variants)
            assert counters["samples"] > 2

    @pytest.mark.parametrize("warm", [0, 500])
    def test_dropped_market_events_match_oracle(self, warm, planted_events):
        # the book's drops, warm-up included (12 of the 129 fall in the
        # first 500 events); a stream that drops none adds no counter
        events = market_heavy_noise()
        ref = oracle.ReferenceBook()
        for e in events:
            ref.apply(e)
        assert ref.dropped_market_events > 0
        for ds in features.build_datasets(events, T=10, S=3, warm_count=warm).values():
            assert ds.counters["dropped_market_events"] == ref.dropped_market_events
        planted = features.build_datasets(planted_events, T=10, S=3, warm_count=40)
        assert all("dropped_market_events" not in ds.counters for ds in planted.values())


class TestBuildMemory:
    def test_traced_peak_within_twice_the_tables(self, planted_events):
        # the rows go to flat typed buffers that the tables then view; a
        # Python object per row and value would take about 3x the tables
        tracemalloc.start()
        try:
            got = features.build_datasets(planted_events, T=10, S=3, warm_count=40)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        of = got["orderflow"]
        stored = of.table.nbytes + got["bench1"].table.nbytes + of.table_ts.nbytes
        assert peak <= 2 * stored, peak / stored

    def test_orderflow_table_is_its_buffer(self, planted_events):
        # the replay records narrow columns and the table is filled from
        # them column by column, with no (E, C) temporary.  The replay's
        # book is the same in any layout, so its own traced peak (about 0.7x
        # the table on this stream) is taken off before the bound
        tracemalloc.start()
        try:
            book = lob.OrderBook()
            for e in planted_events:
                book.apply_event(e)
            book_peak = tracemalloc.get_traced_memory()[1]
            del book
            tracemalloc.stop()
            tracemalloc.start()
            of = features.build_datasets(planted_events, T=10, S=3, warm_count=40,
                                         variants=("orderflow",))["orderflow"]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stored = of.table.nbytes + of.table_ts.nbytes
        assert peak - book_peak <= 1.5 * stored, (peak - book_peak) / stored

    def test_unchanged_halves_stored_once(self, planted_events):
        # most events leave a snapshot half as it was, and the replay
        # stores a half only when the book hands back a new one: at S=3
        # about 0.19 of the 2E halves on this stream
        *_, cols = features._replay(planted_events, 40, 3, True)
        E = len(cols["ts"])
        assert len(cols["bid_half"]) == len(cols["ask_half"]) == E
        assert len(cols["bid_halves"]) + len(cols["ask_halves"]) < 0.6 * 2 * E


class TestWindowView:
    @pytest.mark.parametrize("variant", features.VARIANTS)
    def test_indexing_equals_gathered_windows(self, planted_datasets, variant):
        ds = planted_datasets[variant]
        X = ds.X
        assert len(ds.windows) == ds.n == len(X)
        rng = np.random.default_rng(0)
        for idx in (rng.permutation(ds.n)[:37], np.array([ds.n - 1, 0, 0]),
                    np.array([], dtype=np.int64), slice(5, 69), slice(ds.n - 3, ds.n + 100),
                    slice(0, 0)):
            got, want = ds.windows[idx], X[idx]
            assert got.dtype == want.dtype and got.shape == want.shape, idx
            assert got.tobytes() == want.tobytes(), idx


# ---------------------------------------------------------------------------
# annotation and labelling, through build_datasets
# ---------------------------------------------------------------------------


def stream(ev, *specs, t0=1_510_000_000_000):
    """Events from (dt_ms, kwargs) specs, with increasing seq from 1."""
    out, ts = [], t0
    for seq, (dt, kw) in enumerate(specs, start=1):
        ts += dt
        out.append(ev(ts=ts, seq=seq, **kw))
    return out


def orderflow(events, T, **kw):
    return features.build_datasets(events, T=T, S=2, variants=("orderflow",),
                                   **kw)["orderflow"]


def oracle_mid_moves(events):
    """timestamp -> +1 / -1 for each event that moves a defined mid."""
    ref = oracle.ReferenceBook()
    moves = {}
    for e in events:
        before = ref.mid()
        ref.apply(e)
        after = ref.mid()
        if before is not None and after is not None and after != before:
            moves[e.timestamp_ms] = 1 if after > before else -1
    return moves


class TestAnnotate:
    # 14:37:00 UTC on 2017-11-06
    TS = 1_509_977_820_000

    def _three(self, ev):
        # bid, then ask (mid defined), then an inward bid that moves the mid
        return stream(ev, (0, dict(price=100)), (3, dict(side=Side.SELL, price=102)),
                      (5, dict(price=101)), t0=self.TS - 3)

    def test_dt_and_hour(self, ev):
        assert self.TS % 86_400_000 // 3_600_000 == 14
        ds = orderflow(self._three(ev), T=2)
        assert ds.n == 1
        assert ds.X[0, 1, 0] == 3
        assert ds.X[0, 1, 1] == 14

    def test_first_event_dt_zero(self, ev):
        assert orderflow(self._three(ev), T=2).X[0, 0, 0] == 0
        # after a warm-up the first dt counts from the last warm-up event
        ds = orderflow(self._three(ev), T=1, warm_count=1)
        assert ds.X[0, 0, 0] == 3

    def test_rel_price_fallback_counted(self, ev):
        ds = orderflow(self._three(ev), T=2)
        # neither the first bid nor the first ask finds a same-side best
        assert ds.counters["rel_price_fallbacks"] == 2
        assert list(ds.X[0, :, 5]) == [1, 1]


class TestLabelStream:
    def test_count_matches_oracle_mid_changes(self, planted_events):
        ds = features.build_datasets(planted_events, T=10, S=3, warm_count=40,
                                     variants=("orderflow",))["orderflow"]
        # oracle: replay independently, count defined-mid changes after warm-up
        changes = len(oracle_mid_moves(planted_events)) - len(
            oracle_mid_moves(planted_events[:40]))
        skipped = ds.counters.get("skipped_insufficient_history", 0)
        assert ds.n + skipped == changes
        assert ds.n == ds.counters["samples"] > 100

    def test_labels_match_mid_direction(self, planted_datasets, planted_events):
        moves = oracle_mid_moves(planted_events)
        for ds in planted_datasets.values():
            want = [moves[t] == 1 for t in ds.event_time.tolist()]
            np.testing.assert_array_equal(ds.y, np.array(want, dtype=np.uint8))
        # planted rule: label equals side of the last window event
        of = planted_datasets["orderflow"]
        np.testing.assert_array_equal(of.y == 1, of.X[:, -1, 4] == Side.BUY.value)

    def test_window_is_strictly_before_mover(self, planted_datasets, planted_events):
        index = {e.timestamp_ms: i for i, e in enumerate(planted_events)}
        for ds in planted_datasets.values():
            assert ds.X.shape[1] == 10
            assert np.all(ds.window_last_ts < ds.event_time)
            # the newest window event is the one right before the mover
            before = [planted_events[index[t] - 1].timestamp_ms for t in ds.event_time.tolist()]
            np.testing.assert_array_equal(ds.window_last_ts, before)
        assert np.all(planted_datasets["orderflow"].X[:, 1:, 0] >= 0)

    def test_short_history_skipped(self, ev):
        # the mover has 2 prior events, fewer than T=3
        events = stream(ev, (1, dict(price=100)), (1, dict(side=Side.SELL, price=102)),
                        (1, dict(price=101)))
        ds = orderflow(events, T=3)
        assert ds.n == 0 and ds.counters["skipped_insufficient_history"] == 1
        assert orderflow(events, T=2).n == 1

    def test_deep_resting_limit_emits_nothing(self, ev):
        events = stream(ev, (1, dict(price=100)), (1, dict(side=Side.SELL, price=110)),
                        (1, dict(price=90, size=1.0)))
        ds = features.build_datasets(events, T=1, S=2)["bench1"]
        assert ds.n == 0 and ds.X.shape == (0, 1, 13)
        assert ds.counters["mid_became_defined"] == 1
        assert "skipped_insufficient_history" not in ds.counters


# ---------------------------------------------------------------------------
# feature columns
# ---------------------------------------------------------------------------


class TestExtractOrderflow:
    def test_shape_and_columns(self, ev):
        events = stream(ev, (0, dict(price=100, size=0.5)),
                        (3, dict(side=Side.SELL, price=103, size=2.0)),
                        (2, dict(price=101)))
        X = orderflow(events, T=2).X
        assert X.shape == (1, 2, 6)
        assert X[0, 1, 0] == 3                             # dt_ms
        assert X[0, 0, 2] == 0.5 and X[0, 1, 2] == 2.0     # size
        assert X[0, 0, 3] == EventKind.LIMIT.value
        assert X[0, 0, 4] == Side.BUY.value and X[0, 1, 4] == Side.SELL.value

    @pytest.mark.parametrize("side,kind,price,want", [
        (Side.BUY, EventKind.LIMIT, 100, 1),        # at the same-side best
        (Side.BUY, EventKind.LIMIT, 97, 4),         # three ticks below it
        (Side.SELL, EventKind.LIMIT, 108, 4),       # three ticks above the best ask
        (Side.SELL, EventKind.LIMIT, 103, 3),       # inside the spread
        (Side.BUY, EventKind.MARKET, None, 1),      # a market order
    ])
    def test_rel_price_rule(self, ev, side, kind, price, want):
        events = stream(ev, (1, dict(price=100)), (1, dict(side=Side.SELL, price=105)),
                        (1, dict(side=side, kind=kind, price=price, size=0.5)))
        ds = orderflow(events, T=1)
        assert ds.table[2, 5] == want
        assert ds.counters["rel_price_fallbacks"] == 2   # the first bid and ask only

    def test_rel_price_matches_oracle_replay(self, planted_datasets, planted_events):
        # oracle: replay a reference book and recompute rel prices per event
        ref = oracle.ReferenceBook()
        rel = []
        for e in planted_events:
            best = ref.best_bid() if e.side is Side.BUY else ref.best_ask()
            rel.append(1 if best is None or e.price_ticks is None
                       else 1 + abs(best - e.price_ticks))
            ref.apply(e)
        index = {e.timestamp_ms: i for i, e in enumerate(planted_events)}
        ds = planted_datasets["orderflow"]
        for x, t in zip(ds.X, ds.event_time.tolist()):
            i = index[t]
            np.testing.assert_array_equal(x[:, 5], rel[i - 10:i])


class TestExtractSnapshot:
    def test_no_market_orders_zero_rates(self, ev):
        events = stream(ev, (1, dict(price=100)), (1, dict(side=Side.SELL, price=102)),
                        (1, dict(price=99)), (1, dict(price=101)))
        # the window starts after the first event, which precedes a defined mid
        X = features.build_datasets(events, T=2, S=2)["bench1"].X
        assert X.shape == (1, 2, 13)
        assert np.all(X[..., 11:] == 0.0)                 # no market-order flags
        assert np.all(features.transform_numeric(X, "bench1", 2)[..., 8:] == 0.0)

    def test_stated_rate_formula(self, ev):
        # 5 buy market orders in the window, best-bid level holding 20 orders
        specs = [(1, dict(price=100, size=1.0, oid="b0")),
                 # deep ask up front so every later event sees a defined mid
                 (1, dict(side=Side.SELL, price=105, size=50.0))]
        specs += [(1, dict(price=100, size=1.0, oid=f"b{k}")) for k in range(1, 20)]
        specs += [(1, dict(kind=EventKind.MARKET, side=Side.BUY, size=0.5))] * 5
        # mover: an inward ask; the window drops only the stream-head event
        specs.append((1, dict(side=Side.SELL, price=104, size=1.0)))
        ds = features.build_datasets(stream(ev, *specs), T=25, S=2)["bench1"]
        assert ds.n == 1 and ds.y[0] == 0
        rates = features.transform_numeric(ds.X, "bench1", 2)[..., 8:]
        assert rates[0, -1, 0] == 5 / 20      # buy MO rate at the last step
        assert rates[0, -1, 1] == 0.0         # no sell MOs in the window
        assert rates[0, 0, 0] == 5 / 1        # first step: best bid holds b0 only

    def test_bench2_is_bench1_minus_rates(self, planted_datasets):
        b1 = planted_datasets["bench1"]
        b2 = planted_datasets["bench2"]
        assert b1.X.shape[2] == b2.X.shape[2] + 4
        np.testing.assert_array_equal(b1.X[..., :b2.X.shape[2]], b2.X)
        z1, z2 = (features.transform_numeric(ds.X, ds.variant, ds.S) for ds in (b1, b2))
        assert z1.shape[2] == z2.shape[2] + 2
        np.testing.assert_array_equal(z1[..., :z2.shape[2]], z2)
        np.testing.assert_array_equal(b1.y, b2.y)
        np.testing.assert_array_equal(b1.event_time, b2.event_time)

    def test_degenerate_rate_flagged(self, ev):
        # a market sell consumes the whole bid side: best-bid count 0, no mid,
        # so the window holding it is dropped rather than given a rate
        events = stream(ev, (1, dict(price=100)), (1, dict(side=Side.SELL, price=102)),
                        (1, dict(kind=EventKind.MARKET, side=Side.SELL, size=1.0)),
                        (1, dict(price=100)), (1, dict(price=101)))
        ds = features.build_datasets(events, T=3, S=2)["bench1"]
        assert ds.n == 0
        assert ds.counters["skipped_undefined_mid"] == 1
        assert "degenerate_rates" not in ds.counters
        # a zero best-level count gives rate 0 in the transform
        table = np.zeros((3, features.table_width("bench1", 2)))
        table[:2, 9:11] = [[0, 4], [2, 0]]           # bid / ask order counts
        table[:2, 11:13] = [[1, 0], [0, 1]]          # buy / sell MO flags
        ds = features.Dataset(variant="bench1", T=2, S=2, pair="SYN", table=table,
                              table_ts=np.arange(3), end=np.array([2]),
                              y=np.zeros(1, np.uint8))
        rates = features.transform_numeric(ds.X, "bench1", 2)[0, :, 8:]
        np.testing.assert_array_equal(rates, [[0.0, 1 / 4], [1 / 2, 0.0]])

    def test_rates_need_no_table_pass(self, planted_datasets, monkeypatch):
        ds = planted_datasets["bench1"]
        want = features.transform_numeric(ds.X[:64], "bench1", ds.S)

        def no_cumsum(a):
            raise AssertionError("a bench1 gather ran a pass over the whole table")

        monkeypatch.setattr(features, "_cumsum0", no_cumsum)
        got = features.transform_numeric(features._gather(ds, ds.end[:64]), "bench1", ds.S)
        assert got.tobytes() == want.tobytes()

    def test_undefined_mid_returns_none(self, ev):
        # the first event precedes a defined mid; the only window holds it
        events = stream(ev, (1, dict(price=100)), (1, dict(side=Side.SELL, price=102)),
                        (1, dict(price=101)))
        for variants in (("bench1",), ("bench2", "orderflow")):
            got = features.build_datasets(events, T=2, S=2, variants=variants)
            for ds in got.values():
                assert ds.n == 0
                assert ds.counters["skipped_undefined_mid"] == 1
        # without a snapshot variant the sample is kept
        ds = orderflow(events, T=2)
        assert ds.n == 1 and "skipped_undefined_mid" not in ds.counters

    def test_snapshots_match_oracle_top_levels(self, planted_datasets, planted_events):
        depth = 3
        ds = planted_datasets["bench1"]
        index = {e.timestamp_ms: i for i, e in enumerate(planted_events)}
        last = {index[t] - 1: k for k, t in enumerate(ds.event_time[:50].tolist())}
        ref = oracle.ReferenceBook()
        X = ds.X
        for i, e in enumerate(planted_events[:max(last) + 1]):
            ref.apply(e)
            if i not in last:
                continue
            # the newest window row is the book after the event before the mover
            row = X[last[i], -1]
            bids = ref.top_levels(Side.BUY, depth)
            asks = ref.top_levels(Side.SELL, depth)
            assert len(bids) == len(asks) == depth
            assert list(zip(row[0:depth], row[depth:2 * depth])) == bids
            assert list(zip(row[2 * depth:3 * depth], row[3 * depth:4 * depth])) == asks
            assert row[4 * depth] == float(ref.mid())
            # then the order counts of the best bid and best ask levels
            counts = [ref.levels(Side.BUY)[bids[0][0]][1], ref.levels(Side.SELL)[asks[0][0]][1]]
            assert row[4 * depth + 1:4 * depth + 3].tolist() == counts


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------


class TestSplitByDate:
    def _fresh(self, planted_events):
        return features.build_datasets(planted_events, T=10, S=2, warm_count=40,
                                       variants=("orderflow",))["orderflow"]

    def test_all_in_train(self, planted_events):
        ds = self._fresh(planted_events)
        lo, hi = int(ds.event_time[0]), int(ds.event_time[-1]) + 1
        features.split_by_date(ds, (lo, hi), (hi, hi + 1), (hi + 1, hi + 2))
        counts = ds.split_counts()
        assert counts["train"] == ds.n
        assert counts["validation"] == counts["test"] == 0

    def test_half_open_boundary(self, planted_events):
        ds = self._fresh(planted_events)
        b = int(ds.event_time[ds.n // 2])
        lo, hi = int(ds.event_time[0]), int(ds.event_time[-1]) + 1
        features.split_by_date(ds, (lo, b), (b, b + 1), (b + 1, hi))
        at_boundary = ds.split[ds.event_time == b]
        assert np.all(at_boundary == features.SPLIT_VAL)

    def test_counts_equal_filter_pass(self, planted_events):
        ds = self._fresh(planted_events)
        times = ds.event_time
        a, b, c, d = (int(times[0]), int(times[ds.n // 3]),
                      int(times[2 * ds.n // 3]), int(times[-1]) + 1)
        features.split_by_date(ds, (a, b), (b, c), (c, d))
        counts = ds.split_counts()
        assert counts["train"] == int(np.sum((times >= a) & (times < b)))
        assert counts["validation"] == int(np.sum((times >= b) & (times < c)))
        assert counts["test"] == int(np.sum((times >= c) & (times < d)))
        assert ds.counters["dropped_outside_ranges"] == ds.n - sum(counts.values())

    def test_overlap_rejected(self, planted_events):
        ds = self._fresh(planted_events)
        with pytest.raises(features.OverlappingRanges):
            features.split_by_date(ds, (0, 10), (5, 20), (20, 30))

    def test_unordered_rejected(self, planted_events):
        ds = self._fresh(planted_events)
        with pytest.raises(features.UnorderedRanges):
            features.split_by_date(ds, (20, 30), (0, 10), (40, 50))
        with pytest.raises(features.UnorderedRanges):
            features.split_by_date(ds, (10, 5), (20, 30), (40, 50))

    def test_split_and_event_time_are_derived(self, planted_datasets):
        ds = planted_datasets["orderflow"]
        np.testing.assert_array_equal(ds.event_time, ds.table_ts[ds.end])
        for name in ("split", "event_time"):
            with pytest.raises(TypeError):
                dataclasses.replace(ds, **{name: getattr(ds, name)})
        # retagging is moving a range: the tags follow the header's ranges
        (a, b), (_, c) = ds.split_ranges["train"], ds.split_ranges["validation"]
        moved = dataclasses.replace(ds, split_ranges={**ds.split_ranges, "train": [a, c],
                                                      "validation": [c, c + 1]})
        counts = ds.split_counts()
        assert moved.split_counts()["train"] == counts["train"] + counts["validation"]
        assert np.all(moved.split[ds.split == features.SPLIT_VAL] == features.SPLIT_TRAIN)


# ---------------------------------------------------------------------------
# normalization stats
# ---------------------------------------------------------------------------


def exact_norm_stats(ds):
    """Per-channel mean and sd over the gathered train windows, each sum
    taken exactly with math.fsum."""
    z = features.transform_numeric(ds.X[ds.split == features.SPLIT_TRAIN], ds.variant, ds.S)
    z = z.reshape(-1, z.shape[-1])
    mean = np.array([math.fsum(col) / len(col) for col in z.T])
    sd = np.array([math.sqrt(math.fsum((col - m) ** 2) / len(col)) for col, m in zip(z.T, mean)])
    return mean, sd


def fitted(events, T, warm_count, train_fraction):
    """All variants at S=3, the first `train_fraction` of samples in train
    (at least one), the rest in validation, stats fitted."""
    dss = features.build_datasets(events, T=T, S=3, warm_count=warm_count)
    t = dss["orderflow"].event_time
    cut = int(t[max(1, int(len(t) * train_fraction))])
    for ds in dss.values():
        features.split_by_date(ds, (int(t[0]), cut), (cut, int(t[-1]) + 1),
                               (int(t[-1]) + 1, int(t[-1]) + 2))
        features.compute_norm_stats(ds)
    return dss


class TestNormStats:
    @pytest.mark.parametrize("case", ["planted", "market_heavy", "T1", "one_sample"])
    def test_matches_exact_reference(self, case, planted_datasets, planted_events):
        if case == "planted":
            dss = planted_datasets
        elif case == "market_heavy":
            dss = fitted(market_heavy_noise(), T=10, warm_count=0, train_fraction=0.6)
            assert dss["bench1"].counters["skipped_undefined_mid"] > 0
            assert np.any(dss["bench1"].table[:, 13:15] == 0)   # zero best-level counts
        else:
            dss = fitted(planted_events, T=1 if case == "T1" else 10, warm_count=40,
                         train_fraction=0.6 if case == "T1" else 0.0)
        if case == "one_sample":
            assert dss["orderflow"].split_counts()["train"] == 1
        for ds in dss.values():
            mean, sd = exact_norm_stats(ds)
            got_mean, got_sd = (np.array(ds.norm_stats[k]) for k in ("mean", "sd"))
            assert got_mean.shape == mean.shape
            # within 1e-13 of the sd; a constant channel (sd 0) within 4 ulps of its value
            tol = np.where(sd > 0, 1e-13 * sd, 4 * np.spacing(np.abs(mean)))
            assert np.all(np.abs(got_mean - mean) <= tol), ds.variant
            assert np.all(np.abs(got_sd - np.maximum(sd, 1e-8)) <= tol), ds.variant

    def test_train_standardization(self, planted_datasets):
        for ds in planted_datasets.values():
            stats = ds.norm_stats
            z = features.transform_numeric(ds.X[ds.split == features.SPLIT_TRAIN],
                                           ds.variant, ds.S)
            z = (z - np.array(stats["mean"])) / np.array(stats["sd"])
            flat = z.reshape(-1, z.shape[-1])
            np.testing.assert_allclose(flat.mean(axis=0), 0.0, atol=1e-9)
            sd = flat.std(axis=0)
            assert np.all((np.abs(sd - 1.0) < 1e-6) | (sd < 1e-6))

    def test_missing_train_split_raises(self, planted_events):
        ds = features.build_datasets(planted_events, T=10, S=2, warm_count=40,
                                     variants=("orderflow",))["orderflow"]
        with pytest.raises(features.MissingStats):
            features.compute_norm_stats(ds)   # split never assigned

    def test_orderflow_transform_formula(self):
        X = np.array([[[3.0, 14, 0.5, 1, 1, 4]]])
        z = features.transform_numeric(X, "orderflow", S=0)
        np.testing.assert_allclose(z[0, 0], [np.log1p(3.0), np.log(0.5), np.log(4)])

    def test_snapshot_transform_offsets(self):
        S = 2
        # bid px 100,99 | bid vol 1,2 | ask px 102,103 | ask vol 3,4 | mid 101
        # | bid / ask order counts 4, 2 | one buy and one sell market order
        X = np.array([[[100, 99, 1, 2, 102, 103, 3, 4, 101.0, 4, 2, 1, 1]]])
        z = features.transform_numeric(X, "bench1", S)
        np.testing.assert_allclose(
            z[0, 0],
            [-1, -2, np.log1p(1), np.log1p(2), 1, 2, np.log1p(3), np.log1p(4), 0.25, 0.5])


# ---------------------------------------------------------------------------
# serialization, determinism, no look-ahead
# ---------------------------------------------------------------------------


class TestDigest:
    STORED = ("table", "table_ts", "end", "y")

    def test_equal_for_equal_datasets(self, planted_datasets, tmp_path):
        ds = planted_datasets["bench1"]
        copy = dataclasses.replace(ds, **{k: getattr(ds, k).copy() for k in self.STORED})
        assert features.dataset_digest(copy) == features.dataset_digest(ds)
        p = tmp_path / "b1.ds"
        features.save_dataset(ds, p)
        assert features.dataset_digest(features.load_dataset(p)) == features.dataset_digest(ds)

    @pytest.mark.parametrize("change", ["table", "table_ts", "end", "y", "norm_stats",
                                        "split_ranges"])
    def test_changes_with_each_stored_field(self, planted_datasets, change):
        ds = planted_datasets["orderflow"]
        if change == "norm_stats":
            stats = {"mean": [ds.norm_stats["mean"][0] + 1e-9, *ds.norm_stats["mean"][1:]],
                     "sd": ds.norm_stats["sd"]}
            other = dataclasses.replace(ds, norm_stats=stats)
        elif change == "split_ranges":
            (a, b), (_, c) = ds.split_ranges["train"], ds.split_ranges["validation"]
            other = dataclasses.replace(ds, split_ranges={**ds.split_ranges, "train": [a, b - 1],
                                                          "validation": [b - 1, c]})
        else:
            arr = getattr(ds, change).copy()
            flat = arr.reshape(-1)
            if change == "y":
                flat[0] = 1 - flat[0]
            elif change == "end":
                flat[0] += 1 if flat[0] < len(ds.table) - 1 else -1
            else:
                flat[len(flat) // 2] += 1
            other = dataclasses.replace(ds, **{change: arr})
        assert features.dataset_digest(other) != features.dataset_digest(ds)


class TestSerialization:
    def test_binary_round_trip(self, planted_datasets, tmp_path):
        for name, ds in planted_datasets.items():
            p = tmp_path / f"{name}.ds"
            features.save_dataset(ds, p)
            back = features.load_dataset(p)
            assert features.dataset_digest(back) == features.dataset_digest(ds)
            np.testing.assert_array_equal(back.X, ds.X)
            np.testing.assert_array_equal(back.y, ds.y)
            assert back.norm_stats == ds.norm_stats
            assert back.split_ranges == ds.split_ranges

    def test_round_trip_keeps_undefined_mid_rows(self, tmp_path):
        # build keeps the NaN-mid rows and drops only the samples whose
        # windows hold them; train and evaluate must load what it wrote
        dss = fitted(market_heavy_noise(), T=10, warm_count=0, train_fraction=0.6)
        for name in ("bench1", "bench2"):
            ds = dss[name]
            assert ds.counters["skipped_undefined_mid"] > 0
            assert np.isnan(ds.table).any()
            p = tmp_path / f"{name}.ds"
            features.save_dataset(ds, p)
            back = features.load_dataset(p)
            assert features.dataset_digest(back) == features.dataset_digest(ds)
            assert np.isfinite(back.X).all()

    def test_interrupted_save_keeps_old_file(self, planted_datasets, tmp_path):
        ds = planted_datasets["orderflow"]
        p = tmp_path / "of.ds"
        features.save_dataset(ds, p)
        old = p.read_bytes()
        # the label column fails to convert
        broken = dataclasses.replace(ds, y=np.array([object()] * ds.n, dtype=object))
        with pytest.raises(TypeError):
            features.save_dataset(broken, p)
        assert list(tmp_path.iterdir()) == [p]
        assert p.read_bytes() == old
        p.unlink()
        with pytest.raises(TypeError):
            features.save_dataset(broken, p)
        assert list(tmp_path.iterdir()) == []

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.ds"
        p.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(features.FeatureError):
            features.load_dataset(p)

    def test_file_holds_tables_not_windows(self, planted_datasets, tmp_path):
        for name, ds in planted_datasets.items():
            p = tmp_path / f"{name}.ds"
            features.save_dataset(ds, p)
            _, _, hlen = struct.unpack("<4sII", p.read_bytes()[:12])
            E, C = ds.table.shape
            assert p.stat().st_size == 12 + hlen + E * C * 8 + E * 8 + ds.n * 9

    @pytest.mark.parametrize("change", ["cut", "extend"])
    def test_wrong_length_rejected(self, planted_datasets, tmp_path, change):
        p = tmp_path / "of.ds"
        features.save_dataset(planted_datasets["orderflow"], p)
        data = p.read_bytes()
        p.write_bytes(data[:-1] if change == "cut" else data + b"\x00")
        with pytest.raises(features.FeatureError, match="header declares"):
            features.load_dataset(p)

    def test_window_end_outside_table_rejected(self, planted_datasets, tmp_path):
        ds = planted_datasets["orderflow"]
        bad = ds.subset("train")
        bad.end = bad.end.copy()
        bad.end[0] = ds.T - 1
        p = tmp_path / "bad.ds"
        features.save_dataset(bad, p)
        with pytest.raises(features.FeatureError, match="outside"):
            features.load_dataset(p)

    @pytest.mark.parametrize("blob", [
        b"not json",
        b'{"fields": {"variant": "orderflow", "T": 1, "S": 1}}',
        b'{"arrays": [["y", "|u1", ["x"]]], "fields": {}}',
        b'{"arrays": [["y", "|u1", [-1]]], "fields": {}}',
        b'{"arrays": [["y", "|O", [0]]], "fields": {}}',
        b'{"arrays": [], "fields": []}',
        pytest.param(b"[" * 100_000, id="deeply nested"),
    ])
    def test_bad_header_rejected(self, tmp_path, blob):
        p = tmp_path / "bad.ds"
        p.write_bytes(b"OFDS" + struct.pack("<II", container.VERSION, len(blob) + 64)
                      + blob + b"0" * 64)
        with pytest.raises(features.FeatureError):
            features.load_dataset(p)

    @pytest.mark.parametrize("change,match", [
        ({"variant": "bench1"}, "does not fit variant"),
        ({"T": -1}, "T must be an integer >= 1"),
        ({"T": 0}, "T must be an integer >= 1"),
        ({"T": features.MAX_T + 1}, "T must be at most"),
        ({"S": 0}, "S must be an integer >= 1"),
        ({"S": features.MAX_S + 1}, "S must be at most"),
        ({"T": True}, "T must be an integer"),
        ({"y": np.zeros(1, np.uint8)}, "differ in length"),
        ({"table": np.zeros((1, 6), np.int64)}, "fields and arrays"),
        ({"y": None}, "fields and arrays"),
        ({"event_time": np.zeros(0, np.int64)}, "fields and arrays"),
        ({"bogus": 1}, "fields and arrays"),
        ({"norm_stats": "x"}, "norm_stats"),
        ({"norm_stats": {"mean": [0.0]}}, "norm_stats"),
        ({"norm_stats": {"mean": [0.0], "sd": [1.0, 1.0]}}, "norm_stats"),
        ({"norm_stats": {"mean": ["x"], "sd": [1.0]}}, "norm_stats.mean"),
        ({"norm_stats": {"mean": [0.0], "sd": [float("nan")]}}, "norm_stats.sd"),
        # the window [0, 1) fits, but the labelling event, row 1, is not in the table
        ({"end": np.ones(1, np.int64), "y": np.zeros(1, np.uint8)}, "outside"),
        ({"split_ranges": [1, 2]}, "split_ranges"),
        ({"split_ranges": {"train": [0, 1], "validation": [1, 2]}}, "'split_ranges.test'"),
        ({"split_ranges": {"train": [0, 1], "validation": [1, 2.5], "test": [3, 4]}},
         "'split_ranges.validation' entry"),
        ({"split_ranges": {"train": [0, 1], "validation": [1, 2], "test": "x"}},
         "'split_ranges.test'"),
        ({"split_ranges": {"train": [1, 0], "validation": [1, 2], "test": [3, 4]}},
         "'split_ranges.train' .* inverted"),
        ({"split_ranges": {"train": [0, 2], "validation": [1, 3], "test": [3, 4]}},
         "split_ranges train and validation overlap"),
        ({"split_ranges": {"train": [2, 3], "validation": [0, 1], "test": [3, 4]}},
         "split_ranges train must precede validation"),
        ({"counters": []}, "counters"),
        ({"counters": {"samples": 1.5}}, "counters"),
    ])
    def test_arrays_not_fitting_header_rejected(self, tmp_path, change, match):
        fields = {"variant": "orderflow", "T": 1, "S": 1, "pair": "X", "norm_stats": None,
                  "split_ranges": None, "counters": {}}
        arrays = {"table": np.zeros((1, 6)), "table_ts": np.zeros(1, np.int64),
                  "end": np.zeros(0, np.int64), "y": np.zeros(0, np.uint8)}
        for k, v in change.items():
            (arrays if k in arrays or isinstance(v, np.ndarray) else fields)[k] = v
        p = tmp_path / "bad.ds"
        container.write(p, b"OFDS", fields, {k: v for k, v in arrays.items() if v is not None})
        with pytest.raises(features.FeatureError, match=match):
            features.load_dataset(p)

    def test_bad_label_rejected(self, planted_datasets, tmp_path):
        ds = planted_datasets["orderflow"]
        bad = dataclasses.replace(ds, y=ds.y.copy())
        bad.y[0] = 7
        p = tmp_path / "bad.ds"
        features.save_dataset(bad, p)
        with pytest.raises(features.FeatureError, match="labels"):
            features.load_dataset(p)

    # orderflow columns: dt_ms and size are numeric, hour and kind categorical
    @pytest.mark.parametrize("col,value", [(2, np.nan), (0, np.inf), (3, np.nan),
                                           (1, -np.inf)])
    def test_non_finite_table_value_rejected(self, planted_datasets, tmp_path, col, value):
        ds = planted_datasets["orderflow"]
        bad = dataclasses.replace(ds, table=ds.table.copy())
        row = int(ds.end[0]) - 1
        bad.table[row, col] = value
        p = tmp_path / "bad.ds"
        features.save_dataset(bad, p)
        with pytest.raises(features.FeatureError,
                           match=f"table row {row}, column {col} is .*not a finite number"):
            features.load_dataset(p)

    def test_version_1_rejected(self, tmp_path):
        blob = b'{"variant": "orderflow", "T": 1, "S": 1, "n": 0, "feature_width": 6}'
        p = tmp_path / "v1.ds"
        p.write_bytes(b"OFDS" + struct.pack("<II", 1, len(blob)) + blob)
        with pytest.raises(features.FeatureError, match="rebuild"):
            features.load_dataset(p)

    def test_build_deterministic(self, planted_events):
        a = features.build_datasets(planted_events, T=10, S=2, warm_count=40)
        b = features.build_datasets(planted_events, T=10, S=2, warm_count=40)
        for v in features.VARIANTS:
            assert features.dataset_digest(a[v]) == features.dataset_digest(b[v])


class TestNoLookAhead:
    def test_window_precedes_label_event(self, planted_datasets):
        for ds in planted_datasets.values():
            assert np.all(ds.window_last_ts < ds.event_time)

    def test_split_time_ordering(self, planted_datasets):
        ds = planted_datasets["orderflow"]
        tr = ds.event_time[ds.split == features.SPLIT_TRAIN]
        va = ds.event_time[ds.split == features.SPLIT_VAL]
        te = ds.event_time[ds.split == features.SPLIT_TEST]
        assert tr.max() < va.min() <= va.max() < te.min()
