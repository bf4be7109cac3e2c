import time

import pytest
from hypothesis import given, settings, strategies as st

from lobflow import feed, lob, oracle
from lobflow.feed import EventKind, Side

from conftest import make_event


# ---------------------------------------------------------------------------
# basic insertion / matching
# ---------------------------------------------------------------------------


class TestBasics:
    def test_resting_insertion(self, ev):
        book = lob.OrderBook()
        executed = book.apply_event(ev(price=100, size=1.0))
        assert book.best_bid() == 100
        assert book.best_ask() is None
        assert executed == 0.0

    def test_market_consumes_best_ask(self, ev):
        book = lob.OrderBook()
        book.apply_event(ev(seq=1, side=Side.BUY, price=100, size=1.0))
        book.apply_event(ev(seq=2, side=Side.SELL, price=102, size=1.0))
        executed = book.apply_event(ev(seq=3, kind=EventKind.MARKET, side=Side.BUY, size=1.0))
        assert book.best_ask() is None
        assert executed == 1.0
        assert book.dropped_market_size == 0.0

    def test_best_prices(self, ev):
        book = lob.OrderBook()
        book.apply_event(ev(seq=1, price=99))
        book.apply_event(ev(seq=2, price=100))
        book.apply_event(ev(seq=3, side=Side.SELL, price=102))
        assert (book.best_bid(), book.best_ask()) == (100, 102)

    def test_empty_book_bests_absent(self):
        book = lob.OrderBook()
        assert book.best_bid() is None and book.best_ask() is None

    def test_cancel_empties_level(self, ev):
        book = lob.OrderBook()
        book.apply_event(ev(seq=1, price=99, oid="a"))
        book.apply_event(ev(seq=2, price=100, oid="b"))
        book.apply_event(ev(seq=3, kind=EventKind.CANCEL, price=100, size=1.0, oid="b"))
        assert book.best_bid() == 99

    def test_partial_cancel_keeps_order(self, ev):
        book = lob.OrderBook()
        book.apply_event(ev(seq=1, price=100, size=2.0, oid="a"))
        book.apply_event(ev(seq=2, kind=EventKind.CANCEL, price=100, size=0.5, oid="a"))
        assert book.level_size(Side.BUY, 100) == 1.5
        assert book.best_counts() == (1, 0)

    def test_best_counts(self, ev):
        book = lob.OrderBook()
        assert book.best_counts() == (0, 0)
        for seq, (side, price) in enumerate([(Side.BUY, 100), (Side.BUY, 100), (Side.BUY, 99),
                                             (Side.SELL, 103), (Side.SELL, 102)], start=1):
            book.apply_event(ev(seq=seq, side=side, price=price))
        assert book.best_counts() == (2, 1)
        book.apply_event(ev(seq=6, kind=EventKind.MARKET, side=Side.BUY, size=1.0))
        assert book.best_counts() == (2, 1)   # the ask at 103 is the best now

    def test_marketable_limit_executes_then_rests(self, ev):
        book = lob.OrderBook()
        book.apply_event(ev(seq=1, side=Side.SELL, price=101, size=1.0))
        executed = book.apply_event(ev(seq=2, side=Side.BUY, price=103, size=2.5))
        assert executed == 1.0
        assert book.best_bid() == 103
        assert book.level_size(Side.BUY, 103) == 1.5
        assert book.best_ask() is None

    def test_market_remainder_dropped_and_counted(self, ev):
        book = lob.OrderBook()
        book.apply_event(ev(seq=1, side=Side.SELL, price=101, size=1.0))
        executed = book.apply_event(ev(seq=2, kind=EventKind.MARKET, side=Side.BUY, size=3.0))
        assert executed == 1.0
        assert book.dropped_market_events == 1
        assert book.dropped_market_size == 2.0

    def test_fifo_within_level(self, ev):
        book = lob.OrderBook()
        book.apply_event(ev(seq=1, side=Side.SELL, price=101, size=1.0, oid="first"))
        book.apply_event(ev(seq=2, side=Side.SELL, price=101, size=1.0, oid="second"))
        book.apply_event(ev(seq=3, kind=EventKind.MARKET, side=Side.BUY, size=1.0))
        assert "first" not in book.resting
        assert "second" in book.resting


class TestErrors:
    def test_unknown_cancel(self, ev):
        book = lob.OrderBook()
        with pytest.raises(lob.UnknownOrderId, match=r"^unknown order id 'ghost'$"):
            book.apply_event(ev(kind=EventKind.CANCEL, size=1.0, oid="ghost"))

    def test_over_cancel(self, ev):
        book = lob.OrderBook()
        book.apply_event(ev(seq=1, price=100, size=1.0, oid="a"))
        with pytest.raises(lob.OverCancel):
            book.apply_event(ev(seq=2, kind=EventKind.CANCEL, size=2.0, oid="a"))

    @pytest.mark.parametrize("cancel", [
        '{"ts":2,"seq":2,"kind":"cancel","side":"sell","price":100,"size":1.0,"id":"o1"}',
        '{"ts":2,"seq":2,"kind":"cancel","side":"buy","price":101,"size":1.0,"id":"o1"}',
    ], ids=["side", "price"])
    def test_cancel_must_match_resting_order(self, cancel):
        rest = feed.parse_event(
            '{"ts":1,"seq":1,"kind":"limit","side":"buy","price":100,"size":1.0,"id":"o1"}')
        book, ref = lob.OrderBook(), oracle.ReferenceBook()
        book.apply_event(rest)
        ref.apply(rest)
        with pytest.raises(lob.CancelMismatch, match="o1"):
            book.apply_event(feed.parse_event(cancel))
        assert oracle.compare_books(book, ref) is None and "o1" in book.resting
        with pytest.raises(lob.CancelMismatch):
            ref.apply(feed.parse_event(cancel))
        assert oracle.compare_books(book, ref) is None

    def test_oracle_rejects_over_cancel(self):
        rest, cancel = map(feed.parse_event, [
            '{"ts":1,"seq":1,"kind":"limit","side":"buy","price":100,"size":1.0,"id":"o1"}',
            '{"ts":2,"seq":2,"kind":"cancel","side":"buy","price":100,"size":2.0,"id":"o1"}'])
        book, ref = lob.OrderBook(), oracle.ReferenceBook()
        book.apply_event(rest)
        ref.apply(rest)
        with pytest.raises(lob.OverCancel):
            book.apply_event(cancel)
        with pytest.raises(lob.OverCancel, match="o1"):
            ref.apply(cancel)
        assert oracle.compare_books(book, ref) is None and "o1" in ref.buys

    def test_oracle_unknown_cancel(self, ev):
        with pytest.raises(lob.UnknownOrderId, match=r"^unknown order id 'ghost'$"):
            oracle.ReferenceBook().apply(ev(kind=EventKind.CANCEL, size=1.0, oid="ghost"))

    def test_mid_on_one_sided_book(self, ev):
        book = lob.OrderBook()
        book.apply_event(ev(price=100))
        assert book.mid2() is None


class TestMidPrice:
    def test_whole_tick(self, ev):
        book = lob.OrderBook()
        book.apply_event(ev(seq=1, price=100))
        book.apply_event(ev(seq=2, side=Side.SELL, price=102))
        assert book.mid2() == 202

    def test_half_tick_exact(self, ev):
        book = lob.OrderBook()
        book.apply_event(ev(seq=1, price=100))
        book.apply_event(ev(seq=2, side=Side.SELL, price=101))
        assert book.mid2() == 201

    def test_mid_changes_only_with_bests(self, noise_lines):
        book = lob.OrderBook()
        for line in noise_lines[:2000]:
            before = (book.best_bid(), book.best_ask(), book.mid2())
            book.apply_event(feed.parse_event(line))
            after = (book.best_bid(), book.best_ask(), book.mid2())
            if after[2] is not None:
                assert after[2] == book.best_bid() + book.best_ask()
            else:
                assert book.best_bid() is None or book.best_ask() is None
            if before[2] is not None and after[2] is not None:
                assert (before[2] != after[2]) == (before[:2] != after[:2])


class TestSnapshot:
    def test_padding_shallow_side(self, ev):
        book = lob.OrderBook()
        book.apply_event(ev(seq=1, price=100))
        book.apply_event(ev(seq=2, price=99))
        book.apply_event(ev(seq=3, side=Side.SELL, price=102))
        bids, asks = book.snapshot(5)
        assert type(bids) is type(asks) is tuple
        assert len(bids) == len(asks) == 10
        assert bids[:5] == (100, 99, 98, 97, 96)
        assert bids[5:7] == (1.0, 1.0)
        assert bids[7:] == (0.0, 0.0, 0.0)
        assert asks[:5] == (102, 103, 104, 105, 106)
        assert asks[5:] == (1.0, 0.0, 0.0, 0.0, 0.0)

    def test_depth_one_is_bests(self, ev):
        book = lob.OrderBook()
        book.apply_event(ev(seq=1, price=100, size=2.0))
        book.apply_event(ev(seq=2, side=Side.SELL, price=103, size=0.5))
        assert book.snapshot(1) == ((100, 2.0), (103, 0.5))

    def test_monotone_prices(self, noise_lines):
        book = lob.OrderBook()
        for line in noise_lines[:500]:
            book.apply_event(feed.parse_event(line))
        bids, asks = book.snapshot(8)
        bid_prices, ask_prices = bids[:8], asks[:8]
        assert all(a > b for a, b in zip(bid_prices, bid_prices[1:]))
        assert all(a < b for a, b in zip(ask_prices, ask_prices[1:]))

    def test_empty_book_snapshot(self):
        bids, asks = lob.OrderBook().snapshot(3)
        assert bids[:3] == (-1, -2, -3)
        assert asks[:3] == (1, 2, 3)
        assert bids[3:] == asks[3:] == (0.0, 0.0, 0.0)

    def test_matches_oracle_top_levels(self, noise_lines):
        book = lob.OrderBook()
        ref = oracle.ReferenceBook()
        for line in noise_lines[:1500]:
            e = feed.parse_event(line)
            book.apply_event(e)
            ref.apply(e)
        bids, asks = book.snapshot(4)
        ref_bids = ref.top_levels(Side.BUY, 4)
        ref_asks = ref.top_levels(Side.SELL, 4)
        assert list(zip(bids[:4], bids[4:]))[:len(ref_bids)] == ref_bids
        assert list(zip(asks[:4], asks[4:]))[:len(ref_asks)] == ref_asks

    def test_depth_zero_rejected(self, ev):
        book = lob.OrderBook()
        with pytest.raises(ValueError):
            book.snapshot(0)
        book.apply_event(ev(price=100))
        book.snapshot(2)
        with pytest.raises(ValueError):
            book.snapshot(0)

    def test_deep_limit_keeps_both_halves(self, ev):
        book = lob.OrderBook()
        for seq, (side, price) in enumerate([(Side.BUY, 100), (Side.BUY, 99), (Side.BUY, 98),
                                             (Side.SELL, 102), (Side.SELL, 103)], start=1):
            book.apply_event(ev(seq=seq, side=side, price=price))
        before = book.snapshot(2)
        # below the second bid and above the second ask: neither half moves
        book.apply_event(ev(seq=6, price=97))
        book.apply_event(ev(seq=7, price=98))
        book.apply_event(ev(seq=8, side=Side.SELL, price=110))
        after = book.snapshot(2)
        assert after[0] is before[0] and after[1] is before[1]
        # at the second bid the bid half is rebuilt, the ask half kept
        book.apply_event(ev(seq=9, price=99))
        bids, asks = book.snapshot(2)
        assert bids == (100, 99, 1.0, 2.0) and asks is before[1]
        # another depth rebuilds both
        bids3, asks3 = book.snapshot(3)
        assert bids3 == (100, 99, 98, 1.0, 2.0, 2.0) and asks3 == (102, 103, 110, 1.0, 1.0, 1.0)


def _reference_half(book, ref, side, depth):
    """A side's snapshot tuple from the reference book's top prices, the
    book's level volumes and the padding rule."""
    prices = [p for p, _ in ref.top_levels(side, depth)]
    vols = [book.level_size(side, p) for p in prices]
    step = -1 if side is Side.BUY else 1
    last = prices[-1] if prices else 0
    while len(prices) < depth:
        last += step
        prices.append(last)
        vols.append(0.0)
    return tuple(prices + vols)


class TestCachedHalves:
    """The book hands back a cached half only while it is what a rebuild
    would give, on streams whose levels crowd around the snapshot depth."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_halves_match_a_rebuild(self, data):
        book, ref = lob.OrderBook(), oracle.ReferenceBook()
        # 0.1 + 0.2 against 0.3 leaves residue orders on the book
        sizes = st.sampled_from([0.1, 0.2, 0.3, 0.5, 1.0, 2.5])
        depth = data.draw(st.integers(1, 8))
        halves = book.snapshot(depth)
        for seq in range(1, data.draw(st.integers(1, 60)) + 1):
            action = data.draw(st.sampled_from(["limit", "limit", "market", "cancel"]))
            side = data.draw(st.sampled_from([Side.BUY, Side.SELL]))
            deep = False
            if action == "cancel" and book.resting:
                oid = data.draw(st.sampled_from(sorted(book.resting)))
                order = book.resting[oid]
                size = order.remaining * data.draw(st.sampled_from([0.5, 1.0]))
                e = make_event(seq=seq, kind=EventKind.CANCEL, side=order.side,
                               price=order.price_ticks, size=size, oid=oid)
            elif action == "market":
                e = make_event(seq=seq, kind=EventKind.MARKET, side=side,
                               size=data.draw(sizes | st.just(50.0)))
            else:
                # a narrow band, so limits rest around the depth-th level and cross
                price = data.draw(st.integers(95, 105))
                e = make_event(seq=seq, side=side, price=price, size=data.draw(sizes))
                own = book._bid_prices[::-1] if side is Side.BUY else book._ask_prices
                opp = book.best_ask() if side is Side.BUY else book.best_bid()
                sign = 1 if side is Side.BUY else -1
                deep = (len(own) >= depth and sign * price < sign * own[depth - 1]
                        and (opp is None or sign * price < sign * opp))
            assert book.apply_event(e) == ref.apply(e)
            same_depth = data.draw(st.booleans())
            if not same_depth:
                depth = data.draw(st.integers(1, 8))
            got = book.snapshot(depth)
            if deep and same_depth:
                assert got[0] is halves[0] and got[1] is halves[1]
            halves = got
            for side, half in zip((Side.BUY, Side.SELL), got):
                assert type(half) is tuple
                assert half == _reference_half(book, ref, side, depth), (seq, side, depth)


# ---------------------------------------------------------------------------
# invariants and oracle equivalence
# ---------------------------------------------------------------------------


def check_invariants(book):
    bb, ba = book.best_bid(), book.best_ask()
    if bb is not None and ba is not None:
        assert bb < ba
    for side, levels in ((Side.BUY, book._bids), (Side.SELL, book._asks)):
        for price, lvl in levels.items():
            assert lvl.queue, f"empty level {side} {price}"
            total = sum(book.resting[oid].remaining for oid in lvl.queue)
            assert lvl.size == total


class TestOracleEquivalence:
    def test_noise_stream(self, noise_lines):
        book = lob.OrderBook()
        ref = oracle.ReferenceBook()
        for i, line in enumerate(noise_lines):
            e = feed.parse_event(line)
            assert book.apply_event(e) == ref.apply(e), f"event {i}"
            if i % 7 == 0:
                msg = oracle.compare_books(book, ref)
                assert msg is None, f"event {i}: {msg}"
                check_invariants(book)
        assert oracle.compare_books(book, ref) is None

    def test_planted_stream(self, planted_events):
        book = lob.OrderBook()
        ref = oracle.ReferenceBook()
        for i, e in enumerate(planted_events[:4000]):
            assert book.apply_event(e) == ref.apply(e), f"event {i}"
            if i % 11 == 0:
                assert oracle.compare_books(book, ref) is None

    def test_dropped_market_counts_agree(self, noise_lines):
        book = lob.OrderBook()
        ref = oracle.ReferenceBook()
        for line in noise_lines:
            e = feed.parse_event(line)
            book.apply_event(e)
            ref.apply(e)
        assert book.dropped_market_events == ref.dropped_market_events
