import time

import pytest

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
        snap = book.snapshot(5)
        assert len(snap) == 20
        assert snap[:5] == [100, 99, 98, 97, 96]
        assert snap[5:7] == [1.0, 1.0]
        assert snap[7:10] == [0.0, 0.0, 0.0]
        assert snap[10:15] == [102, 103, 104, 105, 106]
        assert snap[15:] == [1.0, 0.0, 0.0, 0.0, 0.0]

    def test_depth_one_is_bests(self, ev):
        book = lob.OrderBook()
        book.apply_event(ev(seq=1, price=100, size=2.0))
        book.apply_event(ev(seq=2, side=Side.SELL, price=103, size=0.5))
        assert book.snapshot(1) == [100, 2.0, 103, 0.5]

    def test_monotone_prices(self, noise_lines):
        book = lob.OrderBook()
        for line in noise_lines[:500]:
            book.apply_event(feed.parse_event(line))
        snap = book.snapshot(8)
        bid_prices, ask_prices = snap[:8], snap[16:24]
        assert all(a > b for a, b in zip(bid_prices, bid_prices[1:]))
        assert all(a < b for a, b in zip(ask_prices, ask_prices[1:]))

    def test_empty_book_snapshot(self):
        snap = lob.OrderBook().snapshot(3)
        assert snap[:3] == [-1, -2, -3]
        assert snap[6:9] == [1, 2, 3]
        assert snap[3:6] == snap[9:] == [0.0, 0.0, 0.0]

    def test_matches_oracle_top_levels(self, noise_lines):
        book = lob.OrderBook()
        ref = oracle.ReferenceBook()
        for line in noise_lines[:1500]:
            e = feed.parse_event(line)
            book.apply_event(e)
            ref.apply(e)
        snap = book.snapshot(4)
        ref_bids = ref.top_levels(Side.BUY, 4)
        ref_asks = ref.top_levels(Side.SELL, 4)
        assert list(zip(snap[:4], snap[4:8]))[:len(ref_bids)] == ref_bids
        assert list(zip(snap[8:12], snap[12:]))[:len(ref_asks)] == ref_asks

    def test_depth_zero_rejected(self):
        with pytest.raises(ValueError):
            lob.OrderBook().snapshot(0)


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
