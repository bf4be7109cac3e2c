"""Limit order book: price-level aggregation, matching, snapshots.

Prices are integer tick counts throughout.  The mid-price is carried as
the integer `best bid + best ask`, in half ticks (`mid2()`), so
half-tick mids carry no rounding.
`OrderBook.apply_event` returns the size an event executed: limit and
market orders match in one loop, in price priority and FIFO within a
level.  A marketable limit order rests what it did not execute; a market
order larger than the opposing liquidity executes what is available and
drops the remainder, counted on the book in `dropped_market_events` and
`dropped_market_size`.

`OrderBook.snapshot(depth)` gives the top levels of each side as two
immutable tuples, `(bids, asks)`: a side's prices (best first), then its
volumes.  The book keeps each side's tuple, with the price of the
`depth`-th best level it held, and hands back that same object until a
rest, cancel or fill touches a price at or better than that level, or
any price when the side held fewer than `depth` levels; a call at
another depth rebuilds both.  So a caller that sees the same object
knows that half unchanged.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass
from typing import Optional

from .feed import BUY, CANCEL, LIMIT, OrderEvent, Side


class BookError(Exception):
    pass


class UnknownOrderId(BookError):
    pass


class OverCancel(BookError):
    pass


class CancelMismatch(BookError):
    """A cancel whose side or price is not that of the resting order."""


@dataclass
class RestingOrder:
    side: Side
    price_ticks: int
    remaining: float


class _Level:
    """One price level: aggregate size plus FIFO order queue."""

    __slots__ = ("size", "queue")

    def __init__(self):
        self.size = 0.0
        self.queue: deque[str] = deque()


class OrderBook:
    """Two-sided price-level book with per-order tracking.

    Single-writer: `apply_event` must not be called concurrently on one
    instance.  Reads between writes are fine.
    """

    def __init__(self):
        # per side: price -> level, and the level prices sorted ascending
        self._bids: dict[int, _Level] = {}
        self._asks: dict[int, _Level] = {}
        self._bid_prices: list[int] = []
        self._ask_prices: list[int] = []
        self.resting: dict[str, RestingOrder] = {}
        self.dropped_market_events = 0
        self.dropped_market_size = 0.0
        # the snapshot halves of `_snap_depth` levels, None once stale; a
        # change at or better than a side's edge makes its half stale
        self._snap_depth: Optional[int] = None
        self._bid_half: Optional[tuple] = None
        self._ask_half: Optional[tuple] = None
        self._bid_edge: float = -math.inf
        self._ask_edge: float = math.inf

    def _touch(self, side: Side, price: int) -> tuple[dict[int, _Level], list[int]]:
        """The levels and sorted prices of the side a change at `price`
        is made on, dropping its snapshot half if the change reaches it."""
        if side is BUY:
            if price >= self._bid_edge:
                self._bid_half = None
            return self._bids, self._bid_prices
        if price <= self._ask_edge:
            self._ask_half = None
        return self._asks, self._ask_prices

    # -- queries ------------------------------------------------------------

    def best_bid(self) -> Optional[int]:
        prices = self._bid_prices
        return prices[-1] if prices else None

    def best_ask(self) -> Optional[int]:
        prices = self._ask_prices
        return prices[0] if prices else None

    def mid2(self) -> Optional[int]:
        """Best bid + best ask: the mid in half ticks; None if a side is empty."""
        bids, asks = self._bid_prices, self._ask_prices
        return bids[-1] + asks[0] if bids and asks else None

    def level_size(self, side: Side, price: int) -> float:
        lvl = (self._bids if side is BUY else self._asks).get(price)
        return lvl.size if lvl else 0.0

    def best_counts(self) -> tuple[int, int]:
        """The order counts of the best bid and best ask levels; 0 for an
        empty side."""
        bids, asks = self._bid_prices, self._ask_prices
        return (len(self._bids[bids[-1]].queue) if bids else 0,
                len(self._asks[asks[0]].queue) if asks else 0)

    # -- mutation -----------------------------------------------------------

    def apply_event(self, ev: OrderEvent) -> float:
        """Apply one event and return the size it executed, 0.0 for a cancel.

        A limit or market order takes the opposite side's best level, FIFO
        within the level, then the next best, until it is filled.  A limit
        order stops at the first level worse than its price and rests what
        is left; a market order never stops on price and drops what is
        left, counted in `dropped_market_events` and `dropped_market_size`.
        """
        kind = ev.kind
        if kind is CANCEL:
            self._apply_cancel(ev)
            return 0.0
        buy = ev.side is BUY
        if buy:
            levels, prices, best, sign = self._asks, self._ask_prices, 0, 1
        else:
            levels, prices, best, sign = self._bids, self._bid_prices, -1, -1
        limited = kind is LIMIT
        price = ev.price_ticks
        remaining, executed = ev.size, 0.0
        while remaining > 0 and prices:
            level = prices[best]
            if limited and sign * level > sign * price:   # worse than the limit
                break
            taken = self._consume_level(levels, prices, level, remaining)
            remaining -= taken
            executed += taken
        if executed:   # a fill takes the best level, which the half holds
            if buy:
                self._ask_half = None
            else:
                self._bid_half = None
        if remaining > 0:
            if limited:
                self._rest(ev.order_id, ev.side, price, remaining)
            else:
                self.dropped_market_events += 1
                self.dropped_market_size += remaining
        return executed

    def _apply_cancel(self, ev: OrderEvent) -> None:
        order = self.resting.get(ev.order_id)
        if order is None:
            raise UnknownOrderId(f"unknown order id {ev.order_id!r}")
        if ev.side is not order.side or ev.price_ticks != order.price_ticks:
            raise CancelMismatch(f"cancel of {ev.order_id} as {ev.side.wire} at {ev.price_ticks}; "
                                 f"it rests as {order.side.wire} at {order.price_ticks}")
        if ev.size > order.remaining + 1e-12:
            raise OverCancel(f"cancel {ev.size} exceeds remaining {order.remaining} for {ev.order_id}")
        levels, prices = self._touch(order.side, order.price_ticks)
        lvl = levels[order.price_ticks]
        if ev.size >= order.remaining - 1e-12:
            lvl.size -= order.remaining
            lvl.queue.remove(ev.order_id)
            del self.resting[ev.order_id]
        else:
            order.remaining -= ev.size
            lvl.size -= ev.size
        if not lvl.queue:
            self._remove_level(levels, prices, order.price_ticks)

    # -- internals ----------------------------------------------------------

    def _rest(self, oid: str, side: Side, price: int, size: float) -> None:
        levels, prices = self._touch(side, price)
        lvl = levels.get(price)
        if lvl is None:
            lvl = levels[price] = _Level()
            insort(prices, price)
        lvl.size += size
        lvl.queue.append(oid)
        self.resting[oid] = RestingOrder(side, price, size)

    @staticmethod
    def _remove_level(levels: dict[int, _Level], prices: list[int], price: int) -> None:
        del levels[price]
        prices.pop(bisect_left(prices, price))

    def _consume_level(self, levels: dict[int, _Level], prices: list[int], price: int,
                       want: float) -> float:
        """Execute up to `want` against the FIFO queue at one level."""
        lvl = levels[price]
        taken = 0.0
        while lvl.queue and taken < want:
            oid = lvl.queue[0]
            order = self.resting[oid]
            fill = min(order.remaining, want - taken)
            order.remaining -= fill
            lvl.size -= fill
            taken += fill
            if order.remaining <= 0:
                lvl.queue.popleft()
                del self.resting[oid]
        if not lvl.queue:
            self._remove_level(levels, prices, price)
        return taken

    # -- snapshots ----------------------------------------------------------

    def snapshot(self, depth: int) -> tuple[tuple, tuple]:
        """The top `depth` levels per side, `(bids, asks)`: each a tuple of
        the side's prices (best first), then their volumes.

        Shallow sides are padded with zero volume at prices that continue
        the side's monotone direction one tick per step past the last real
        level (from 0 when the side is empty), keeping bid prices strictly
        decreasing and ask prices strictly increasing.  A side's tuple is
        the same object as at the last call until a change reaches it
        (see the module docstring).
        """
        if depth != self._snap_depth:
            if depth < 1:
                raise ValueError("snapshot depth must be >= 1")
            self._snap_depth = depth
            self._bid_half = self._ask_half = None
        bids = self._bid_half
        if bids is None:
            bids, self._bid_edge = _half(self._bids, self._bid_prices[:-depth - 1:-1], depth, -1)
            self._bid_half = bids
        asks = self._ask_half
        if asks is None:
            asks, self._ask_edge = _half(self._asks, self._ask_prices[:depth], depth, 1)
            self._ask_half = asks
        return bids, asks


def _half(levels: dict[int, _Level], prices: list[int], depth: int,
          step: int) -> tuple[tuple, float]:
    """One side's snapshot tuple of its top `prices`, best first, padded
    to `depth` levels one `step` past the last, and its edge: the
    `depth`-th best price, or -inf (bids) or inf (asks) for a side of
    fewer levels, on which any change reaches the padding."""
    vols = [levels[p].size for p in prices]
    pad = depth - len(prices)
    if not pad:
        return tuple(prices + vols), prices[-1]
    last = prices[-1] if prices else 0
    prices += range(last + step, last + step * (pad + 1), step)
    vols += [0.0] * pad
    return tuple(prices + vols), step * math.inf
