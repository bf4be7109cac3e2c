"""Limit order book: price-level aggregation, matching, snapshots.

Prices are integer tick counts throughout.  The mid-price is returned as
an exact `Fraction` so half-tick mids carry no rounding.  Marketable
limit orders execute on arrival in price priority; market orders larger
than the opposing liquidity execute what is available and drop the
remainder (counted on the book).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .feed import EventKind, OrderEvent, Side


class BookError(Exception):
    pass


class UnknownOrderId(BookError):
    pass


class OverCancel(BookError):
    pass


class EmptySide(BookError):
    pass


@dataclass
class RestingOrder:
    side: Side
    price_ticks: int
    remaining: float


class _Level:
    """One price level: aggregate size/count plus FIFO order queue."""

    __slots__ = ("size", "queue")

    def __init__(self):
        self.size = 0.0
        self.queue: deque[str] = deque()

    @property
    def count(self) -> int:
        return len(self.queue)


@dataclass
class BookDelta:
    """Effect of one applied event."""

    mid_before: Optional[Fraction]
    mid_after: Optional[Fraction]
    executed: float = 0.0
    dropped: float = 0.0

    @property
    def mid_changed(self) -> bool:
        return (self.mid_before is not None and self.mid_after is not None
                and self.mid_before != self.mid_after)


class OrderBook:
    """Two-sided price-level book with per-order tracking.

    Single-writer: `apply_event` must not be called concurrently on one
    instance.  Reads between writes are fine.
    """

    def __init__(self, tick_size: Fraction = Fraction(1, 100)):
        self.tick_size = Fraction(tick_size)
        self._levels: dict[Side, dict[int, _Level]] = {Side.BUY: {}, Side.SELL: {}}
        # sorted ascending price lists, one per side
        self._prices: dict[Side, list[int]] = {Side.BUY: [], Side.SELL: []}
        self.resting: dict[str, RestingOrder] = {}
        self.dropped_market_events = 0
        self.dropped_market_size = 0.0

    # -- queries ------------------------------------------------------------

    def best_bid(self) -> Optional[int]:
        prices = self._prices[Side.BUY]
        return prices[-1] if prices else None

    def best_ask(self) -> Optional[int]:
        prices = self._prices[Side.SELL]
        return prices[0] if prices else None

    def mid_price(self) -> Fraction:
        bb, ba = self.best_bid(), self.best_ask()
        if bb is None or ba is None:
            raise EmptySide("mid-price requires both sides non-empty")
        return Fraction(bb + ba, 2)

    def mid_or_none(self) -> Optional[Fraction]:
        try:
            return self.mid_price()
        except EmptySide:
            return None

    def level_size(self, side: Side, price: int) -> float:
        lvl = self._levels[side].get(price)
        return lvl.size if lvl else 0.0

    def level_count(self, side: Side, price: int) -> int:
        lvl = self._levels[side].get(price)
        return lvl.count if lvl else 0

    def relative_price(self, side: Side, price_ticks: Optional[int]) -> int:
        """Tick distance from the same-side best, plus-one encoded.

        Market orders (price None) map to 1 by convention.
        """
        best = self.best_bid() if side is Side.BUY else self.best_ask()
        if best is None:
            raise EmptySide(f"no resting {side.wire} orders")
        if price_ticks is None:
            return 1
        return 1 + abs(best - price_ticks)

    # -- mutation -----------------------------------------------------------

    def apply_event(self, ev: OrderEvent) -> BookDelta:
        delta = BookDelta(mid_before=self.mid_or_none(), mid_after=None)
        if ev.kind is EventKind.LIMIT:
            self._apply_limit(ev, delta)
        elif ev.kind is EventKind.MARKET:
            self._apply_market(ev, delta)
        else:
            self._apply_cancel(ev, delta)
        delta.mid_after = self.mid_or_none()
        return delta

    def _apply_limit(self, ev: OrderEvent, delta: BookDelta) -> None:
        remaining = ev.size
        opp = Side.SELL if ev.side is Side.BUY else Side.BUY

        def marketable() -> Optional[int]:
            best = self.best_ask() if ev.side is Side.BUY else self.best_bid()
            if best is None:
                return None
            if ev.side is Side.BUY and ev.price_ticks >= best:
                return best
            if ev.side is Side.SELL and ev.price_ticks <= best:
                return best
            return None

        while remaining > 0:
            best = marketable()
            if best is None:
                break
            remaining -= self._consume_level(opp, best, remaining, delta)
        if remaining > 0:
            self._rest(ev.order_id, ev.side, ev.price_ticks, remaining)

    def _apply_market(self, ev: OrderEvent, delta: BookDelta) -> None:
        remaining = ev.size
        opp = Side.SELL if ev.side is Side.BUY else Side.BUY
        while remaining > 0:
            best = self.best_ask() if ev.side is Side.BUY else self.best_bid()
            if best is None:
                break
            remaining -= self._consume_level(opp, best, remaining, delta)
        if remaining > 0:
            self.dropped_market_events += 1
            self.dropped_market_size += remaining
            delta.dropped = remaining

    def _apply_cancel(self, ev: OrderEvent, delta: BookDelta) -> None:
        order = self.resting.get(ev.order_id)
        if order is None:
            raise UnknownOrderId(ev.order_id)
        if ev.size > order.remaining + 1e-12:
            raise OverCancel(f"cancel {ev.size} exceeds remaining {order.remaining} for {ev.order_id}")
        lvl = self._levels[order.side][order.price_ticks]
        if ev.size >= order.remaining - 1e-12:
            lvl.size -= order.remaining
            lvl.queue.remove(ev.order_id)
            del self.resting[ev.order_id]
        else:
            order.remaining -= ev.size
            lvl.size -= ev.size
        if not lvl.queue:
            self._remove_level(order.side, order.price_ticks)

    # -- internals ----------------------------------------------------------

    def _rest(self, oid: str, side: Side, price: int, size: float) -> None:
        levels = self._levels[side]
        lvl = levels.get(price)
        if lvl is None:
            lvl = levels[price] = _Level()
            insort(self._prices[side], price)
        lvl.size += size
        lvl.queue.append(oid)
        self.resting[oid] = RestingOrder(side, price, size)

    def _remove_level(self, side: Side, price: int) -> None:
        del self._levels[side][price]
        prices = self._prices[side]
        prices.pop(bisect_left(prices, price))

    def _consume_level(self, side: Side, price: int, want: float, delta: BookDelta) -> float:
        """Execute up to `want` against the FIFO queue at one level."""
        lvl = self._levels[side][price]
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
        delta.executed += taken
        if not lvl.queue:
            self._remove_level(side, price)
        return taken

    # -- snapshots / dumps --------------------------------------------------

    def snapshot(self, depth: int) -> "LobSnapshot":
        return make_snapshot(self, depth)

    def dump(self) -> str:
        """Deterministic text listing `side price size count`, sorted by price."""
        lines = []
        for price in self._prices[Side.BUY]:
            lvl = self._levels[Side.BUY][price]
            lines.append(f"buy {price} {lvl.size!r} {lvl.count}")
        for price in self._prices[Side.SELL]:
            lvl = self._levels[Side.SELL][price]
            lines.append(f"sell {price} {lvl.size!r} {lvl.count}")
        return "\n".join(lines)


@dataclass
class LobSnapshot:
    """Top-`depth` levels per side; shallow sides padded with zero volume.

    Pad prices continue the side's monotone direction one tick per step
    past the last real level (from 0 when the side is empty), keeping
    bid prices strictly decreasing and ask prices strictly increasing.
    """

    depth: int
    bid_prices: list[int]
    bid_volumes: list[float]
    ask_prices: list[int]
    ask_volumes: list[float]
    n_real_bids: int
    n_real_asks: int


def make_snapshot(book: OrderBook, depth: int) -> LobSnapshot:
    if depth < 1:
        raise ValueError("snapshot depth must be >= 1")
    bid_prices_sorted = book._prices[Side.BUY]
    ask_prices_sorted = book._prices[Side.SELL]
    bids = list(reversed(bid_prices_sorted[-depth:]))
    asks = list(ask_prices_sorted[:depth])
    bvol = [book._levels[Side.BUY][p].size for p in bids]
    avol = [book._levels[Side.SELL][p].size for p in asks]
    n_b, n_a = len(bids), len(asks)
    last_b = bids[-1] if bids else 0
    last_a = asks[-1] if asks else 0
    for k in range(depth - n_b):
        bids.append(last_b - (k + 1))
        bvol.append(0.0)
    for k in range(depth - n_a):
        asks.append(last_a + (k + 1))
        avol.append(0.0)
    return LobSnapshot(depth, bids, bvol, asks, avol, n_b, n_a)
