"""Naive reference implementations used to cross-check the fast paths.

Nothing here shares code with the checked implementations (only the
book's error types, so that both reject a bad stream alike): the book is
a pair of flat unsorted order maps re-scanned per query, the metrics
are direct formula evaluations, and the t CDF is numerical quadrature
of the density.  Deliberately simple; no sorted structures, no
incremental aggregates.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from .feed import EventKind, OrderEvent, Side
from .lob import CancelMismatch, OverCancel, UnknownOrderId


class ReferenceBook:
    """Flat per-side order maps (id -> [price, remaining]); every query
    is a full scan."""

    def __init__(self):
        self.buys: dict[str, list] = {}
        self.sells: dict[str, list] = {}
        self.dropped_market_events = 0

    def _side(self, side: Side) -> dict:
        return self.buys if side is Side.BUY else self.sells

    def best_bid(self) -> Optional[int]:
        return max((o[0] for o in self.buys.values()), default=None)

    def best_ask(self) -> Optional[int]:
        return min((o[0] for o in self.sells.values()), default=None)

    def mid(self) -> Optional[Fraction]:
        bb, ba = self.best_bid(), self.best_ask()
        if bb is None or ba is None:
            return None
        return Fraction(bb + ba, 2)

    def levels(self, side: Side) -> dict:
        """price -> [aggregate size, order count], from a full scan."""
        out: dict[int, list] = {}
        for price, remaining in self._side(side).values():
            lvl = out.get(price)
            if lvl is None:
                out[price] = [remaining, 1]
            else:
                lvl[0] += remaining
                lvl[1] += 1
        return out

    def top_levels(self, side: Side, depth: int) -> list:
        """[(price, size)] best-first from a full sort."""
        lv = self.levels(side)
        prices = sorted(lv, reverse=(side is Side.BUY))[:depth]
        return [(p, lv[p][0]) for p in prices]

    def state(self) -> tuple:
        """(best_bid, best_ask, mid, buy levels, sell levels) in one scan
        per side."""
        bids = self.levels(Side.BUY)
        asks = self.levels(Side.SELL)
        bb = max(bids) if bids else None
        ba = min(asks) if asks else None
        mid = Fraction(bb + ba, 2) if bb is not None and ba is not None else None
        return bb, ba, mid, bids, asks

    def _consume(self, side: Side, price: int, want: float) -> float:
        # FIFO within a level: dict preserves insertion order
        orders = self._side(side)
        taken = 0.0
        for oid in [k for k, o in orders.items() if o[0] == price]:
            if taken >= want:
                break
            o = orders[oid]
            fill = min(o[1], want - taken)
            o[1] -= fill
            taken += fill
            if o[1] <= 0:
                del orders[oid]
        return taken

    def apply(self, ev: OrderEvent) -> float:
        """Returns executed size."""
        executed = 0.0
        if ev.kind is EventKind.LIMIT:
            remaining = ev.size
            opp = Side.SELL if ev.side is Side.BUY else Side.BUY
            while remaining > 0:
                best = self.best_ask() if ev.side is Side.BUY else self.best_bid()
                if best is None:
                    break
                if ev.side is Side.BUY and ev.price_ticks < best:
                    break
                if ev.side is Side.SELL and ev.price_ticks > best:
                    break
                got = self._consume(opp, best, remaining)
                remaining -= got
                executed += got
            if remaining > 0:
                self._side(ev.side)[ev.order_id] = [ev.price_ticks, remaining]
        elif ev.kind is EventKind.MARKET:
            remaining = ev.size
            opp = Side.SELL if ev.side is Side.BUY else Side.BUY
            while remaining > 0:
                best = self.best_ask() if ev.side is Side.BUY else self.best_bid()
                if best is None:
                    break
                got = self._consume(opp, best, remaining)
                remaining -= got
                executed += got
            if remaining > 0:
                self.dropped_market_events += 1
        else:
            if ev.order_id not in self.buys and ev.order_id not in self.sells:
                raise UnknownOrderId(f"unknown order id {ev.order_id!r}")
            orders = self._side(ev.side)
            o = orders.get(ev.order_id)
            if o is None or o[0] != ev.price_ticks:
                raise CancelMismatch(f"cancel of {ev.order_id} does not name its side and price")
            if ev.size > o[1] + 1e-12:
                raise OverCancel(f"cancel {ev.size} exceeds remaining {o[1]} of {ev.order_id}")
            if ev.size >= o[1] - 1e-12:
                del orders[ev.order_id]
            else:
                o[1] -= ev.size
        return executed


def compare_books(book, ref: ReferenceBook) -> Optional[str]:
    """None if the fast book and the reference agree exactly, else a message."""
    bb, ba, mid, ref_bids, ref_asks = ref.state()
    if book.best_bid() != bb:
        return f"best_bid {book.best_bid()} != {bb}"
    if book.best_ask() != ba:
        return f"best_ask {book.best_ask()} != {ba}"
    ref_mid2 = None if mid is None else 2 * mid
    if book.mid2() != ref_mid2:
        return f"mid2 {book.mid2()} != {ref_mid2}"
    for side, fast, ref_levels in ((Side.BUY, book._bids, ref_bids),
                                   (Side.SELL, book._asks, ref_asks)):
        fast_levels = {p: [lvl.size, len(lvl.queue)] for p, lvl in fast.items()}
        if fast_levels != ref_levels:
            return f"{side.wire} levels differ: {fast_levels} != {ref_levels}"
    return None


# ---------------------------------------------------------------------------
# Metric oracles
# ---------------------------------------------------------------------------


def mcc_direct(tp: int, tn: int, fp: int, fn: int) -> float:
    num = tp * tn - fp * fn
    den = math.sqrt(tp + fp) * math.sqrt(tp + fn) * math.sqrt(tn + fp) * math.sqrt(tn + fn)
    return num / den if den > 0 else 0.0


def t_pdf(x: float, df: int) -> float:
    lognorm = (math.lgamma((df + 1) / 2.0) - math.lgamma(df / 2.0)
               - 0.5 * math.log(df * math.pi))
    return math.exp(lognorm - (df + 1) / 2.0 * math.log1p(x * x / df))


def t_cdf_quadrature(t: float, df: int) -> float:
    """CDF by adaptive quadrature of the density from 0 to |t|."""
    if t == 0.0:
        return 0.5
    from scipy.integrate import quad
    body, _ = quad(t_pdf, 0.0, abs(t), args=(df,), epsabs=1e-12, limit=200)
    return 0.5 + body if t > 0 else 0.5 - body


def paired_t_direct(a: list, b: list) -> tuple[float, int, float]:
    """Textbook paired t statistic and two-sided quadrature p-value."""
    n = len(a)
    d = [x - y for x, y in zip(a, b)]
    mean = sum(d) / n
    var = sum((x - mean) ** 2 for x in d) / (n - 1)
    t = mean / math.sqrt(var / n)
    p = 2.0 * (1.0 - t_cdf_quadrature(abs(t), n - 1))
    return t, n - 1, p


def ols_direct(x: list, y: list) -> tuple[float, float, float, float]:
    """Textbook OLS slope, SE, t, and two-sided quadrature p-value."""
    n = len(x)
    xbar = sum(x) / n
    ybar = sum(y) / n
    sxx = sum((xi - xbar) ** 2 for xi in x)
    sxy = sum((xi - xbar) * (yi - ybar) for xi, yi in zip(x, y))
    slope = sxy / sxx
    intercept = ybar - slope * xbar
    ss_res = sum((yi - intercept - slope * xi) ** 2 for xi, yi in zip(x, y))
    se = math.sqrt(ss_res / (n - 2) / sxx)
    t = slope / se
    p = 2.0 * (1.0 - t_cdf_quadrature(abs(t), n - 2))
    return slope, se, t, p
