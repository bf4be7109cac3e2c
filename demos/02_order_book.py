"""Demo: limit order book reconstruction from a replayed stream.

Builds the book event by event, then inspects best bid/ask, the exact
half-tick mid-price, relative prices, fixed-depth snapshots, and the
cross-check against the naive reference implementation.
"""

from lobflow import feed, lob, oracle

cfg = feed.GeneratorConfig(n_events=5000)
book = lob.OrderBook()
ref = oracle.ReferenceBook()

executed = 0.0
for ev in feed.iter_events(feed.generate_synthetic(cfg, seed=7)):
    executed += book.apply_event(ev)
    ref.apply(ev)

print("best bid / best ask:", book.best_bid(), "/", book.best_ask())
print("mid-price (ticks, from the exact half-tick mid2):", book.mid2() / 2)
print("total executed size:", round(executed, 6))
print("market orders dropped for lack of liquidity:", book.dropped_market_events)

# relative price, the orderflow feature: 1 + the tick distance of an
# order's price from the same-side best before it (a buy's: the best bid)
bb = book.best_bid()
print()
for price in (bb, bb - 3):
    print(f"relative price of a buy at {price}, best bid {bb}:", 1 + abs(bb - price))

# fixed-depth snapshot as two halves, each the side's prices (best
# first), then their volumes; shallow sides padded with zero volume.  The
# book hands back a half's same tuple until an event reaches its levels
bids, asks = book.snapshot(5)
print("\ntop-5 snapshot:")
for p, v in zip(bids[:5], bids[5:]):
    print(f"  bid {p}  {v:.6g}")
for p, v in zip(asks[:5], asks[5:]):
    print(f"  ask {p}  {v:.6g}")

# the whole book state matches a naive full-scan reference exactly
print("\nfast book vs naive reference:",
      "identical" if oracle.compare_books(book, ref) is None else "MISMATCH")
