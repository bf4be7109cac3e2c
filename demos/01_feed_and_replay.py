"""Demo: synthetic order-event streams, parsing, and validated iteration.

Generates a small `.ofr` stream (newline-delimited JSON order events),
shows a few raw lines, round-trips them through the parser, and reads
the stream back with `feed.iter_events`, which checks that sequence
numbers increase and timestamps never decrease.
"""

import collections

from lobflow import feed

# ---------------------------------------------------------------------------
# generate a stream
# ---------------------------------------------------------------------------

cfg = feed.GeneratorConfig(n_events=2000, mean_gap_ms=40)
lines = list(feed.generate_synthetic(cfg, seed=1))
print(f"generated {len(lines)} events; first three:")
for line in lines[:3]:
    print(" ", line)

# ---------------------------------------------------------------------------
# parse / serialize round trip
# ---------------------------------------------------------------------------

ev = feed.parse_event(lines[0])
print("\nparsed first event:", ev)
assert feed.serialize_event(ev) == lines[0], "round trip must be lossless"
print("serialize(parse(line)) == line for every generated event:",
      all(feed.serialize_event(feed.parse_event(l)) == l for l in lines))

# ---------------------------------------------------------------------------
# validated iteration
# ---------------------------------------------------------------------------

events = list(feed.iter_events(lines))
kinds = collections.Counter(e.kind.wire for e in events)
print(f"\nread {len(events)} events "
      f"spanning {(events[-1].timestamp_ms - events[0].timestamp_ms) / 1000.0:.1f}s")
print("event mix:", dict(kinds))

# malformed or out-of-order input is rejected with a line number
try:
    list(feed.iter_events([lines[1], lines[0]]))
except feed.OutOfOrder as e:
    print("out-of-order stream rejected:", e)
