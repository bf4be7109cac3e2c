"""Demo: labelled feature datasets from an event stream.

Every mid-price-moving event becomes one sample; its features are the
T most recent preceding events.  Three aligned variants are built in a
single pass: raw order-flow covariates and two book-snapshot benchmarks
(with and without market-order rates).  Each variant stores one feature
row per event; `ds.X` gathers the windows from it.  Samples are then
split into train/validation/test by date and normalization statistics
are fitted on the train split only.
"""

import numpy as np

from lobflow import feed, features

cfg = feed.GeneratorConfig(n_events=20_000, planted=feed.PLANTED_LAST_EVENT_SIDE,
                           min_gap_ms=1)
events = feed.iter_events(feed.generate_synthetic(cfg, seed=3))

datasets = features.build_datasets(events, T=10, S=3, warm_count=100)
for name, ds in datasets.items():
    print(f"{name:9s} X{ds.X.shape} gathered from table{ds.table.shape}  labels up/down = "
          f"{int(ds.y.sum())}/{int((1 - ds.y).sum())}")
print("build counters:", datasets["orderflow"].counters)

# time-ordered 60/20/20 split by event timestamp (half-open ranges)
ds = datasets["orderflow"]
t = ds.event_time
edges = (int(t[0]), int(t[int(ds.n * 0.6)]), int(t[int(ds.n * 0.8)]), int(t[-1]) + 1)
for v in datasets.values():
    features.split_by_date(v, edges[0:2], edges[1:3], edges[2:4])
    features.compute_norm_stats(v)
print("\nsplit counts:", ds.split_counts())

# no look-ahead: the newest feature event always precedes the label event
gap = ds.event_time - ds.window_last_ts
print("min (label time - newest feature time):", int(gap.min()), "ms  (> 0)")

# the encoder standardizes with train-split statistics stored in the header
z = features.transform_numeric(ds.X[ds.split == features.SPLIT_TRAIN], ds.variant, ds.S)
z = (z - np.array(ds.norm_stats["mean"])) / np.array(ds.norm_stats["sd"])
print("train-split standardized channel means:",
      np.round(z.reshape(-1, z.shape[-1]).mean(axis=0), 12))
