"""Demo: training the from-scratch LSTM mid-price direction classifier.

The stream carries a planted rule (the side of the most recent event
determines the next mid move), so a small model should reach a
near-perfect Matthews correlation coefficient on held-out data.
Everything — embeddings, LSTM, backpropagation through time, Adam,
dropout, early stopping — is plain numpy: the LSTM computes in float32,
the parameters, Adam and the loss stay float64.
"""

from lobflow import feed, features, net, stats

# build a planted-signal dataset (see demo 03 for the pipeline details)
cfg = feed.GeneratorConfig(n_events=40_000, planted=feed.PLANTED_LAST_EVENT_SIDE,
                           min_gap_ms=1)
events = feed.iter_events(feed.generate_synthetic(cfg, seed=5))
ds = features.build_datasets(events, T=10, S=3, warm_count=100,
                             variants=("orderflow",))["orderflow"]
t = ds.event_time
edges = (int(t[0]), int(t[int(ds.n * 0.6)]), int(t[int(ds.n * 0.8)]), int(t[-1]) + 1)
features.split_by_date(ds, edges[0:2], edges[1:3], edges[2:4])
features.compute_norm_stats(ds)

model_cfg = net.ModelConfig(variant="orderflow", S=ds.S, layers=(8,),
                            emb_dims={"kind": 2, "side": 2, "hour": 4}, dropout=0.05,
                            norm_mean=ds.norm_stats["mean"], norm_sd=ds.norm_stats["sd"])
model = net.Model(model_cfg, seed=0)

# sanity: a fresh model is a coin flip (loss ~ ln 2 = 0.693); `windows`
# gathers each minibatch's (or predict chunk's) windows from the table
tr, va, te = (ds.subset(s) for s in ("train", "validation", "test"))
print(f"initial loss on train split: {model.loss_on(tr.windows, tr.y):.4f}")

schedule = net.TrainSchedule(epochs=10, batch_size=128, lr=3e-3, patience=3, seed=0)
result = net.train(model, (tr.windows, tr.y), (va.windows, va.y), schedule)
for h in result.history:
    print(f"epoch {h['epoch']}: train loss {h['train_loss']:.4f}  "
          f"val loss {h['val_loss']:.4f}  val MCC {h['val_mcc']:.3f}")
print(f"early stop restored epoch {result.best_epoch} "
      f"(val loss {result.best_val_loss:.4f})")

yhat = model.predict(te.windows).argmax(axis=1)
print("test MCC:", round(stats.mcc(stats.confusion(te.y, yhat)), 4))

# gradients are exact: verified against central finite differences
worst = max(err for _, err in net.run_gradcheck(n_configs=3, seed=1))
print(f"finite-difference gradient check, max relative error: {worst:.2e}")
