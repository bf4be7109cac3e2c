"""Acceptance suite: one PASS/FAIL line per criterion.

Run with plain pytest; each criterion prints its verdict and timing to
the terminal even under output capture.
"""

import time

import numpy as np
import pytest

from lobflow import cli, feed, features, lob, net, oracle, stats
from lobflow.stats import ConfusionMatrix, DailySeries

DAY_MS = 86_400_000


@pytest.fixture
def verdict(capsys):
    def emit(ok: bool, name: str, detail: str):
        with capsys.disabled():
            print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        assert ok, f"{name}: {detail}"
    return emit


# ---------------------------------------------------------------------------
# shared planted corpus (criteria: learnability, overfit, no-look-ahead)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def planted_corpus():
    """~280k planted events -> >=62k samples, split 50k train / 10k test."""
    gcfg = feed.GeneratorConfig(n_events=280_000, planted=feed.PLANTED_LAST_EVENT_SIDE,
                                min_gap_ms=1, mean_gap_ms=4)
    events = feed.iter_events(feed.generate_synthetic(gcfg, seed=101))
    datasets = features.build_datasets(events, T=10, S=3, warm_count=40)
    ds = datasets["orderflow"]
    assert ds.n >= 62_000, f"corpus too small: {ds.n}"
    t = ds.event_time
    lo = int(t[0])
    a = int(t[50_000])                      # train: first 50k samples
    b = int(t[ds.n - 10_000])               # test: last 10k samples
    hi = int(t[-1]) + 1
    for v in datasets.values():
        features.split_by_date(v, (lo, a), (a, b), (b, hi))
        features.compute_norm_stats(v)
    return datasets


def model_for(ds: features.Dataset, layers=(8,), seed=0) -> net.Model:
    cfg = net.ModelConfig(variant=ds.variant, S=ds.S, layers=layers, dense_hidden=(),
                          emb_dims={"kind": 2, "side": 2, "hour": 4}, dropout=0.0,
                          norm_mean=ds.norm_stats["mean"], norm_sd=ds.norm_stats["sd"])
    return net.Model(cfg, seed=seed)


def split_xy(ds, name):
    sub = ds.subset(name)
    return sub.X, sub.y


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_lob_oracle_equivalence(verdict):
    """100k events: fast book == naive reference after every event, < 60 s."""
    t0 = time.perf_counter()
    gcfg = feed.GeneratorConfig(n_events=100_000)
    book = lob.OrderBook()
    ref = oracle.ReferenceBook()
    mismatch = None
    n = 0
    for ev in feed.iter_events(feed.generate_synthetic(gcfg, seed=17)):
        executed, ref_executed = book.apply_event(ev), ref.apply(ev)
        n += 1
        mismatch = oracle.compare_books(book, ref)
        if mismatch is None and executed != ref_executed:
            mismatch = f"executed {executed} != {ref_executed}"
        if mismatch:
            mismatch = f"event {n}: {mismatch}"
            break
    elapsed = time.perf_counter() - t0
    ok = mismatch is None and elapsed < 60.0
    verdict(ok, "lob-oracle-equivalence",
            f"{n} events, {elapsed:.1f}s" + (f", {mismatch}" if mismatch else ""))


def test_gradient_verification(verdict):
    """20 random small configs: analytic vs central differences < 1e-4, < 2 min."""
    t0 = time.perf_counter()
    results = net.run_gradcheck(n_configs=20, seed=0, step=1e-5)
    elapsed = time.perf_counter() - t0
    worst = max(err for _, err in results)
    ok = worst < 1e-4 and elapsed < 120.0
    verdict(ok, "gradient-verification",
            f"20 configs, max rel err {worst:.2e}, {elapsed:.1f}s")


def test_loss_sanity(verdict):
    """Random-init loss ~= ln 2 on a balanced batch; softmax sums to 1."""
    rng = np.random.default_rng(3)
    X = net.random_raw_batch("orderflow", 256, 8, 2, rng)
    y = np.tile([0, 1], 128)
    cfg = net.ModelConfig(variant="orderflow", layers=(16,), dropout=0.0,
                          emb_dims={"kind": 2, "side": 2, "hour": 4},
                          norm_mean=[0.0] * 3, norm_sd=[1.0] * 3)
    loss = net.Model(cfg, seed=11).loss_on(X, y)
    sums = net.softmax(rng.normal(scale=25.0, size=(10_000, 2))).sum(axis=1)
    sum_err = float(np.abs(sums - 1.0).max())
    ok = abs(loss - np.log(2)) < 0.05 and sum_err < 1e-12
    verdict(ok, "loss-sanity",
            f"init loss {loss:.4f} (ln2={np.log(2):.4f}), softmax sum err {sum_err:.1e}")


def test_overfit_capacity(verdict, planted_corpus):
    """512 samples: training MCC >= 0.99 within 200 epochs, < 5 min."""
    ds = planted_corpus["orderflow"]
    X, y = ds.X[:512], ds.y[:512]
    model = model_for(ds, layers=(16,), seed=1)
    sched = net.TrainSchedule(epochs=200, batch_size=64, lr=3e-3, patience=200, seed=1)
    t0 = time.perf_counter()
    best = 0.0
    epochs_used = 0
    rng = np.random.default_rng(sched.seed)
    opt = net.AdamState.zeros_like(model.params)
    for epoch in range(sched.epochs):
        perm = rng.permutation(len(y))
        for start in range(0, len(perm), sched.batch_size):
            idx = perm[start:start + sched.batch_size]
            _, grads = model.loss_and_grads(X[idx], y[idx])
            net.adam_step(model.params, grads, opt, lr=sched.lr)
        yhat = model.predict(X).argmax(axis=1)
        best = max(best, stats.mcc(stats.confusion(y, yhat)))
        epochs_used = epoch + 1
        if best >= 0.99:
            break
    elapsed = time.perf_counter() - t0
    ok = best >= 0.99 and elapsed < 300.0
    verdict(ok, "overfit-capacity",
            f"train MCC {best:.3f} after {epochs_used} epochs, {elapsed:.1f}s")


def test_planted_signal_learnability(verdict, planted_corpus):
    """50k train / 10k test on the planted rule: test MCC >= 0.95; the two
    snapshot benchmark pipelines run end-to-end on the same stream."""
    t0 = time.perf_counter()
    ds = planted_corpus["orderflow"]
    model = model_for(ds, layers=(8,), seed=2)
    sched = net.TrainSchedule(epochs=4, batch_size=256, lr=3e-3, patience=4, seed=2)
    net.train(model, split_xy(ds, "train"), split_xy(ds, "validation"), sched)
    Xte, yte = split_xy(ds, "test")
    assert len(yte) == 10_000
    yhat = model.predict(Xte).argmax(axis=1)
    test_mcc = stats.mcc(stats.confusion(yte, yhat))

    bench_ok = True
    bench_mccs = {}
    for variant in ("bench1", "bench2"):
        try:
            bds = planted_corpus[variant]
            bmodel = model_for(bds, layers=(8,), seed=3)
            bsched = net.TrainSchedule(epochs=1, batch_size=256, lr=3e-3, seed=3)
            net.train(bmodel, split_xy(bds, "train"), split_xy(bds, "validation"), bsched)
            bX, by = split_xy(bds, "test")
            byhat = bmodel.predict(bX).argmax(axis=1)
            bench_mccs[variant] = stats.mcc(stats.confusion(by, byhat))
        except Exception as e:  # any pipeline failure fails the criterion
            bench_ok = False
            bench_mccs[variant] = f"error: {e}"
    elapsed = time.perf_counter() - t0
    ok = test_mcc >= 0.95 and bench_ok
    verdict(ok, "planted-signal-learnability",
            f"orderflow test MCC {test_mcc:.3f} (n=10000), "
            f"bench1/bench2 end-to-end {bench_mccs}, {elapsed:.1f}s")


def test_metric_oracles(verdict):
    """MCC vs direct formula (1e-12, 1000 matrices); paired t and OLS vs
    quadrature oracles (1e-10 / 1e-6); P(|T| >= 1) = 0.5 +- 1e-10 at df=1."""
    rng = np.random.default_rng(5)
    mcc_err = 0.0
    done = 0
    while done < 1000:
        tp, tn, fp, fn = (int(v) for v in rng.integers(0, 100, 4))
        if tp + tn + fp + fn == 0:
            continue
        mcc_err = max(mcc_err, abs(stats.mcc(ConfusionMatrix(tp, tn, fp, fn))
                                   - oracle.mcc_direct(tp, tn, fp, fn)))
        done += 1

    a = list(rng.uniform(0.1, 0.9, 30))
    b = list(rng.uniform(0.1, 0.9, 30))
    dates = [stats.utc_date(1_510_000_000_000 + i * DAY_MS) for i in range(30)]
    r = stats.paired_t_test(DailySeries(dates, a), DailySeries(dates, b))
    t_ref, df_ref, p_ref = oracle.paired_t_direct(a, b)
    paired_err = max(abs(r.t_stat - t_ref), abs(r.p_value - p_ref))

    y = list(0.5 - 1e-3 * np.arange(40) + rng.normal(0, 0.02, 40))
    reg = stats.slope_regression(DailySeries(dates[:40] if len(dates) >= 40 else
                                             [stats.utc_date(1_510_000_000_000 + i * DAY_MS)
                                              for i in range(40)], y))
    slope_ref, se_ref, t_ref2, p_ref2 = oracle.ols_direct(list(range(40)), y)
    ols_err = max(abs(reg.slope - slope_ref), abs(reg.p_value - p_ref2))

    cauchy_err = abs(stats.t_sf_two_sided(1.0, 1) - 0.5)
    ok = mcc_err < 1e-12 and paired_err < 1e-10 and ols_err < 1e-6 and cauchy_err < 1e-10
    verdict(ok, "metric-oracles",
            f"mcc err {mcc_err:.1e}, paired-t err {paired_err:.1e}, "
            f"ols err {ols_err:.1e}, t_sf_two_sided(1,1)-0.5 = {cauchy_err:.1e}")


def test_stationarity_recovery(verdict):
    """70-day series, slope -2e-3, sigma 0.01: estimate within 3 SE;
    a constant series yields p = 1."""
    rng = np.random.default_rng(42)
    true_slope = -2e-3
    vals = 0.5 + true_slope * np.arange(70) + rng.normal(0.0, 0.01, 70)
    dates = [stats.utc_date(1_510_000_000_000 + i * DAY_MS) for i in range(70)]
    r = stats.slope_regression(DailySeries(dates, list(vals)))
    within = abs(r.slope - true_slope) <= 3 * r.slope_se
    const = stats.slope_regression(DailySeries(dates[:10], [0.4] * 10))
    ok = within and const.p_value == 1.0
    verdict(ok, "stationarity-recovery",
            f"slope {r.slope:.2e} (true -2e-03, SE {r.slope_se:.2e}), "
            f"constant-series p {const.p_value}")


def test_pipeline_determinism(verdict, tmp_path):
    """build -> train -> evaluate -> report twice on one fixture stream:
    every output file is byte-identical across the runs."""
    import json

    t0 = time.perf_counter()
    stream = tmp_path / "FIX.ofr"
    gcfg = feed.GeneratorConfig(n_events=8000, planted=feed.PLANTED_LAST_EVENT_SIDE,
                                min_gap_ms=1, mean_gap_ms=40)
    feed.write_stream(stream, gcfg, seed=33)
    events = list(feed.read_events(stream))
    lo, hi = events[0].timestamp_ms, events[-1].timestamp_ms + 1
    a = lo + int((hi - lo) * 0.6)
    b = lo + int((hi - lo) * 0.8)
    cfg = {
        "version": 1, "seed": 9,
        "pairs": {"FIX": {"input": str(stream)}},
        "warm_up": {"count": 50}, "T": 10, "S": 3,
        "split_ranges": {"train": [lo, a], "validation": [a, b], "test": [b, hi]},
        "model": {"layers": [8], "dense_hidden": [],
                  "emb_dims": {"kind": 2, "side": 2, "hour": 4}, "dropout": 0.1},
        "schedule": {"epochs": 2, "batch_size": 128, "lr": 3e-3, "beta1": 0.9,
                     "beta2": 0.999, "eps": 1e-8, "patience": 5},
    }
    cfgfile = tmp_path / "run.json"
    cfgfile.write_text(json.dumps(cfg))

    outputs = []
    for leg in ("one", "two"):
        out = tmp_path / leg
        assert cli.main(["build", "--config", str(cfgfile), "--out", str(out)]) == 0
        assert cli.main(["train", "--config", str(cfgfile), "--out", str(out),
                         "--pair", "FIX", "--variant", "orderflow"]) == 0
        assert cli.main(["evaluate", "--checkpoint", str(out / "FIX.orderflow.ckpt"),
                         "--dataset", str(out / "FIX.orderflow.ds"),
                         "--split", "test", "--out", str(out)]) == 0
        assert cli.main(["report", "--out", str(out), "--stream", str(stream)]) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    elapsed = time.perf_counter() - t0
    same_names = sorted(outputs[0]) == sorted(outputs[1])
    diffs = [k for k in outputs[0] if outputs[0][k] != outputs[1].get(k)]
    ok = same_names and not diffs
    verdict(ok, "pipeline-determinism",
            f"{len(outputs[0])} output files byte-identical across runs, {elapsed:.1f}s"
            + (f"; differing: {diffs}" if diffs else ""))


def test_no_look_ahead(verdict, planted_corpus):
    """Every sample's newest feature timestamp precedes its labelling event;
    split timestamps are ordered train < validation < test."""
    worst_gap = np.inf
    ordered = True
    for ds in planted_corpus.values():
        worst_gap = min(worst_gap, int(np.min(ds.event_time - ds.window_last_ts)))
        tr = ds.event_time[ds.split == features.SPLIT_TRAIN]
        va = ds.event_time[ds.split == features.SPLIT_VAL]
        te = ds.event_time[ds.split == features.SPLIT_TEST]
        ordered = ordered and tr.max() < va.min() and va.max() < te.min()
    ok = worst_gap > 0 and ordered
    verdict(ok, "no-look-ahead",
            f"min (label ts - newest feature ts) = {worst_gap} ms, splits ordered: {ordered}")
