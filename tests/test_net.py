import contextlib
import copy
import dataclasses
import errno
import gc
import multiprocessing
import mmap
import os
import subprocess
import sys
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from conftest import _cpus
from lobflow import container, net
from lobflow.features import MAX_S, MissingStats
from lobflow.net import Model, ModelConfig, TrainSchedule


def small_cfg(variant="orderflow", S=2, layers=(5,), dense_hidden=(), dropout=0.0):
    width = 3 if variant == "orderflow" else 4 * S + (2 if variant == "bench1" else 0)
    return ModelConfig(variant=variant, S=S, layers=layers, dense_hidden=dense_hidden,
                       dropout=dropout, emb_dims={"kind": 2, "side": 2, "hour": 3},
                       norm_mean=[0.0] * width, norm_sd=[1.0] * width)


def raw_batch(variant="orderflow", B=4, T=3, S=2, seed=0):
    return net.random_raw_batch(variant, B, T, S, np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# config values
# ---------------------------------------------------------------------------


class TestConfigValues:
    @pytest.mark.parametrize("change", [
        {"variant": "bench3"}, {"S": 0}, {"S": MAX_S + 1}, {"layers": []}, {"layers": [0]},
        {"layers": [net.MAX_WIDTH + 1]}, {"dense_hidden": [4, net.MAX_WIDTH + 1]},
        {"layers": [4.0]}, {"layers": 4}, {"dense_hidden": [True]}, {"dense_hidden": None},
        {"emb_dims": {"kind": 2, "side": 2}}, {"emb_dims": {"kind": 2, "side": 2, "hour": 0}},
        {"emb_dims": {"kind": 2, "side": 2, "hour": net.MAX_WIDTH + 1}},
        {"emb_dims": [2, 2, 3]}, {"dropout": 1.0}, {"dropout": -0.1}, {"dropout": "x"},
        {"norm_mean": [0.0]}, {"norm_mean": [0.0, float("nan"), 0.0]}, {"norm_mean": "x"},
        {"norm_sd": [1.0, 0.0, 1.0]}, {"norm_sd": [1.0, 1.0, float("inf")]},
    ], ids=repr)
    def test_model_config_rejects(self, change):
        with pytest.raises(net.InvalidConfig, match=next(iter(change))):
            dataclasses.replace(small_cfg(), **change)

    @pytest.mark.parametrize("change", [
        {"epochs": 0}, {"epochs": 2.0}, {"batch_size": 0}, {"batch_size": None},
        {"batch_size": net.MAX_BATCH + 1},
        {"patience": -1}, {"patience": None}, {"seed": -1}, {"lr": -1.0}, {"lr": "x"},
        {"lr": float("inf")}, {"lr": 10 ** 400}, {"beta1": 1.0}, {"beta2": -0.5},
        {"eps": 0.0}, {"eps": False},
    ], ids=repr)
    def test_schedule_rejects(self, change):
        with pytest.raises(net.InvalidConfig, match=next(iter(change))):
            TrainSchedule(**change)

    def test_widths_become_tuples(self):
        cfg = small_cfg(layers=[4, 3], dense_hidden=[2])
        assert cfg.layers == (4, 3) and cfg.dense_hidden == (2,)
        # the largest width passes the check (the config allocates nothing)
        assert small_cfg(layers=[net.MAX_WIDTH]).layers == (net.MAX_WIDTH,)
        assert TrainSchedule(lr=0, beta1=0.0, patience=0).lr == 0
        assert TrainSchedule(batch_size=net.MAX_BATCH).batch_size == net.MAX_BATCH


# ---------------------------------------------------------------------------
# softmax / loss
# ---------------------------------------------------------------------------


class TestSoftmax:
    def test_closed_form(self):
        p = net.softmax(np.array([np.log(3.0), 0.0]))
        np.testing.assert_allclose(p, [0.75, 0.25], atol=1e-14)

    def test_sums_to_one(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(scale=30.0, size=(10_000, 2))
        p = net.softmax(logits)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(50, 2))
        np.testing.assert_allclose(net.softmax(logits), net.softmax(logits + 123.0),
                                   atol=1e-12)


class TestLoss:
    def _model(self):
        return Model(small_cfg(), seed=0)

    def test_uniform_predictor_ln2(self):
        m = self._model()
        probs = np.full((64, 2), 0.5)
        y = np.random.default_rng(0).integers(0, 2, 64)
        assert abs(m.loss(probs, y) - np.log(2)) < 1e-12

    def test_perfect_predictions_zero_loss(self):
        m = self._model()
        y = np.array([0, 1, 0])
        probs = np.eye(2)[y]
        assert m.loss(probs, y) == 0.0

    def test_clamp_keeps_loss_finite(self):
        m = self._model()
        probs = np.array([[1.0, 0.0]])
        assert np.isfinite(m.loss(probs, np.array([1])))

    def test_empty_batch(self):
        with pytest.raises(net.EmptyBatch):
            self._model().loss(np.empty((0, 2)), np.empty(0, dtype=int))


# ---------------------------------------------------------------------------
# encoding / forward
# ---------------------------------------------------------------------------


class TestForward:
    def test_zero_params_give_uniform(self):
        m = Model(small_cfg(layers=(4, 3), dense_hidden=(6,)), seed=0)
        m.params = {k: np.zeros_like(v) for k, v in m.params.items()}
        probs, _ = m.forward(raw_batch())
        np.testing.assert_allclose(probs, 0.5, atol=1e-15)

    def test_zero_embedding_is_zero_vector(self):
        m = Model(small_cfg(), seed=0)
        m.params["emb/kind/U"][:] = 0.0
        m.params["emb/kind/b"][:] = 0.0
        encoded, _ = m.encode(raw_batch())
        # the kind embedding fills the first two input columns
        np.testing.assert_array_equal(encoded[..., :2], 0.0)
        assert encoded[..., 2:4].all()

    def test_encode_rejects_bad_category(self):
        m = Model(small_cfg(), seed=0)
        X = raw_batch()
        X[..., 3] = 9  # kind out of range
        with pytest.raises(net.CategoryOutOfRange):
            m.encode(X)

    @pytest.mark.parametrize("variant", ["bench1", "bench2"])
    def test_encode_rejects_other_snapshot_depth(self, variant):
        m = Model(small_cfg(variant, S=2), seed=0)
        for S in (1, 3):
            with pytest.raises(net.ShapeMismatch, match="S=2"):
                m.encode(raw_batch(variant, S=S))
        # an orderflow row does not depend on S
        Model(small_cfg(S=3), seed=0).encode(raw_batch(S=2))

    def test_missing_norm_stats(self):
        cfg = small_cfg()
        cfg.norm_mean = None
        with pytest.raises(MissingStats):
            Model(cfg, seed=0).forward(raw_batch())

    def test_bench_widths(self):
        b1 = small_cfg("bench1")
        b2 = small_cfg("bench2")
        assert b1.input_width == b2.input_width + 2
        m1 = Model(b1, seed=0)
        m2 = Model(b2, seed=0)
        p1, _ = m1.forward(raw_batch("bench1"))
        p2, _ = m2.forward(raw_batch("bench2"))
        assert p1.shape == p2.shape == (4, 2)

    def test_batch_partition_independent(self, monkeypatch):
        m = Model(small_cfg(layers=(6, 4)), seed=3)
        X = raw_batch(B=37)
        got = []
        for chunk in (37, 5):
            monkeypatch.setattr(net, "PREDICT_CHUNK", chunk)
            got.append(m.predict(X))
        np.testing.assert_allclose(got[0], got[1], atol=1e-12)

    def test_bad_shape(self):
        m = Model(small_cfg(), seed=0)
        with pytest.raises(net.ShapeMismatch):
            m.forward(np.zeros((3, 6)))

    def test_zero_step_batch(self):
        m = Model(small_cfg(), seed=0)
        X = np.zeros((3, 0, 6))
        for run in (m.forward, m.predict):
            with pytest.raises(net.ShapeMismatch, match="T >= 1"):
                run(X)

    def test_empty_batch(self):
        m = Model(small_cfg(), seed=0)
        with pytest.raises(net.EmptyBatch):
            m.forward(np.zeros((0, 3, 6)))


# ---------------------------------------------------------------------------
# the time-major LSTM against the per-step reference
# ---------------------------------------------------------------------------


def _ref_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def reference_loss_and_grads(m, X, y, masks=None):
    """The batch-major, step-by-step LSTM: each step computes its gates
    with three masked sigmoids, keeps a tuple of its arrays, and backward
    accumulates every weight gradient step by step.  `masks`, the bool
    keep masks of `m.dropout_masks`, are scaled to keep / (1 - rate) here
    and used in their draw order: every LSTM layer, then every dense
    layer."""
    cfg, P = m.cfg, m.params
    B, T, _ = X.shape
    scaled = iter(() if masks is None else [keep / (1.0 - cfg.dropout) for keep in masks])
    inp, emb = m.encode(X)
    layers = []
    for l, H in enumerate(cfg.layers):
        Wx, Wh, b = P[f"lstm/{l}/Wx"], P[f"lstm/{l}/Wh"], P[f"lstm/{l}/b"]
        mask = None
        if masks is not None:
            mask = next(scaled)
            inp = inp * mask
        h, c = np.zeros((B, H)), np.zeros((B, H))
        steps, hs = [], np.empty((B, T, H))
        for t in range(T):
            z = inp[:, t] @ Wx + h @ Wh + b
            i, f = _ref_sigmoid(z[:, :H]), _ref_sigmoid(z[:, H:2 * H])
            g, o = np.tanh(z[:, 2 * H:3 * H]), _ref_sigmoid(z[:, 3 * H:])
            c_new = f * c + i * g
            tc = np.tanh(c_new)
            steps.append((inp[:, t], h, c, i, f, g, o, tc))
            h, c = o * tc, c_new
            hs[:, t] = h
        layers.append((mask, steps))
        inp = hs
    a, head = inp[:, -1], []
    for d in range(m.n_dense):
        mask = None
        if masks is not None:
            mask = next(scaled)
            a = a * mask
        z = a @ P[f"head/{d}/W"] + P[f"head/{d}/b"]
        head.append((a, mask, z))
        a = np.tanh(z) if d < m.n_dense - 1 else z
    probs = net.softmax(a)

    grads = {k: np.zeros_like(v) for k, v in P.items()}
    da = (probs - np.eye(net.K)[y]) / B
    for d in range(m.n_dense - 1, -1, -1):
        a_in, mask, z = head[d]
        if d < m.n_dense - 1:
            da = da * (1.0 - np.tanh(z) ** 2)
        grads[f"head/{d}/W"] += a_in.T @ da
        grads[f"head/{d}/b"] += da.sum(axis=0)
        da = da @ P[f"head/{d}/W"].T
        if mask is not None:
            da = da * mask
    dh_seq = np.zeros((B, T, cfg.layers[-1]))
    dh_seq[:, -1] = da
    for l in range(len(cfg.layers) - 1, -1, -1):
        mask, steps = layers[l]
        H = cfg.layers[l]
        Wx, Wh = P[f"lstm/{l}/Wx"], P[f"lstm/{l}/Wh"]
        dx_seq = np.empty((B, T, Wx.shape[0]))
        dh_next, dc_next = np.zeros((B, H)), np.zeros((B, H))
        for t in range(T - 1, -1, -1):
            x_t, h_prev, c_prev, i, f, g, o, tc = steps[t]
            dh = dh_seq[:, t] + dh_next
            dc = dc_next + dh * o * (1.0 - tc ** 2)
            dz = np.concatenate([dc * g * i * (1 - i), dc * c_prev * f * (1 - f),
                                 dc * i * (1 - g ** 2), dh * tc * o * (1 - o)], axis=1)
            grads[f"lstm/{l}/Wx"] += x_t.T @ dz
            grads[f"lstm/{l}/Wh"] += h_prev.T @ dz
            grads[f"lstm/{l}/b"] += dz.sum(axis=0)
            dx_seq[:, t] = dz @ Wx.T
            dh_next, dc_next = dz @ Wh.T, dc * f
        dh_seq = dx_seq if mask is None else dx_seq * mask
    if cfg.variant == "orderflow":
        offset = 0
        for name, card, *_ in net.CATEGORICALS:
            dim = cfg.emb_dims[name]
            idx, e = emb[name]
            de = dh_seq[..., offset:offset + dim] * (1.0 - e ** 2)
            np.add.at(grads[f"emb/{name}/U"], idx.ravel(), de.reshape(-1, dim))
            grads[f"emb/{name}/b"] += de.sum(axis=(0, 1))
            offset += dim
    return m.loss(probs, y), probs, grads


def _rel(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


class TestReferenceLSTM:
    @pytest.mark.parametrize("T", [1, 100])
    @pytest.mark.parametrize("dense", [(), (5,)])
    @pytest.mark.parametrize("layers", [(6,), (6, 4)])
    @pytest.mark.parametrize("variant", ["orderflow", "bench1", "bench2"])
    def test_matches_per_step_reference(self, variant, layers, dense, T):
        m = Model(small_cfg(variant, layers=layers, dense_hidden=dense, dropout=0.3), seed=11)
        X = raw_batch(variant, B=5, T=T, seed=3)
        y = np.array([0, 1, 1, 0, 1])
        for masks in (None, m.dropout_masks(5, T, np.random.default_rng(8))):
            probs, cache = m.forward(X, masks=masks, dtype=np.float64)
            grads = m.backward(cache, y)
            _, ref_probs, ref_grads = reference_loss_and_grads(m, X, y, masks=masks)
            np.testing.assert_allclose(probs, ref_probs, rtol=1e-12, atol=0)
            assert sorted(grads) == sorted(ref_grads)
            for k in ref_grads:
                assert _rel(grads[k], ref_grads[k]) <= 1e-12, (masks is None, k)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("variant", ["orderflow", "bench1", "bench2"])
    def test_predict_equals_forward_bitwise(self, variant, dtype):
        m = Model(small_cfg(variant, layers=(6, 4), dense_hidden=(5,), dropout=0.3), seed=2)
        X = raw_batch(variant, B=9, T=12, seed=4)
        np.testing.assert_array_equal(m.predict(X, dtype=dtype), m.forward(X, dtype=dtype)[0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_saturated_gates_stay_finite_without_warnings(self, dtype):
        m = Model(small_cfg(layers=(6, 4), dense_hidden=(5,)), seed=0)
        for l in range(2):
            H = m.cfg.layers[l]
            # i and o gates driven past -800, f and g past +800: beyond
            # where exp overflows in either dtype (-88.7 and -709)
            m.params[f"lstm/{l}/b"][:] = np.repeat([-900.0, 900.0, 900.0, -900.0], H)
        X = raw_batch(B=4, T=5)
        y = np.array([0, 1, 0, 1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            probs, cache = m.forward(X, dtype=dtype)
            # backward writes dz over the gate buffer: read the gates first
            gates = cache["layers"][0]["state"][0].copy()
            grads = m.backward(cache, y)
            predicted = m.predict(X, dtype=dtype)
        assert np.all(np.isfinite(probs)) and np.all(np.isfinite(predicted))
        assert all(np.all(np.isfinite(g)) for g in grads.values())
        assert gates.dtype == dtype
        assert set(np.unique(gates)) <= {0.0, 1.0}


def _cache_bytes(obj) -> int:
    """Bytes of the distinct arrays (or their bases) a forward cache holds."""
    seen = {}
    stack = [obj]
    while stack:
        o = stack.pop()
        if isinstance(o, np.ndarray):
            base = o if o.base is None else o.base
            seen[id(base)] = base.nbytes
        elif isinstance(o, dict):
            stack.extend(o.values())
        elif isinstance(o, (list, tuple)):
            stack.extend(o)
    return sum(seen.values())


class TestBackwardMemory:
    """Backward consumes the forward cache instead of growing beside it."""

    def test_traced_peak_within_the_forward_cache(self):
        # the benchmark's shape: 64x64, B=64, T=100, dropout 0.1; backward
        # writes each layer's dz over its gate buffer and frees the layer
        # before the next one's BPTT, so it needs little beyond the cache
        cfg = dataclasses.replace(small_cfg(layers=(64, 64), dropout=0.1),
                                  emb_dims=dict(net.DEFAULT_EMB_DIMS))
        m = Model(cfg, seed=0)
        X = raw_batch(B=64, T=100, seed=1)
        y = np.random.default_rng(2).integers(0, 2, 64)
        tracemalloc.start()
        try:
            _, cache = m.forward(X, masks=m.dropout_masks(64, 100, np.random.default_rng(3)))
            held = _cache_bytes(cache)
            tracemalloc.reset_peak()
            m.backward(cache, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.15 * held, peak / held

    def test_second_backward_raises(self):
        m = Model(small_cfg(layers=(6, 4), dense_hidden=(5,)), seed=0)
        X = raw_batch(B=4, T=5)
        y = np.array([0, 1, 0, 1])
        _, cache = m.forward(X)
        m.backward(cache, y)
        with pytest.raises(net.NetError):
            m.backward(cache, y)


class TestPrecision:
    """The float32 LSTM against the float64 one, on the benchmark's shape."""

    def test_float32_within_stated_bounds_of_float64(self):
        cfg = dataclasses.replace(small_cfg(layers=(64, 64)), emb_dims=dict(net.DEFAULT_EMB_DIMS))
        m = Model(cfg, seed=3)
        X = raw_batch(B=64, T=100, seed=5)
        y = np.random.default_rng(6).integers(0, 2, 64)
        p32, c32 = m.forward(X, dtype=np.float32)
        p64, c64 = m.forward(X, dtype=np.float64)
        assert c32["layers"][0]["h"].dtype == np.float32 and p32.dtype == np.float64
        # bounds: probabilities within 1e-6 absolute, every gradient group
        # within 1e-4 relative, and the same predicted class
        assert np.max(np.abs(p32 - p64)) <= 1e-6
        np.testing.assert_array_equal(p32.argmax(axis=1), p64.argmax(axis=1))
        g32, g64 = m.backward(c32, y), m.backward(c64, y)
        for k in g64:
            assert g32[k].dtype == np.float64
            assert _rel(g32[k], g64[k]) <= 1e-4, k


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


class TestGradients:
    @pytest.mark.parametrize("variant,layers,dense", [
        ("orderflow", (4,), ()),
        ("orderflow", (4, 3), (5,)),
        ("bench1", (3,), ()),
        ("bench2", (3, 3), (4,)),
    ])
    def test_finite_difference_agreement(self, variant, layers, dense):
        m = Model(small_cfg(variant, layers=layers, dense_hidden=dense), seed=7)
        X = raw_batch(variant, B=3, T=2)
        y = np.array([0, 1, 1])
        errs = net.check_gradients(m, X, y)
        assert max(errs.values()) < 1e-4, errs

    def test_saturated_correct_predictions_zero_gradient(self):
        m = Model(small_cfg(), seed=0)
        m.params["head/0/b"][:] = [1000.0, -1000.0]
        X = raw_batch(B=5)
        y = np.zeros(5, dtype=int)
        loss, grads = m.loss_and_grads(X, y)
        assert loss < 1e-8
        total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
        assert total < 1e-8

    def test_duplicated_batch_same_mean_gradient(self):
        m = Model(small_cfg(), seed=1)
        X = raw_batch(B=3)
        y = np.array([1, 0, 1])
        # float64: a float32 GEMM sums the doubled rows in another order
        _, g1 = m.loss_and_grads(X, y, dtype=np.float64)
        _, g2 = m.loss_and_grads(np.concatenate([X, X]), np.concatenate([y, y]),
                                 dtype=np.float64)
        for k in g1:
            np.testing.assert_allclose(g1[k], g2[k], atol=1e-12)

    def test_run_gradcheck_sample(self):
        for desc, err in net.run_gradcheck(n_configs=4, seed=5):
            assert err < 1e-4, (desc, err)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


class TestAdam:
    def test_first_step_is_signed_lr(self):
        params = {"w": np.array([1.0, -2.0, 3.0])}
        grads = {"w": np.array([0.5, -0.1, 2.0])}
        st = net.AdamState.zeros_like(params)
        net.adam_step(params, grads, st, lr=1e-3)
        np.testing.assert_allclose(params["w"],
                                   [1.0 - 1e-3, -2.0 + 1e-3, 3.0 - 1e-3], atol=1e-6)

    def test_zero_gradient_no_op(self):
        params = {"w": np.array([1.0, 2.0])}
        st = net.AdamState.zeros_like(params)
        net.adam_step(params, {"w": np.zeros(2)}, st)
        np.testing.assert_array_equal(params["w"], [1.0, 2.0])

    def test_quadratic_convergence(self):
        params = {"x": np.array([10.0])}
        st = net.AdamState.zeros_like(params)
        for _ in range(2000):
            net.adam_step(params, {"x": params["x"] - 3.0}, st, lr=0.05)
        assert abs(params["x"][0] - 3.0) < 1e-3

    def test_non_finite_gradient_rejected(self):
        params = {"w": np.array([1.0])}
        st = net.AdamState.zeros_like(params)
        with pytest.raises(net.NonFiniteGradient, match="non-finite gradient in w"):
            net.adam_step(params, {"w": np.array([np.nan])}, st)

    def test_non_finite_gradient_changes_nothing(self):
        # the bad gradient comes after a good one, which must not be applied
        params = {"a": np.array([1.0, 2.0]), "b": np.array([3.0, 4.0])}
        st = net.AdamState.zeros_like(params)
        net.adam_step(params, {"a": np.ones(2), "b": np.ones(2)}, st)
        before = copy.deepcopy((params, st))
        with pytest.raises(net.NonFiniteGradient, match="non-finite gradient in b"):
            net.adam_step(params, {"a": np.ones(2), "b": np.array([np.nan, 1.0])}, st)
        assert st.t == before[1].t == 1
        for now, then in ((params, before[0]), (st.m, before[1].m), (st.v, before[1].v)):
            for k in now:
                assert now[k].tobytes() == then[k].tobytes(), k


# ---------------------------------------------------------------------------
# dropout
# ---------------------------------------------------------------------------


class TestDropout:
    def test_rate_zero_draws_no_masks(self):
        m = Model(small_cfg(layers=(4, 3), dense_hidden=(5,), dropout=0.0), seed=0)
        assert m.dropout_masks(4, 3, np.random.default_rng(0)) is None

    def test_inverted_scaling_mean_one(self):
        m = Model(small_cfg(layers=(4, 3), dense_hidden=(5,), dropout=0.3), seed=0)
        masks = m.dropout_masks(2000, 10, np.random.default_rng(0))
        # bool keep masks in the forward's order: each LSTM layer's
        # (B, T, input width), then each dense layer's (B, input width)
        assert [k.shape for k in masks] == [(2000, 10, m.cfg.input_width), (2000, 10, 4),
                                           (2000, 3), (2000, 5)]
        assert all(k.dtype == bool for k in masks)
        kept = np.concatenate([k.ravel() for k in masks])
        assert abs(kept.mean() / 0.7 - 1.0) < 0.01   # keep / (1 - rate) has mean one

    @pytest.mark.parametrize("block", [net.MASK_DRAW_BLOCK, 50])
    @pytest.mark.parametrize("B", [1, 2, 7, 64])
    def test_block_draws_are_one_plain_draw(self, monkeypatch, B, block):
        # block 50 draws the LSTM masks a row at a time and the dense ones
        # in blocks of several rows, the last one partial
        monkeypatch.setattr(net, "MASK_DRAW_BLOCK", block)
        m = Model(small_cfg(layers=(6, 4), dense_hidden=(5,), dropout=0.3), seed=0)
        T = 9
        rng, plain_rng = np.random.default_rng(3), np.random.default_rng(3)
        widths = [(T, m.cfg.input_width), (T, 6), (4,), (5,)]
        assert [k.tobytes() for k in m.dropout_masks(B, T, rng)] == [
            (plain_rng.random((B, *w)) >= 0.3).tobytes() for w in widths]

    def test_masks_alone_make_a_training_pass(self):
        m = Model(small_cfg(layers=(4, 3), dense_hidden=(5,), dropout=0.4), seed=0)
        X = raw_batch(B=3, T=4)
        masks = m.dropout_masks(3, 4, np.random.default_rng(2))
        probs, cache = m.forward(X, masks=masks, dtype=np.float64)
        assert all(rec["mask"] is not None for rec in cache["layers"] + cache["head"])
        _, ref_probs, _ = reference_loss_and_grads(m, X, np.array([0, 1, 1]), masks=masks)
        np.testing.assert_allclose(probs, ref_probs, rtol=1e-12, atol=0)

    def test_masks_only_on_non_recurrent_paths(self):
        m = Model(small_cfg(layers=(4, 3), dense_hidden=(5,), dropout=0.4), seed=0)
        X = raw_batch(B=2, T=3)
        _, cache = m.forward(X, masks=m.dropout_masks(2, 3, np.random.default_rng(1)))
        # every LSTM layer's input and every head layer's input are masked
        for rec in cache["layers"]:
            assert rec["mask"] is not None
            assert rec["mask"].shape == rec["in"].shape
        for rec in cache["head"]:
            assert rec["mask"] is not None
        # inference mode applies no masks
        _, cache = m.forward(X)
        assert all(rec["mask"] is None for rec in cache["layers"])
        assert all(rec["mask"] is None for rec in cache["head"])


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


def toy_xy(n=64, seed=0):
    X = raw_batch(B=n, T=4, seed=seed)
    # learnable rule: label = side of the last event
    y = (X[:, -1, 4] == 1).astype(np.uint8)
    return X, y


class TestTrain:
    def test_patience_controls_stop(self):
        X, y = toy_xy()
        m = Model(small_cfg(), seed=0)
        sched = TrainSchedule(epochs=30, batch_size=32, lr=0.0, patience=0, seed=0)
        res = net.train(m, (X, y), (X, y), sched)
        # lr 0: epoch 0 improves from +inf, epoch 1 ties, then stop
        assert len(res.history) == 2
        assert res.best_epoch == 0

    def test_learns_toy_rule(self):
        X, y = toy_xy(n=128)
        m = Model(small_cfg(layers=(8,)), seed=1)
        sched = TrainSchedule(epochs=60, batch_size=32, lr=3e-3, patience=60, seed=1)
        res = net.train(m, (X, y), (X, y), sched)
        assert res.history[-1]["val_mcc"] > 0.9

    def test_restores_best_params(self):
        X, y = toy_xy()
        m = Model(small_cfg(), seed=0)
        sched = TrainSchedule(epochs=8, batch_size=32, lr=1e-3, patience=2, seed=0)
        res = net.train(m, (X, y), (X, y), sched)
        probs = m.predict(X)
        assert abs(m.loss(probs, y) - res.best_val_loss) < 1e-12

    def test_master_weights_moments_and_grads_stay_float64(self, tmp_path, monkeypatch):
        seen = []

        def recording_adam_step(params, grads, state, **kw):
            seen.append([a.dtype for d in (grads, state.m, state.v) for a in d.values()])
            adam_step(params, grads, state, **kw)
            seen.append([a.dtype for d in (params, state.m, state.v) for a in d.values()])

        adam_step = net.adam_step
        monkeypatch.setattr(net, "adam_step", recording_adam_step)
        X, y = toy_xy()
        m = Model(small_cfg(layers=(4, 3), dropout=0.1), seed=0)
        net.train(m, (X, y), (X, y), TrainSchedule(epochs=2, batch_size=32, seed=0))
        assert len(seen) == 8 and all(d == np.float64 for step in seen for d in step)
        assert all(p.dtype == np.float64 for p in m.params.values())
        p = tmp_path / "m.ckpt"
        net.save_checkpoint(m, p)
        back, _ = net.load_checkpoint(p)
        np.testing.assert_array_equal(back.predict(X), m.predict(X))

    def test_fixed_seed_bitwise_deterministic(self):
        X, y = toy_xy()
        sched = TrainSchedule(epochs=3, batch_size=16, lr=1e-3, patience=5, seed=9)
        cfg = small_cfg(dropout=0.1)
        m1, m2 = Model(cfg, seed=2), Model(cfg, seed=2)
        r1 = net.train(m1, (X, y), (X, y), sched)
        r2 = net.train(m2, (X, y), (X, y), sched)
        assert r1.history == r2.history
        for k in m1.params:
            np.testing.assert_array_equal(m1.params[k], m2.params[k])

    def test_empty_split_rejected(self):
        X, y = toy_xy()
        m = Model(small_cfg(), seed=0)
        with pytest.raises(net.EmptyBatch):
            net.train(m, (X[:0], y[:0]), (X, y), TrainSchedule(epochs=1))


def _benchmark_model(dropout=0.1):
    """TestPrecision's shape: a 64x64 orderflow model, B=64, T=100."""
    cfg = dataclasses.replace(small_cfg(layers=(64, 64), dropout=dropout),
                              emb_dims=dict(net.DEFAULT_EMB_DIMS))
    X = raw_batch(B=64, T=100, seed=5)
    return Model(cfg, seed=3), X, np.random.default_rng(6).integers(0, 2, 64)


class TestShards:
    """A minibatch's gradient as two half-batch shards, shard 1 on a
    forked worker when the affinity mask shows two CPUs."""

    def test_one_and_two_cpus_byte_identical(self, monkeypatch):
        # 49 samples in batches of 16: shards of 8 and 8, then a lone sample;
        # 130 validation windows, whose predicts split on two CPUs
        X, y = toy_xy(n=49)
        val = toy_xy(n=130, seed=1)
        cfg = small_cfg(layers=(4, 3), dense_hidden=(5,), dropout=0.2)
        sched = TrainSchedule(epochs=3, batch_size=16, lr=1e-2, patience=5, seed=4)
        started = []
        start = net._ShardWorker.__init__
        monkeypatch.setattr(net._ShardWorker, "__init__",
                            lambda self, *a: started.append(1) or start(self, *a))
        runs = []
        for cpus in (1, 2):
            _cpus(monkeypatch, cpus)
            m = Model(cfg, seed=2)
            res = net.train(m, (X, y), val, sched)
            assert multiprocessing.active_children() == []
            runs.append((m.params, res.history))
        assert started == [1]   # a worker ran shard 1 only with two CPUs
        (p1, h1), (p2, h2) = runs
        assert h1 == h2
        for k in p1:
            assert p1[k].tobytes() == p2[k].tobytes(), k

    def test_two_shard_step_near_the_whole_batch(self):
        # the whole batch's masks are the two shards' keyed draws, one
        # above the other; only the sums' order differs
        m, X, y = _benchmark_model()
        idx = np.arange(64)
        key = (7, 2, 128)
        loss, grads = net._minibatch_step(m, X, y, idx, key, None)
        shards = [m.dropout_masks(32, 100, np.random.default_rng([*key, a])) for a in (0, 32)]
        masks = [np.concatenate(rows) for rows in zip(*shards)]
        ref_loss, ref = m.loss_and_grads(X, y, masks=masks)
        assert abs(loss - ref_loss) <= 1e-5 * abs(ref_loss)
        for k in ref:
            assert _rel(grads[k], ref[k]) <= 1e-5, k

    def test_one_shard_step_with_parent_masks_is_loss_and_grads(self):
        # a minibatch of one sample is one shard, with the masks keyed by
        # the step's key and row 0
        m, X, y = _benchmark_model()
        key = (8, 0, 5)
        loss, grads = net._minibatch_step(m, X, y, np.array([5]), key, None)
        ref_loss, ref = m.loss_and_grads(
            X[[5]], y[[5]], masks=m.dropout_masks(1, 100, np.random.default_rng([*key, 0])))
        assert loss == ref_loss
        for k in ref:
            assert grads[k].tobytes() == ref[k].tobytes(), k

    @pytest.mark.parametrize("B", [17, 32])
    def test_worker_shard_is_the_keyed_shard(self, B):
        # the worker draws shard 1's masks from the step's key and the
        # shard's first row, so its loss and grads are the local shard's
        X, y = toy_xy(n=40)
        m = Model(small_cfg(layers=(4, 3), dense_hidden=(5,), dropout=0.3), seed=2)
        idx = np.random.default_rng(1).permutation(40)[:B]
        key = (4, 1, 16)
        with net._one_blas_thread(), net._ShardWorker(m, (X, y), None) as worker:
            loss, grads = net._minibatch_step(m, X, y, idx, key, worker)
            worker.submit("shard", idx, key)
            shard_loss, shard_grads = worker.recv(), {k: g.copy() for k, g in worker.grads.items()}
            ref_loss, ref = net._minibatch_step(m, X, y, idx, key, None)
            own_loss, own = net._shard_loss_grads(m, X, y, idx, slice(net._cut(B, 1), B), key,
                                                  None)
        assert multiprocessing.active_children() == []
        assert loss == ref_loss and shard_loss == own_loss
        for k in ref:
            assert grads[k].tobytes() == ref[k].tobytes(), k
            assert shard_grads[k].tobytes() == own[k].tobytes(), k

    def test_train_rng_only_shuffles(self, monkeypatch):
        # the minibatches of a seed do not depend on the dropout draws
        _cpus(monkeypatch, 1)
        step, seen = net._minibatch_step, {}

        def recording(model, X, y, idx, *args):
            seen.setdefault(model.cfg.dropout, []).append(idx.tobytes())
            return step(model, X, y, idx, *args)

        monkeypatch.setattr(net, "_minibatch_step", recording)
        X, y = toy_xy(n=40)
        sched = TrainSchedule(epochs=3, batch_size=16, patience=5, seed=4)
        for rate in (0.0, 0.3):
            net.train(Model(small_cfg(dropout=rate), seed=2), (X, y), (X, y), sched)
        assert len(seen[0.0]) == 9 and seen[0.0] == seen[0.3]

    def test_reused_workspace_gives_the_fresh_bytes(self):
        # one workspace through minibatches of 64, 17 and 64 rows and a
        # one-sample shard, with a validation predict between steps
        m, X, y = _benchmark_model()
        ws = net.Workspace()
        draw = np.random.default_rng(3)
        for n in (64, 17, 64, 1):
            idx = draw.permutation(64)[:n]
            key = (int(draw.integers(1000)), 0, 0)
            loss, grads = net._minibatch_step(m, X, y, idx, key, None, ws)
            ref_loss, ref = net._minibatch_step(m, X, y, idx, key, None)
            assert loss == ref_loss
            for k in ref:
                assert grads[k].tobytes() == ref[k].tobytes(), (n, k)
            assert m.predict(X[:n + 40], ws=ws).tobytes() == m.predict(X[:n + 40]).tobytes()

    def test_returned_cache_is_not_overwritten(self):
        m = Model(small_cfg(layers=(6, 4), dense_hidden=(5,), dropout=0.3), seed=0)
        X, y = raw_batch(B=8, T=7, seed=1), np.arange(8) % 2
        _, cache = m.forward(X, masks=m.dropout_masks(8, 7, np.random.default_rng(2)))

        def held():
            return [[a.tobytes() for a in (rec["in"], rec["mask"], rec["h"], *rec["state"])]
                    for rec in cache["layers"]]

        before = held()
        X2 = raw_batch(B=8, T=7, seed=3)
        m.forward(X2, masks=m.dropout_masks(8, 7, np.random.default_rng(4)))
        m.loss_and_grads(X2, y, masks=m.dropout_masks(8, 7, np.random.default_rng(5)))
        m.predict(X2)
        assert held() == before

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_shard_error_raised_again_with_its_type(self, monkeypatch, cpus):
        _cpus(monkeypatch, cpus)
        X, y = toy_xy(n=32)
        sched = TrainSchedule(epochs=1, batch_size=32, seed=0)
        # the first minibatch is the first permutation; only its second
        # half (shard 1) holds a kind code out of range
        bad = X.copy()
        bad[np.random.default_rng(sched.seed).permutation(32)[16:], :, 3] = 9
        with pytest.raises(net.CategoryOutOfRange):
            net.train(Model(small_cfg(), seed=0), (bad, y), (X, y), sched)
        assert multiprocessing.active_children() == []

    def test_dead_worker_is_a_net_error(self, monkeypatch):
        _cpus(monkeypatch, 2)
        parent, shard = os.getpid(), net._shard_loss_grads

        def dying(*args):
            if os.getpid() != parent:
                os._exit(3)
            return shard(*args)

        monkeypatch.setattr(net, "_shard_loss_grads", dying)
        X, y = toy_xy(n=32)
        with pytest.raises(net.NetError, match="worker exited") as caught:
            net.train(Model(small_cfg(), seed=0), (X, y), (X, y),
                      TrainSchedule(epochs=1, batch_size=32))
        assert not isinstance(caught.value, EOFError)
        assert multiprocessing.active_children() == []

    def test_worker_exits_when_its_pipe_closes(self):
        X, y = toy_xy(n=8)
        worker = net._ShardWorker(Model(small_cfg(), seed=0), (X, y), X)
        worker.conn.close()
        worker.proc.join(timeout=60)
        assert worker.proc.exitcode == 0
        assert multiprocessing.active_children() == []


_BLAS_PROBE = """
import os, sys
import numpy as np
from lobflow import net
os.sched_getaffinity = lambda pid: {0, 1}
parent, log = os.getpid(), sys.argv[1]
(get, _), = net._openblas()
shard = net._shard_loss_grads

def probed(*args):
    with open(log, "a") as fh:
        fh.write(f"{'worker' if os.getpid() != parent else 'parent'} {get()}\\n")
    return shard(*args)

net._shard_loss_grads = probed
X = net.random_raw_batch("orderflow", 8, 3, 2, np.random.default_rng(0))
y = np.arange(8) % 2
cfg = net.ModelConfig("orderflow", S=2, layers=(4,), norm_mean=[0.0] * 3, norm_sd=[1.0] * 3)
before = get()
net.train(net.Model(cfg), (X, y), (X, y), net.TrainSchedule(epochs=1, batch_size=8))
print(before, get())
"""


class TestBlasThreads:
    def test_train_runs_at_one_blas_thread_without_a_thread_variable(self, tmp_path):
        if len(net._openblas()) != 1:
            pytest.skip("numpy does not run on exactly one OpenBLAS here")
        # a fresh interpreter with no *_NUM_THREADS variable, as a user runs it
        env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(net.__file__))
        log = tmp_path / "threads"
        proc = subprocess.run([sys.executable, "-c", _BLAS_PROBE, str(log)], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-4000:]
        before, after = proc.stdout.split()
        assert before == after   # the default count comes back after train
        assert sorted(log.read_text().splitlines()) == ["parent 1", "worker 1"]


def _record_mappings(monkeypatch) -> list:
    """Record each shared mapping made from now on as (weak reference,
    first address, end address)."""
    maps, make = [], mmap.mmap

    def recording(*args):
        m = make(*args)
        start = np.frombuffer(m, np.uint8).ctypes.data
        maps.append((weakref.ref(m), start, start + len(m)))
        return m

    monkeypatch.setattr(mmap, "mmap", recording)
    return maps


def _inside(a: np.ndarray, lo: int, hi: int) -> bool:
    return lo < a.ctypes.data + a.nbytes and a.ctypes.data < hi


class TestSplitPredict:
    """A predict of more than PREDICT_CHUNK windows on two CPUs, its tail
    predicted by a worker, which sends the probabilities back."""

    def _model_and_windows(self, n):
        m = Model(small_cfg(layers=(6, 4), dense_hidden=(5,), dropout=0.3), seed=0)
        return m, raw_batch(B=n, T=9, seed=n)

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 128, 129, 256])
    def test_split_predict_is_predict_byte_for_byte(self, monkeypatch, n):
        _cpus(monkeypatch, 2)
        started = []
        start = net._ShardWorker.__init__
        monkeypatch.setattr(net._ShardWorker, "__init__",
                            lambda self, *a: started.append(1) or start(self, *a))
        m, X = self._model_and_windows(n)
        want = m.predict(X).tobytes()
        assert net.split_predict(m, X).tobytes() == want
        # below two chunks a fork costs more than the worker's tail saves
        assert started == ([1] if n > 2 * net.PREDICT_CHUNK else [])
        # a live worker, as train's, splits every predict above one chunk
        with net._ShardWorker(m, None, X) as worker:
            assert net._predict(m, X, net.Workspace(), worker).tobytes() == want
        assert multiprocessing.active_children() == []

    def test_cut_is_a_chunk_boundary_near_the_middle(self):
        C = net.PREDICT_CHUNK
        for n in range(1, 20 * C + 1):
            assert net._cut(n, 1) == (n + 1) // 2   # shard 0 of a minibatch: ceil(B/2) rows
            cut = net._cut(n, C)
            if n <= C:
                assert cut == n   # no tail
            else:
                assert cut % C == 0 and C <= cut < n
                assert abs(2 * cut - n) <= C

    @pytest.mark.parametrize("a", [0, 1, 2, 4])
    def test_predict_of_rows_is_the_rows_of_predict(self, a):
        # rows starting on a chunk boundary keep every chunk's rows and shape
        m, X = self._model_and_windows(4 * net.PREDICT_CHUNK + 9)
        a *= net.PREDICT_CHUNK
        assert m.predict(X, rows=slice(a, len(X))).tobytes() == m.predict(X)[a:].tobytes()
        assert m.predict(X, rows=slice(0, a)).tobytes() == m.predict(X[:a]).tobytes()

    def test_predict_only_worker_predicts_with_the_current_params(self, monkeypatch):
        # train_xy None: the mapping still holds the params, which each
        # request copies from the caller's model, and the grads, but no
        # predictions, which come back through the pipe
        maps = _record_mappings(monkeypatch)
        m, X = self._model_and_windows(200)
        with net._ShardWorker(m, None, X) as worker:
            (_, lo, hi), = maps
            assert hi - lo == 2 * 8 * sum(p.size for p in m.params.values())
            for _ in range(2):
                want = m.predict(X).tobytes()
                assert net._predict(m, X, net.Workspace(), worker).tobytes() == want
                for p in m.params.values():
                    p *= 1.5
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_tail_error_raised_again_with_its_type(self, monkeypatch, cpus):
        _cpus(monkeypatch, cpus)
        m, X = self._model_and_windows(257)
        bad = X.copy()
        # a kind code out of range, in the tail only
        bad[net._cut(257, net.PREDICT_CHUNK):, :, 3] = 9
        with pytest.raises(net.CategoryOutOfRange):
            net.split_predict(m, bad)
        # the same tail of a validation split
        y = np.zeros(257, np.int64)
        with pytest.raises(net.CategoryOutOfRange):
            net.train(m, (X, y), (bad, y), TrainSchedule(epochs=1, batch_size=64))
        assert multiprocessing.active_children() == []

    def test_worker_dying_in_a_predict_is_a_net_error(self, monkeypatch):
        _cpus(monkeypatch, 2)
        parent, predict = os.getpid(), net.Model.predict

        def dying(self, *args, **kw):
            if os.getpid() != parent:
                os._exit(3)
            return predict(self, *args, **kw)

        monkeypatch.setattr(net.Model, "predict", dying)
        m, X = self._model_and_windows(257)
        with pytest.raises(net.NetError, match="worker exited") as caught:
            net.split_predict(m, X)
        assert not isinstance(caught.value, EOFError)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("how", ["returns", "raises", "fork_fails"])
    def test_params_are_private_after_train(self, monkeypatch, how):
        _cpus(monkeypatch, 2)
        maps = _record_mappings(monkeypatch)
        if how == "fork_fails":
            def failing_start(self):
                raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

            monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", failing_start)
        during = []
        adam_step = net.adam_step

        def recording_adam_step(params, *args, **kw):
            _, lo, hi = maps[0]
            during.append(any(_inside(p, lo, hi) for p in params.values()))
            adam_step(params, *args, **kw)

        monkeypatch.setattr(net, "adam_step", recording_adam_step)
        X, y = toy_xy(n=32)
        bad = X.copy()
        if how == "raises":   # a kind code out of range in the first minibatch's shard 1
            bad[np.random.default_rng(0).permutation(32)[16:], :, 3] = 9
        m = Model(small_cfg(), seed=0)
        sched = TrainSchedule(epochs=2, batch_size=32, seed=0)
        error = {"returns": None, "raises": net.CategoryOutOfRange, "fork_fails": OSError}[how]
        with pytest.raises(error) if error else contextlib.nullcontext():
            net.train(m, (bad, y), (X, y), sched)
        gc.collect()
        ref, lo, hi = maps[0]
        assert len(maps) == 1 and ref() is None   # the mapping went with train
        assert during == ([False, False] if how == "returns" else [])
        assert not any(_inside(p, lo, hi) for p in m.params.values())
        assert multiprocessing.active_children() == []


class TestHyperSearch:
    def _xy(self):
        return toy_xy(n=32)

    def test_budget_one_returns_single_sample(self):
        X, y = self._xy()
        space = {"layers": [[4], [6]], "lr": [1e-3, 1e-2]}
        model, result, trials = net.hyper_search(space, 1, 0, small_cfg(), (X, y), (X, y),
                                                 TrainSchedule(epochs=1, batch_size=16))
        assert len(trials) == 1
        choice = trials[0]["choice"]
        assert choice["layers"] in space["layers"] and choice["lr"] in space["lr"]
        assert list(model.cfg.layers) == choice["layers"]
        assert result.best_val_loss == trials[0]["val_loss"]

    def test_singleton_space(self):
        X, y = self._xy()
        _, _, trials = net.hyper_search({"lr": [5e-3]}, 3, 0, small_cfg(), (X, y), (X, y),
                                        TrainSchedule(epochs=1, batch_size=16))
        assert all(t["choice"] == {"lr": 5e-3} for t in trials)

    def test_returns_the_winning_trials_model(self):
        # trial i is seeded schedule.seed + i, so trial 0 alone has the
        # schedule's seed; the winner here is a later trial
        X, y = self._xy()
        space = {"lr": [0.0, 3e-2]}
        model, result, trials = net.hyper_search(space, 4, 1, small_cfg(), (X, y), (X, y),
                                                 TrainSchedule(epochs=2, batch_size=16))
        best = min(trials, key=lambda t: t["val_loss"])
        assert best["trial"] != 0 and trials[0]["val_loss"] > best["val_loss"]
        assert result.best_val_loss == best["val_loss"]
        assert model.loss_on(X, y) == best["val_loss"]

    def test_empty_space_rejected(self):
        X, y = self._xy()
        with pytest.raises(net.EmptySpace):
            net.hyper_search({}, 2, 0, small_cfg(), (X, y), (X, y), TrainSchedule())
        with pytest.raises(net.EmptySpace):
            net.hyper_search({"lr": [1e-3]}, 0, 0, small_cfg(), (X, y), (X, y),
                             TrainSchedule())

    @pytest.mark.parametrize("budget", [2.5, 2.0, True, "2", None, 0, -1])
    def test_budget_must_be_a_positive_integer(self, budget):
        # unchecked, a float budget dies in range() with a bare TypeError
        X, y = self._xy()
        with pytest.raises(net.EmptySpace, match=r"^budget must be an integer >= 1, got "):
            net.hyper_search({"dropout": [0.0]}, budget, 0, small_cfg(), (X, y), (X, y),
                             TrainSchedule())

    @pytest.mark.parametrize("space,match", [
        ({"lr": [1e-3, -1.0]}, "lr"), ({"layers": [[4], []]}, "layers"),
        ({"bogus": [1]}, "unknown search dimension 'bogus'"),
    ])
    def test_bad_candidate_rejected_before_training(self, space, match, monkeypatch):
        X, y = self._xy()
        monkeypatch.setattr(net, "train", lambda *a: pytest.fail("a trial trained"))
        with pytest.raises(net.NetError, match=match):
            net.hyper_search(space, 2, 0, small_cfg(), (X, y), (X, y),
                             TrainSchedule(epochs=1, batch_size=16))

    def test_best_not_worse_than_median(self):
        X, y = self._xy()
        space = {"lr": [0.0, 3e-3], "layers": [[4], [6]]}
        _, _, trials = net.hyper_search(space, 4, 1, small_cfg(), (X, y), (X, y),
                                        TrainSchedule(epochs=2, batch_size=16))
        losses = sorted(t["val_loss"] for t in trials)
        assert min(losses) <= losses[len(losses) // 2]


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        m = Model(small_cfg(layers=(4, 3), dense_hidden=(5,)), seed=4)
        p = tmp_path / "m.ckpt"
        net.save_checkpoint(m, p, extras={"note": "x"})
        back, extras = net.load_checkpoint(p)
        assert extras == {"note": "x"}
        assert back.cfg == m.cfg
        assert sorted(back.params) == sorted(m.params)
        for k in m.params:
            np.testing.assert_array_equal(back.params[k], m.params[k])
        X = raw_batch(B=3, T=2)
        np.testing.assert_array_equal(back.predict(X), m.predict(X))
        assert [f.name for f in tmp_path.iterdir()] == ["m.ckpt"]

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "junk.ckpt"
        p.write_bytes(b"JUNK" + b"\x00" * 16)
        with pytest.raises(net.NetError):
            net.load_checkpoint(p)

    def _saved(self, tmp_path):
        m = Model(small_cfg(layers=(4, 3), dense_hidden=(5,)), seed=4)
        p = tmp_path / "m.ckpt"
        net.save_checkpoint(m, p)
        return p, p.read_bytes()

    def test_cut_short_rejected(self, tmp_path):
        p, data = self._saved(tmp_path)
        p.write_bytes(data[:-100])
        with pytest.raises(net.NetError, match="header declares"):
            net.load_checkpoint(p)

    def test_trailing_bytes_rejected(self, tmp_path):
        p, data = self._saved(tmp_path)
        p.write_bytes(data + b"\x00" * 16)
        with pytest.raises(net.NetError, match="header declares"):
            net.load_checkpoint(p)

    def test_flipped_tensor_byte_rejected(self, tmp_path):
        p, data = self._saved(tmp_path)
        flipped = bytearray(data)
        flipped[-3] ^= 0x01  # inside the last tensor
        p.write_bytes(bytes(flipped))
        with pytest.raises(net.NetError, match="SHA-256 digest"):
            net.load_checkpoint(p)

    def test_corrupt_header_rejected(self, tmp_path):
        p, data = self._saved(tmp_path)
        p.write_bytes(data[:12] + b"x" + data[13:])  # header JSON no longer parses
        with pytest.raises(net.NetError):
            net.load_checkpoint(p)

    def test_tensors_not_fitting_config_rejected(self, tmp_path):
        m = Model(small_cfg(layers=(4, 3)), seed=4)
        m.cfg = small_cfg(layers=(4,))  # header config without the second layer
        p = tmp_path / "m.ckpt"
        net.save_checkpoint(m, p)
        with pytest.raises(net.NetError, match="do not fit"):
            net.load_checkpoint(p)

    def test_extras_not_an_object_rejected(self, tmp_path):
        m = Model(small_cfg(), seed=4)
        p = tmp_path / "m.ckpt"
        container.write(p, b"OFCK", {"config": dataclasses.asdict(m.cfg), "extras": 5}, m.params)
        with pytest.raises(net.NetError, match="corrupt header"):
            net.load_checkpoint(p)

    @pytest.mark.parametrize("key,value", [
        ("norm_mean", "x"), ("norm_sd", [1.0, 0.0, 1.0]), ("layers", []), ("variant", "x"),
    ])
    def test_config_out_of_domain_rejected(self, tmp_path, key, value):
        m = Model(small_cfg(), seed=4)
        p = tmp_path / "m.ckpt"
        container.write(p, b"OFCK", {"config": {**dataclasses.asdict(m.cfg), key: value},
                                     "extras": {}}, m.params)
        with pytest.raises(net.NetError, match=f"corrupt header: {key}"):
            net.load_checkpoint(p)

    def test_interrupted_save_keeps_old_checkpoint(self, tmp_path):
        p, data = self._saved(tmp_path)
        m = Model(small_cfg(layers=(4, 3), dense_hidden=(5,)), seed=9)
        names = sorted(m.params)
        # the second tensor in file order fails to convert
        m.params[names[1]] = np.full(m.params[names[1]].shape, object())
        with pytest.raises(TypeError):
            net.save_checkpoint(m, p)
        assert p.read_bytes() == data
        assert [f.name for f in tmp_path.iterdir()] == ["m.ckpt"]
        back, _ = net.load_checkpoint(p)
        assert sorted(back.params) == names
