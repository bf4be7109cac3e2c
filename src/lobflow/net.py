"""From-scratch recurrent classifier of mid-price direction.

Stacked LSTM over length-T feature sequences, tanh embeddings for the
categorical order-flow covariates, a dense softmax head, mean NLL loss,
exact backpropagation through time, Adam, inverted dropout on the
non-recurrent connections only, and early-stopped training, all in
plain numpy.  Gradients are verified against central finite differences
(see :func:`check_gradients`).

Precision follows the master-copy scheme of mixed-precision training
(Micikevicius et al. 2018, arXiv 1710.03740) with float64/float32 in
place of FP32/FP16: the parameters, Adam's moments, the checkpoint
tensors, the embeddings, the head, the softmax and the loss are
float64, while the LSTM layers compute in the `dtype` that `forward`,
`predict` and `loss_and_grads` take, float32 by default.  Each call
casts the LSTM weights once and keeps the casts for backward, whose
weight gradients go back to float64 before Adam.  The gradient check
runs in float64.

The LSTM layers run time-major.  Each layer computes its input
projection x @ Wx + b for all T steps in one GEMM into a contiguous
(T, B, 4H) buffer; a step adds h_{t-1} @ Wh to its slice and turns it
into the gate activations in place, with one exp-based sigmoid pass
over all four gates and tanh on the g block.  Training forwards keep
c and tanh(c) as (T, B, H) arrays for backward, which runs the
elementwise gate derivatives step by step and then forms dWx, dWh, db
and the input gradient with one GEMM (or sum) each over the stacked
pre-activation gradients.  Backward consumes the cache: it writes each
layer's pre-activation gradients dz over that layer's gate buffer, and
drops the layer's record before the layer below runs, so a train step
holds little more than one forward cache.  `predict` runs the same loop
without a cache: c and tanh(c) live in two rotating slots.

`train` computes each minibatch's gradient as two fixed shards, rows
[0, ceil(B/2)) and [ceil(B/2), B) (one shard when B = 1), and combines
them in shard order, weighted by shard size, before Adam: synchronous
data-parallel SGD (Dean et al. 2012; Goyal et al. 2017, arXiv
1706.02677) with the minibatch and learning rate unchanged, so only the
order of the gradient sums differs from a whole-batch step.  The
process count is min(2, len(os.sched_getaffinity(0))); `taskset -c 0`
gives one.  With two, a worker forked once per `train` call computes
shard 1 while the parent computes shard 0; with one, the parent runs
both shards in turn through the same shard function, so the trained
bytes do not depend on the core count.  The parent draws the dropout
masks of the whole batch from the train rng, in a whole-batch
forward's order and shapes, and sends the worker the float64 params,
shard 1's sample indices and its rows of the masks as bool keep masks.
The dW GEMMs sum over half batches, so trained params, train logs and
predictions changed once when the shards came in.  On a 1-CPU host the
two half shards cost about 10% more per step than one whole batch (from
single-process step times at B=32 and B=64, not measured end to end).
"""

from __future__ import annotations

import copy
import math
import multiprocessing
import os
import signal
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Optional

import numpy as np

from . import checks, container, stats as statsmod
from .features import VARIANTS, MissingStats, table_width, transform_numeric


class NetError(Exception):
    pass


class ShapeMismatch(NetError):
    pass


class CategoryOutOfRange(NetError):
    pass


class EmptyBatch(NetError):
    pass


class InvalidRate(NetError):
    pass


class NonFiniteGradient(NetError):
    pass


class InvalidConfig(NetError):
    """A ModelConfig or TrainSchedule value is out of its domain."""


PROB_CLAMP = 1e-12
# output classes: the mid moves down (label 0) or up (label 1)
K = 2

# orderflow categorical covariates: (name, cardinality, raw column, code offset)
CATEGORICALS = (("kind", 3, 3, 1), ("side", 2, 4, 1), ("hour", 24, 1, 0))
DEFAULT_EMB_DIMS = {"kind": 2, "side": 2, "hour": 4}
# largest LSTM and dense width a config may ask for
MAX_WIDTH = 4096


@dataclass
class ModelConfig:
    """The network's shape.  The fields after `variant` and `S`, up to
    `dropout`, are a run config's `model` block and its defaults; the
    dataset sets the variant, `S` and the norm stats.

    Construction checks every value and raises :class:`InvalidConfig`:
    a known variant, `S` >= 1, non-empty integer `layers` and integer
    `dense_hidden` widths in [1, MAX_WIDTH] (both kept as tuples), integer
    `emb_dims` >= 1 for exactly kind, side and hour, `dropout` in
    [0, 1), and norm stats that are null or `numeric_width` finite
    numbers, every sd > 0.
    """

    variant: str                      # "orderflow" | "bench1" | "bench2"
    S: int = 5
    layers: tuple = (64, 64)          # LSTM state size per layer
    dense_hidden: tuple = ()          # widths of tanh head layers before the output
    emb_dims: dict = field(default_factory=lambda: dict(DEFAULT_EMB_DIMS))
    dropout: float = 0.1
    norm_mean: Optional[list] = None
    norm_sd: Optional[list] = None

    def __post_init__(self) -> None:
        if self.variant not in VARIANTS:
            raise InvalidConfig(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        checks.integer(self.S, "S", InvalidConfig, 1)
        for name in ("layers", "dense_hidden"):
            widths = getattr(self, name)
            if not isinstance(widths, (list, tuple)):
                raise InvalidConfig(f"{name} must be a list of integers, got {widths!r}")
            for w in widths:
                checks.integer(w, f"{name} entry", InvalidConfig, 1, MAX_WIDTH)
            setattr(self, name, tuple(widths))
        if not self.layers:
            raise InvalidConfig("layers must not be empty")
        if not isinstance(self.emb_dims, dict) or self.emb_dims.keys() != DEFAULT_EMB_DIMS.keys():
            raise InvalidConfig(f"emb_dims must have exactly the keys {sorted(DEFAULT_EMB_DIMS)}, "
                                f"got {self.emb_dims!r}")
        for name, dim in self.emb_dims.items():
            checks.integer(dim, f"emb_dims.{name}", InvalidConfig, 1)
        checks.number(self.dropout, "dropout", InvalidConfig, 0, 1)
        for name, lo in (("norm_mean", -math.inf), ("norm_sd", 0)):
            values = getattr(self, name)
            if values is None:
                continue
            if not isinstance(values, (list, tuple)) or len(values) != self.numeric_width:
                raise InvalidConfig(f"{name} must be null or a list of {self.numeric_width} "
                                    f"numbers for {self.variant}, got {values!r}")
            for v in values:
                checks.number(v, f"{name} entry", InvalidConfig, lo, lo_open=True)

    @property
    def numeric_width(self) -> int:
        if self.variant == "orderflow":
            return 3
        return 4 * self.S + (2 if self.variant == "bench1" else 0)

    @property
    def input_width(self) -> int:
        w = self.numeric_width
        if self.variant == "orderflow":
            w += sum(self.emb_dims[name] for name, *_ in CATEGORICALS)
        return w


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _uniform(rng, fan_in: int, shape) -> np.ndarray:
    k = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-k, k, size=shape)


class Model:
    """Parameter container plus forward/backward passes."""

    def __init__(self, cfg: ModelConfig, params: Optional[dict] = None, seed: int = 0):
        self.cfg = cfg
        self.params = params if params is not None else self.init_params(np.random.default_rng(seed))

    # -- initialization -----------------------------------------------------

    def init_params(self, rng) -> dict:
        cfg = self.cfg
        p: dict[str, np.ndarray] = {}
        if cfg.variant == "orderflow":
            for name, card, *_ in CATEGORICALS:
                dim = cfg.emb_dims[name]
                p[f"emb/{name}/U"] = _uniform(rng, card, (card, dim))
                p[f"emb/{name}/b"] = np.zeros(dim)
        in_w = cfg.input_width
        for l, H in enumerate(cfg.layers):
            p[f"lstm/{l}/Wx"] = _uniform(rng, in_w, (in_w, 4 * H))
            p[f"lstm/{l}/Wh"] = _uniform(rng, H, (H, 4 * H))
            b = np.zeros(4 * H)
            b[H:2 * H] = 1.0  # forget-gate bias, stable start
            p[f"lstm/{l}/b"] = b
            in_w = H
        widths = [cfg.layers[-1], *cfg.dense_hidden, K]
        for d, (a, b_) in enumerate(zip(widths, widths[1:])):
            p[f"head/{d}/W"] = _uniform(rng, a, (a, b_))
            p[f"head/{d}/b"] = np.zeros(b_)
        return p

    @property
    def n_dense(self) -> int:
        return len(self.cfg.dense_hidden) + 1

    # -- input encoding -----------------------------------------------------

    def encode(self, X: np.ndarray) -> tuple[np.ndarray, dict]:
        """Raw (B, T, C) table-row windows -> (B, T, input_width) model inputs."""
        cfg = self.cfg
        width = table_width(cfg.variant, cfg.S)
        if X.shape[-1] != width:
            raise ShapeMismatch(f"a {cfg.variant} model at S={cfg.S} reads {width} raw "
                                f"columns per step, got {X.shape[-1]}")
        if cfg.norm_mean is None or cfg.norm_sd is None:
            raise MissingStats("model has no normalization stats")
        mean = np.asarray(cfg.norm_mean)
        sd = np.asarray(cfg.norm_sd)
        numeric = (transform_numeric(X, cfg.variant, cfg.S) - mean) / sd
        cache: dict = {}
        if cfg.variant != "orderflow":
            return numeric, cache
        parts = []
        for name, card, col, off in CATEGORICALS:
            idx = X[..., col].astype(np.int64) - off
            if idx.min() < 0 or idx.max() >= card:
                raise CategoryOutOfRange(f"{name} value out of range")
            e = np.tanh(self.params[f"emb/{name}/U"][idx] + self.params[f"emb/{name}/b"])
            cache[name] = (idx, e)
            parts.append(e)
        parts.append(numeric)
        return np.concatenate(parts, axis=-1), cache

    # -- forward ------------------------------------------------------------

    def forward(self, X: np.ndarray, train: bool = False, rng=None,
                dtype=np.float32, masks: Optional[list] = None) -> tuple[np.ndarray, dict]:
        """Run the full network; returns (probs (B, K), cache for backward).

        Dropout is applied only when `train` is True, and only on the
        non-recurrent connections: the encoded inputs of every LSTM
        layer and the inputs of every dense layer.  The recurrent
        h_{t-1} -> h_t path is never masked.  Its keep masks are
        `masks`, as :meth:`dropout_masks` draws them, or else drawn
        from `rng`.  The LSTM layers compute in `dtype`; the
        probabilities are float64 either way.
        """
        if not train:
            masks = None
        elif masks is None and self.cfg.dropout > 0.0:
            if rng is None:
                raise NetError("training-mode forward needs an rng or masks for dropout")
            masks = self.dropout_masks(*_batch_shape(X), rng)
        return self._run(X, masks, keep=True, dtype=dtype)

    def dropout_masks(self, B: int, T: int, rng) -> Optional[list]:
        """The bool keep masks of a training forward over B windows of T
        steps, drawn from `rng` in the order and shapes the forward uses
        them: each LSTM layer's (B, T, input width), then each dense
        layer's (B, input width).  None when the model has no dropout."""
        cfg = self.cfg
        if cfg.dropout == 0.0:
            return None
        lstm_in = (cfg.input_width, *cfg.layers[:-1])
        dense_in = (cfg.layers[-1], *cfg.dense_hidden)
        return ([_keep_mask((B, T, w), cfg.dropout, rng) for w in lstm_in]
                + [_keep_mask((B, w), cfg.dropout, rng) for w in dense_in])

    def predict(self, X, batch_size: int = 128, dtype=np.float32) -> np.ndarray:
        """Inference probabilities; keeps no per-step state.  Each chunk of
        `batch_size` samples still needs a (T, batch_size, 4H) gate buffer,
        so larger chunks cost memory (and, measured, no time).  `X` is read
        only as len(X) and the chunks X[i:j]."""
        out = []
        for i in range(0, len(X), batch_size):
            out.append(self._run(X[i:i + batch_size], None, keep=False, dtype=dtype)[0])
        return np.concatenate(out) if out else np.empty((0, K))

    def _run(self, X: np.ndarray, masks: Optional[list], keep: bool,
             dtype) -> tuple[np.ndarray, dict]:
        """Shared forward pass, with dropout when `masks` holds the keep
        masks of :meth:`dropout_masks`.  With `keep`, the cache holds what
        backward needs, the `dtype` casts of the LSTM weights included;
        without it, each LSTM layer keeps only its h sequence."""
        cfg = self.cfg
        _batch_shape(X)
        masks = None if masks is None else iter(masks)

        enc, emb_cache = self.encode(X)
        cache: dict = {"emb": emb_cache, "layers": []}

        # LSTM layers run time-major in `dtype`: x, h and every state
        # buffer are (T, B, .)
        x = np.ascontiguousarray(enc.transpose(1, 0, 2), dtype=dtype)
        for l in range(len(cfg.layers)):
            mask = None
            if masks is not None:
                mask = np.ascontiguousarray(
                    _inverted(next(masks), cfg.dropout).transpose(1, 0, 2), dtype=dtype)
                x = x * mask
            Wx, Wh, b = (self.params[f"lstm/{l}/{n}"].astype(dtype, copy=False)
                         for n in ("Wx", "Wh", "b"))
            h, state = _lstm_forward(x, Wx, Wh, b, keep)
            if keep:
                cache["layers"].append({"in": x, "mask": mask, "h": h, "state": state,
                                        "Wx": Wx, "Wh": Wh})
            x = h

        a = x[-1].astype(np.float64)  # h^L at the final step; the head is float64
        head = []
        for d in range(self.n_dense):
            mask = None
            if masks is not None:
                mask = _inverted(next(masks), cfg.dropout)
                a = a * mask
            W, b = self.params[f"head/{d}/W"], self.params[f"head/{d}/b"]
            z = a @ W + b
            head.append({"in": a, "mask": mask, "z": z})
            a = np.tanh(z) if d < self.n_dense - 1 else z
        cache["head"] = head
        probs = softmax(a)
        cache["probs"] = probs
        return probs, cache

    # -- loss / backward ----------------------------------------------------

    def loss(self, probs: np.ndarray, y: np.ndarray) -> float:
        if len(y) == 0:
            raise EmptyBatch("empty batch")
        p = np.clip(probs[np.arange(len(y)), y], PROB_CLAMP, 1.0)
        return float(-np.mean(np.log(p)))

    def loss_on(self, X: np.ndarray, y: np.ndarray, dtype=np.float32) -> float:
        return self.loss(self.predict(X, dtype=dtype), y)

    def backward(self, cache: dict, y: np.ndarray) -> dict:
        """Exact gradients of the mean NLL w.r.t. every parameter.

        Consumes the cache: each LSTM layer's record leaves it once its
        gradients are formed, and its gate buffer holds dz meanwhile.  A
        second call on the same cache raises NetError."""
        cfg = self.cfg
        layers = cache["layers"]
        if len(layers) != len(cfg.layers):
            raise NetError("backward needs an unconsumed cache from forward: "
                           "it consumes the cache, so it cannot run twice on one")
        probs = cache["probs"]
        B = len(y)
        grads = {}

        onehot = np.zeros_like(probs)
        onehot[np.arange(B), y] = 1.0
        da = (probs - onehot) / B
        for d in range(self.n_dense - 1, -1, -1):
            rec = cache["head"][d]
            if d < self.n_dense - 1:
                da = da * (1.0 - np.tanh(rec["z"]) ** 2)
            grads[f"head/{d}/W"] = rec["in"].T @ da
            grads[f"head/{d}/b"] = da.sum(axis=0)
            da = da @ self.params[f"head/{d}/W"].T
            if rec["mask"] is not None:
                da = da * rec["mask"]

        # da is now d/d h^L_T; BPTT through the stack, top layer first, in
        # the forward's LSTM dtype; the weight gradients return to float64
        dh = da.astype(layers[-1]["h"].dtype)
        for l in range(len(cfg.layers) - 1, -1, -1):
            rec = layers.pop()
            h = rec["h"]
            T, _, H = h.shape
            # c and tanh(c) go with the popped state; dz is the gate buffer
            dz = _lstm_backward(h, rec.pop("state"), rec["Wh"], dh)
            dz = dz.reshape(T * B, 4 * H)
            grads[f"lstm/{l}/Wx"] = (rec["in"].reshape(T * B, -1).T @ dz).astype(np.float64)
            # h_{t-1} is zero at t = 0, so dWh pairs h[:-1] with dz[1:]
            grads[f"lstm/{l}/Wh"] = (h[:-1].reshape(-1, H).T @ dz[B:]).astype(np.float64)
            grads[f"lstm/{l}/b"] = dz.sum(axis=0, dtype=np.float64)
            # the dh of the layer below; below layer 0 only the embedding
            # columns (none for bench1 and bench2) have parameters
            n_in = len(rec["Wx"]) if l else cfg.input_width - cfg.numeric_width
            dh = (dz @ rec["Wx"][:n_in].T).reshape(T, B, -1)
            if rec["mask"] is not None:
                dh *= rec["mask"][..., :n_in]
            del rec, dz  # free the layer before the next one's BPTT

        if cfg.variant == "orderflow":
            offset = 0
            for name, card, *_ in CATEGORICALS:
                dim = cfg.emb_dims[name]
                idx, e = cache["emb"][name]
                de = dh[..., offset:offset + dim].transpose(1, 0, 2) * (1.0 - e ** 2)
                gU = np.zeros_like(self.params[f"emb/{name}/U"])
                np.add.at(gU, idx.ravel(), de.reshape(-1, dim))
                grads[f"emb/{name}/U"] = gU
                grads[f"emb/{name}/b"] = de.sum(axis=(0, 1))
                offset += dim
        return {k: grads[k] for k in self.params}

    def loss_and_grads(self, X, y, train=False, rng=None, dtype=np.float32,
                       masks: Optional[list] = None) -> tuple[float, dict]:
        probs, cache = self.forward(X, train=train, rng=rng, dtype=dtype, masks=masks)
        return self.loss(probs, y), self.backward(cache, y)


def _batch_shape(X) -> tuple[int, int]:
    """(B, T) of a non-empty (B, T, F) batch of windows."""
    if X.ndim != 3:
        raise ShapeMismatch(f"expected (B, T, F) batch, got shape {X.shape}")
    if len(X) == 0:
        raise EmptyBatch("empty batch")
    return X.shape[:2]


# ---------------------------------------------------------------------------
# LSTM layer kernels (time-major; gate order i, f, g, o)
# ---------------------------------------------------------------------------


def _lstm_forward(x: np.ndarray, Wx: np.ndarray, Wh: np.ndarray, b: np.ndarray,
                  keep: bool) -> tuple[np.ndarray, Optional[tuple]]:
    """One LSTM layer over a contiguous (T, B, F) input, computed in the
    dtype of `x` and the weights.

    The input projection x @ Wx + b is one GEMM over all T steps into a
    (T, B, 4H) buffer; each step adds h_{t-1} @ Wh to its slice and
    overwrites it in place with the gate activations.  Returns the
    (T, B, H) h sequence and, with `keep`, (gates, c, tanh(c)) for
    backward; without it c and tanh(c) live in two rotating slots.
    """
    T, B, _ = x.shape
    H = Wh.shape[0]
    gates = (x.reshape(T * B, -1) @ Wx).reshape(T, B, 4 * H)
    gates += b
    slots = T if keep else 2
    c = np.empty((slots, B, H), dtype=x.dtype)
    tc = np.empty((slots, B, H), dtype=x.dtype)
    h = np.empty((T, B, H), dtype=x.dtype)
    h_prev = np.zeros((B, H), dtype=x.dtype)
    c_prev = np.zeros((B, H), dtype=x.dtype)
    # sigmoid as 1 / (1 + exp(-z)): exp overflows to inf for z < -88.7 in
    # float32 (-709 in float64), which gives the exact limit 0
    with np.errstate(over="ignore"):
        for t in range(T):
            z = gates[t]
            z += h_prev @ Wh
            g = np.tanh(z[:, 2 * H:3 * H])
            np.negative(z, out=z)
            np.exp(z, out=z)
            z += 1.0
            np.reciprocal(z, out=z)
            z[:, 2 * H:3 * H] = g
            s = t % slots
            c_t = c[s]
            np.multiply(z[:, H:2 * H], c_prev, out=c_t)
            c_t += z[:, :H] * g
            np.tanh(c_t, out=tc[s])
            np.multiply(z[:, 3 * H:], tc[s], out=h[t])
            h_prev, c_prev = h[t], c_t
    return h, ((gates, c, tc) if keep else None)


def _lstm_backward(h: np.ndarray, state: tuple, Wh: np.ndarray,
                   dh_out: np.ndarray) -> np.ndarray:
    """BPTT through one layer, in the dtype of `h`; returns the (T, B, 4H)
    pre-activation gradients dz, written over the forward's gate buffer.
    `dh_out` is the gradient from above: (T, B, H), or (B, H) for the top
    layer, whose final step alone feeds the head.  Only dz_t @ Wh.T stays
    inside the loop; the caller turns the stacked dz into dWx, dWh, db
    and the input gradient with one GEMM each.

    Step t reads the activated gates[t] only at step t, so it computes
    dz_t in a (B, 4H) scratch buffer and then copies it over gates[t]."""
    gates, c, tc = state
    T, B, H = h.shape
    d = np.empty((B, 4 * H), dtype=gates.dtype)
    WhT = Wh.T
    zero = np.zeros((B, H), dtype=h.dtype)
    top = dh_out.ndim == 2
    dh_next = dh_out if top else zero
    dc_next = zero
    for t in range(T - 1, -1, -1):
        z = gates[t]
        i, f, g, o = z[:, :H], z[:, H:2 * H], z[:, 2 * H:3 * H], z[:, 3 * H:]
        tc_t = tc[t]
        dh = dh_next if top else dh_out[t] + dh_next
        dc = dc_next + dh * o * (1.0 - tc_t ** 2)
        # d = d(loss)/d(activated gate), then times the activation's slope
        np.multiply(dc, g, out=d[:, :H])
        np.multiply(dc, c[t - 1] if t else zero, out=d[:, H:2 * H])
        np.multiply(dc, i, out=d[:, 2 * H:3 * H])
        np.multiply(dh, tc_t, out=d[:, 3 * H:])
        slope = 1.0 - z
        slope *= z
        slope[:, 2 * H:3 * H] = 1.0 - g ** 2
        d *= slope
        dc_next = dc * f
        z[...] = d
        dh_next = d @ WhT
    return gates


# ---------------------------------------------------------------------------
# Dropout masks (`dropout_mask` is exposed for the wiring tests)
# ---------------------------------------------------------------------------


def dropout_mask(shape, rate: float, rng) -> np.ndarray:
    """Inverted dropout mask: zeros with probability `rate`, else 1/(1-rate)."""
    keep = _keep_mask(shape, rate, rng) if rate != 0.0 else np.ones(shape, dtype=bool)
    return _inverted(keep, rate)


def _keep_mask(shape, rate: float, rng) -> np.ndarray:
    """Bool dropout keep mask: False with probability `rate`."""
    if not 0.0 <= rate < 1.0:
        raise InvalidRate(f"rate {rate} not in [0, 1)")
    return rng.random(shape) >= rate


def _inverted(keep: np.ndarray, rate: float) -> np.ndarray:
    """The inverted-dropout mask of bool `keep`: 0 where dropped, else 1/(1-rate)."""
    return keep / (1.0 - rate)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    m: dict
    v: dict
    t: int = 0

    @classmethod
    def zeros_like(cls, params: dict) -> "AdamState":
        return cls({k: np.zeros_like(p) for k, p in params.items()},
                   {k: np.zeros_like(p) for k, p in params.items()})


def adam_step(params: dict, grads: dict, state: AdamState,
              lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8) -> None:
    """In-place bias-corrected Adam update."""
    state.t += 1
    t = state.t
    for k, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradient(f"non-finite gradient in {k}")
        m = state.m[k]
        v = state.v[k]
        m *= beta1
        m += (1 - beta1) * g
        v *= beta2
        v += (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        params[k] -= lr * m_hat / (np.sqrt(v_hat) + eps)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


@dataclass
class TrainSchedule:
    """Adam and early-stopping settings.  Every field but `seed` (the
    run's) is a run config's `schedule` block and its default.

    Construction checks every value and raises :class:`InvalidConfig`:
    integer `epochs` and `batch_size` >= 1 and `patience` and `seed` >=
    0, a finite `lr` >= 0, `beta1` and `beta2` in [0, 1) and a finite
    `eps` > 0.
    """

    epochs: int = 50
    batch_size: int = 256
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    patience: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        for name, lo in (("epochs", 1), ("batch_size", 1), ("patience", 0), ("seed", 0)):
            checks.integer(getattr(self, name), name, InvalidConfig, lo)
        checks.number(self.lr, "lr", InvalidConfig, 0)
        checks.number(self.beta1, "beta1", InvalidConfig, 0, 1)
        checks.number(self.beta2, "beta2", InvalidConfig, 0, 1)
        checks.number(self.eps, "eps", InvalidConfig, 0, lo_open=True)


@dataclass
class TrainResult:
    history: list
    best_epoch: int
    best_val_loss: float


def _eval_split(model: Model, X, y) -> tuple[float, float]:
    """Loss and MCC of `model` on (X, y); X is read as `predict` reads it."""
    probs = model.predict(X)
    loss = model.loss(probs, y)
    yhat = probs.argmax(axis=1)
    cm = statsmod.confusion(y, yhat)
    return loss, statsmod.mcc(cm)


def train(model: Model, train_xy, val_xy, schedule: TrainSchedule) -> TrainResult:
    """Mini-batch Adam with per-epoch validation and early stopping.

    Stops once the validation loss has failed to improve for more than
    `patience` consecutive epochs, and leaves the best-validation params
    in `model`.  Each minibatch's gradient is computed as two shards
    (see the module docstring), the second on a forked worker when the
    affinity mask holds two CPUs or more.  The windows of `train_xy` are
    read only as len(X), X[:1] and one shard X[idx] at a time, for an int
    array idx; those of `val_xy` as `predict` reads them.
    """
    Xtr, ytr = train_xy
    Xva, yva = val_xy
    if len(ytr) == 0 or len(yva) == 0:
        raise EmptyBatch("train and validation splits must be non-empty")
    T = _batch_shape(Xtr[:1])[1]
    rng = np.random.default_rng(schedule.seed)
    opt = AdamState.zeros_like(model.params)
    history = []
    best_loss = np.inf
    best_params = copy.deepcopy(model.params)
    best_epoch = -1
    since_improve = 0
    # min(2, CPUs in the affinity mask) processes; a worker only when a
    # minibatch can hold two shards
    parallel = min(schedule.batch_size, len(ytr)) > 1 and len(os.sched_getaffinity(0)) > 1
    with _ShardWorker(model, Xtr, ytr) if parallel else nullcontext() as worker:
        for epoch in range(schedule.epochs):
            perm = rng.permutation(len(ytr))
            total = 0.0
            nb = 0
            for start in range(0, len(perm), schedule.batch_size):
                idx = perm[start:start + schedule.batch_size]
                loss, grads = _minibatch_step(model, Xtr, ytr, idx, T, rng, worker)
                adam_step(model.params, grads, opt, lr=schedule.lr, beta1=schedule.beta1,
                          beta2=schedule.beta2, eps=schedule.eps)
                total += loss * len(idx)
                nb += len(idx)
            val_loss, val_mcc = _eval_split(model, Xva, yva)
            history.append({"epoch": epoch, "train_loss": total / nb,
                            "val_loss": val_loss, "val_mcc": val_mcc})
            if val_loss < best_loss:
                best_loss = val_loss
                best_params = copy.deepcopy(model.params)
                best_epoch = epoch
                since_improve = 0
            else:
                since_improve += 1
                if since_improve > schedule.patience:
                    break
    model.params = best_params
    return TrainResult(history, best_epoch, float(best_loss))


def _minibatch_step(model: Model, X, y, idx: np.ndarray, T: int, rng,
                    worker: Optional["_ShardWorker"]) -> tuple[float, dict]:
    """Mean loss and gradients of the minibatch `idx` of (X, y), T steps
    per window: the mean over its shards weighted by shard size, summed
    shard 0 first.  The whole batch's dropout keep masks are drawn from
    `rng` first, as a whole-batch forward would draw them; `worker`, if
    given, computes shard 1 while this process computes shard 0."""
    B = len(idx)
    masks = model.dropout_masks(B, T, rng)
    half = (B + 1) // 2
    shards = [slice(0, half), slice(half, B)] if B > 1 else [slice(0, B)]
    jobs = [(idx[s], None if masks is None else [m[s] for m in masks]) for s in shards]
    if worker is not None and len(jobs) == 2:
        worker.submit(model.params, *jobs[1])
        parts = [_shard_loss_grads(model, X, y, *jobs[0]), worker.result()]
    else:
        parts = [_shard_loss_grads(model, X, y, *job) for job in jobs]
    sizes = [len(rows) for rows, _ in jobs]
    loss = sum(n * part[0] for n, part in zip(sizes, parts)) / B
    grads = {k: sum(n * part[1][k] for n, part in zip(sizes, parts)) / B for k in parts[0][1]}
    return loss, grads


def _shard_loss_grads(model: Model, X, y, rows: np.ndarray, masks: Optional[list]):
    """Mean loss and gradients of the training windows `rows`, with their
    rows of the batch's keep masks.  Both processes run their shards
    through this one function."""
    return model.loss_and_grads(X[rows], y[rows], train=True, masks=masks)


class _ShardWorker:
    """A process forked from the caller that computes shard 1 of each
    minibatch.  It inherits the model and the training windows at fork,
    so the windows are never pickled; each request carries the params,
    the shard's sample indices and its keep masks.  As a context manager
    it ends the process on exit."""

    def __init__(self, model: Model, X, y):
        ctx = multiprocessing.get_context("fork")
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(target=_serve_shards, args=(child, self.conn, model, X, y),
                                daemon=True)
        self.proc.start()
        child.close()

    def __enter__(self) -> "_ShardWorker":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.proc.terminate()   # the shard it may be computing is not needed
        self.conn.close()           # an idle worker reads EOF and returns
        self.proc.join()

    def submit(self, params: dict, rows: np.ndarray, masks: Optional[list]) -> None:
        try:
            self.conn.send((params, rows, masks))
        except OSError as e:
            raise NetError(f"the shard worker exited: {e}") from e

    def result(self) -> tuple[float, dict]:
        """The submitted shard's (loss, grads); an exception the shard
        raised is raised here again."""
        try:
            out = self.conn.recv()
        except (EOFError, OSError) as e:
            raise NetError("the shard worker exited before it returned its shard") from e
        if isinstance(out, Exception):
            raise out
        return out


def _serve_shards(conn, parent_end, model: Model, X, y) -> None:
    """The worker's loop: run each requested shard until the parent
    closes its end of the pipe (the worker's inherited copy of that end
    is closed first, or it would never read EOF)."""
    parent_end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)   # the parent handles ^C and ends it
    try:
        while True:
            model.params, rows, masks = conn.recv()
            try:
                out = _shard_loss_grads(model, X, y, rows, masks)
            except Exception as e:   # raised again in the parent
                out = e
            conn.send(out)
    except (EOFError, OSError):   # the parent closed its end
        pass


# ---------------------------------------------------------------------------
# Random hyperparameter search (stands in for the tuning stage)
# ---------------------------------------------------------------------------


class EmptySpace(NetError):
    pass


def hyper_search(space: dict, budget: int, seed: int, base_cfg: ModelConfig,
                 train_xy, val_xy, schedule: TrainSchedule):
    """Seeded random search over discrete choice lists.

    `space` maps ModelConfig / TrainSchedule field names to lists of
    candidate values; every candidate is checked before the first
    trial trains.  Returns (best_cfg, best_schedule, trials) with
    trials sorted in evaluation order.
    """
    if budget < 1:
        raise EmptySpace("budget must be >= 1")
    if not space or any(len(v) == 0 for v in space.values()):
        raise EmptySpace("search space must be non-empty")
    cfg_fields = {f.name for f in fields(ModelConfig)}
    sch_fields = {f.name for f in fields(TrainSchedule)}

    def settings(choice: dict) -> tuple[ModelConfig, TrainSchedule]:
        unknown = sorted(choice.keys() - cfg_fields - sch_fields)
        if unknown:
            raise NetError(f"unknown search dimension {unknown[0]!r}")
        return (replace(base_cfg, **{k: v for k, v in choice.items() if k in cfg_fields}),
                replace(schedule, **{k: v for k, v in choice.items() if k in sch_fields}))

    for k, values in space.items():
        for v in values:
            settings({k: v})
    rng = np.random.default_rng(seed)
    trials = []
    best = None
    for trial in range(budget):
        choice = {k: v[int(rng.integers(0, len(v)))] for k, v in space.items()}
        cfg, sch = settings(choice)
        model = Model(cfg, seed=schedule.seed + trial)
        result = train(model, train_xy, val_xy, sch)
        trials.append({"trial": trial, "choice": choice, "val_loss": result.best_val_loss})
        if best is None or result.best_val_loss < best[0]:
            best = (result.best_val_loss, cfg, sch)
    return best[1], best[2], trials


# ---------------------------------------------------------------------------
# Finite-difference gradient verification
# ---------------------------------------------------------------------------


def check_gradients(model: Model, X, y, step: float = 1e-5) -> dict:
    """Per-parameter-group norm relative error between analytic and
    central-finite-difference gradients of the batch loss."""
    _, cache = model.forward(X, dtype=np.float64)
    assert all(rec["h"].dtype == np.float64 for rec in cache["layers"]), "needs a float64 forward"
    analytic = model.backward(cache, y)
    errors = {}
    for key, p in model.params.items():
        num = np.zeros_like(p)
        flat = p.ravel()
        nflat = num.ravel()
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + step
            up = model.loss_on(X, y, dtype=np.float64)
            flat[j] = orig - step
            down = model.loss_on(X, y, dtype=np.float64)
            flat[j] = orig
            nflat[j] = (up - down) / (2 * step)
        a = analytic[key]
        denom = np.linalg.norm(a) + np.linalg.norm(num)
        errors[key] = float(np.linalg.norm(a - num) / denom) if denom > 1e-12 else 0.0
    return errors


def random_raw_batch(variant: str, B: int, T: int, S: int, rng) -> np.ndarray:
    """Valid-range random raw features for gradient checks."""
    X = np.empty((B, T, table_width(variant, S)))
    if variant == "orderflow":
        X[..., 0] = rng.integers(0, 500, (B, T))             # dt_ms
        X[..., 1] = rng.integers(0, 24, (B, T))              # hour
        X[..., 2] = rng.uniform(0.05, 2.0, (B, T))           # size
        X[..., 3] = rng.integers(1, 4, (B, T))               # kind
        X[..., 4] = rng.integers(1, 3, (B, T))               # side
        X[..., 5] = rng.integers(1, 12, (B, T))              # rel_price
        return X
    mid = rng.uniform(95.0, 105.0, (B, T))
    X[..., 0:S] = mid[..., None] - rng.integers(1, 10, (B, T, S))
    X[..., S:2 * S] = rng.uniform(0.0, 3.0, (B, T, S))
    X[..., 2 * S:3 * S] = mid[..., None] + rng.integers(1, 10, (B, T, S))
    X[..., 3 * S:4 * S] = rng.uniform(0.0, 3.0, (B, T, S))
    X[..., 4 * S] = mid
    if variant == "bench1":
        X[..., 4 * S + 1:4 * S + 3] = rng.integers(0, 4, (B, T, 2))   # best-level order counts
        X[..., 4 * S + 3:] = rng.integers(0, 2, (B, T, 2))            # market-order flags
    return X


def run_gradcheck(n_configs: int = 20, seed: int = 0, step: float = 1e-5) -> list:
    """Random small configurations; returns [(description, max rel err)]."""
    rng = np.random.default_rng(seed)
    results = []
    for k in range(n_configs):
        variant = ["orderflow", "bench1", "bench2"][int(rng.integers(0, 3))]
        L = int(rng.integers(1, 3))
        D = int(rng.integers(1, 3))
        T = int(rng.choice([1, 4]))
        H = int(rng.choice([3, 8]))
        S = 2
        # hour embedding dim kept small for speed; cardinality stays 24
        cfg = ModelConfig(variant=variant, S=S, layers=(H,) * L,
                          dense_hidden=(4,) * (D - 1), dropout=0.0,
                          emb_dims={"kind": 2, "side": 2, "hour": 3})
        cfg = replace(cfg, norm_mean=[0.0] * cfg.numeric_width, norm_sd=[1.0] * cfg.numeric_width)
        model = Model(cfg, seed=seed + 1000 + k)
        X = random_raw_batch(variant, 3, T, S, rng)
        if variant == "orderflow":
            X[..., 1] = rng.integers(0, 24, X.shape[:2])
        y = rng.integers(0, 2, 3)
        errs = check_gradients(model, X, y, step=step)
        results.append((f"{variant} L={L} D={D} T={T} H={H}", max(errs.values())))
    return results


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

_CKPT_MAGIC = b"OFCK"


def save_checkpoint(model: Model, path, extras: Optional[dict] = None) -> None:
    """Write the config, `extras` and the float64 tensors, in name order,
    as a :mod:`lobflow.container` file."""
    container.write(path, _CKPT_MAGIC, {"config": asdict(model.cfg), "extras": extras or {}},
                    {n: np.ascontiguousarray(model.params[n], dtype=np.float64)
                     for n in sorted(model.params)})


def load_checkpoint(path) -> tuple[Model, dict]:
    """Read a checkpoint written by :func:`save_checkpoint`.

    The container checks its bytes; the tensors must then be the float64
    ones its model config defines.  Any mismatch raises :class:`NetError`.
    """
    fields, params = container.read(path, _CKPT_MAGIC, NetError)
    try:
        cfg = ModelConfig(**fields["config"])
        extras = dict(fields.get("extras", {}))
        fitted = {name: p.shape for name, p in Model(cfg).params.items()}
    except (InvalidConfig, ValueError, KeyError, TypeError) as e:
        raise NetError(f"checkpoint {path} has a corrupt header: {e}") from e
    if {n: p.shape for n, p in params.items()} != fitted \
            or any(p.dtype != np.float64 for p in params.values()):
        raise NetError(f"checkpoint {path}: tensors do not fit its model config")
    return Model(cfg, params=params), extras
