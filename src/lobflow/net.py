"""From-scratch recurrent classifier of mid-price direction.

Stacked LSTM over length-T feature sequences, tanh embeddings for the
categorical order-flow covariates, a dense softmax head, mean NLL loss,
exact backpropagation through time, Adam, inverted dropout on the
non-recurrent connections only, and early-stopped training.  Everything
is plain float64 numpy; gradients are verified against central finite
differences (see :func:`check_gradients`).

The LSTM layers run time-major.  Each layer computes its input
projection x @ Wx + b for all T steps in one GEMM into a contiguous
(T, B, 4H) buffer; a step adds h_{t-1} @ Wh to its slice and turns it
into the gate activations in place, with one exp-based sigmoid pass
over all four gates and tanh on the g block.  Training forwards keep
c and tanh(c) as (T, B, H) arrays for backward, which runs the
elementwise gate derivatives step by step and then forms dWx, dWh, db
and the input gradient with one GEMM (or sum) each over the stacked
pre-activation gradients.  `predict` runs the same loop without a
cache: c and tanh(c) live in two rotating slots.
"""

from __future__ import annotations

import copy
import hashlib
import json
import struct
from dataclasses import dataclass, field, asdict
from typing import Iterable, Optional

import numpy as np

from . import stats as statsmod
from .features import MissingStats, transform_numeric


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


PROB_CLAMP = 1e-12

# orderflow categorical covariates: (name, cardinality, raw column, code offset)
CATEGORICALS = (("kind", 3, 3, 1), ("side", 2, 4, 1), ("hour", 24, 1, 0))
DEFAULT_EMB_DIMS = {"kind": 2, "side": 2, "hour": 4}


@dataclass
class ModelConfig:
    variant: str                      # "orderflow" | "bench1" | "bench2"
    S: int = 5
    layers: tuple = (64, 64)          # LSTM state size per layer
    dense_hidden: tuple = ()          # widths of tanh head layers before the output
    emb_dims: dict = field(default_factory=lambda: dict(DEFAULT_EMB_DIMS))
    dropout: float = 0.1
    K: int = 2
    norm_mean: Optional[list] = None
    norm_sd: Optional[list] = None

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

    def to_dict(self) -> dict:
        d = asdict(self)
        d["layers"] = list(self.layers)
        d["dense_hidden"] = list(self.dense_hidden)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        d = dict(d)
        d["layers"] = tuple(d["layers"])
        d["dense_hidden"] = tuple(d["dense_hidden"])
        return cls(**d)


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
        widths = [cfg.layers[-1], *cfg.dense_hidden, cfg.K]
        for d, (a, b_) in enumerate(zip(widths, widths[1:])):
            p[f"head/{d}/W"] = _uniform(rng, a, (a, b_))
            p[f"head/{d}/b"] = np.zeros(b_)
        return p

    @property
    def n_dense(self) -> int:
        return len(self.cfg.dense_hidden) + 1

    # -- input encoding -----------------------------------------------------

    def embed(self, name: str, category: int) -> np.ndarray:
        """tanh(U_q[category] + b_q) for one categorical value (0-based)."""
        card = dict((n, c) for n, c, *_ in CATEGORICALS)[name]
        if not 0 <= category < card:
            raise CategoryOutOfRange(f"{name} category {category} not in [0, {card})")
        return np.tanh(self.params[f"emb/{name}/U"][category] + self.params[f"emb/{name}/b"])

    def encode(self, X: np.ndarray) -> tuple[np.ndarray, dict]:
        """Raw (B, T, F_raw) features -> (B, T, input_width) model inputs."""
        cfg = self.cfg
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

    def forward(self, X: np.ndarray, train: bool = False, rng=None) -> tuple[np.ndarray, dict]:
        """Run the full network; returns (probs (B, K), cache for backward).

        Dropout is applied only when `train` is True, and only on the
        non-recurrent connections: the encoded inputs of every LSTM
        layer and the inputs of every dense layer.  The recurrent
        h_{t-1} -> h_t path is never masked.
        """
        rate = self.cfg.dropout if train else 0.0
        if not 0.0 <= rate < 1.0:
            raise InvalidRate(f"dropout rate {rate}")
        if rate > 0.0 and rng is None:
            raise NetError("training-mode forward needs an rng for dropout")
        return self._run(X, rate, rng, keep=True)

    def predict(self, X: np.ndarray, batch_size: int = 128) -> np.ndarray:
        """Inference probabilities; keeps no per-step state.  Each chunk of
        `batch_size` samples still needs a (T, batch_size, 4H) gate buffer,
        so larger chunks cost memory (and, measured, no time)."""
        out = []
        for i in range(0, len(X), batch_size):
            out.append(self._run(X[i:i + batch_size], 0.0, None, keep=False)[0])
        return np.concatenate(out) if out else np.empty((0, self.cfg.K))

    def _run(self, X: np.ndarray, rate: float, rng, keep: bool) -> tuple[np.ndarray, dict]:
        """Shared forward pass.  With `keep`, the cache holds what backward
        needs; without it, each LSTM layer keeps only its h sequence."""
        cfg = self.cfg
        if X.ndim != 3:
            raise ShapeMismatch(f"expected (B, T, F) batch, got shape {X.shape}")
        B, T, _ = X.shape
        if B == 0:
            raise EmptyBatch("empty batch")

        enc, emb_cache = self.encode(X)
        cache: dict = {"X": X, "emb": emb_cache, "layers": [], "rate": rate}

        # LSTM layers run time-major: x, h and every state buffer are (T, B, .)
        x = np.ascontiguousarray(enc.transpose(1, 0, 2))
        for l in range(len(cfg.layers)):
            mask = None
            if rate > 0.0:
                mask = np.ascontiguousarray(
                    dropout_mask((B, T, x.shape[-1]), rate, rng).transpose(1, 0, 2))
                x = x * mask
            h, state = _lstm_forward(x, self.params[f"lstm/{l}/Wx"],
                                     self.params[f"lstm/{l}/Wh"], self.params[f"lstm/{l}/b"],
                                     keep)
            if keep:
                cache["layers"].append({"in": x, "mask": mask, "h": h, "state": state})
            x = h

        a = x[-1]  # h^L at the final step
        head = []
        for d in range(self.n_dense):
            mask = None
            if rate > 0.0:
                mask = dropout_mask(a.shape, rate, rng)
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

    def loss_on(self, X: np.ndarray, y: np.ndarray) -> float:
        return self.loss(self.predict(X), y)

    def backward(self, cache: dict, y: np.ndarray) -> dict:
        """Exact gradients of the mean NLL w.r.t. every parameter."""
        cfg = self.cfg
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

        # da is now d/d h^L_T; BPTT through the stack, top layer first
        dh = da
        for l in range(len(cfg.layers) - 1, -1, -1):
            rec = cache["layers"][l]
            h = rec["h"]
            T, _, H = h.shape
            dz = _lstm_backward(h, rec["state"], self.params[f"lstm/{l}/Wh"], dh)
            dz = dz.reshape(T * B, 4 * H)
            grads[f"lstm/{l}/Wx"] = rec["in"].reshape(T * B, -1).T @ dz
            # h_{t-1} is zero at t = 0, so dWh pairs h[:-1] with dz[1:]
            grads[f"lstm/{l}/Wh"] = h[:-1].reshape(-1, H).T @ dz[B:]
            grads[f"lstm/{l}/b"] = dz.sum(axis=0)
            # the dh of the layer below (or d enc)
            dh = (dz @ self.params[f"lstm/{l}/Wx"].T).reshape(T, B, -1)
            if rec["mask"] is not None:
                dh *= rec["mask"]

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

    def loss_and_grads(self, X, y, train=False, rng=None) -> tuple[float, dict]:
        probs, cache = self.forward(X, train=train, rng=rng)
        return self.loss(probs, y), self.backward(cache, y)


# ---------------------------------------------------------------------------
# LSTM layer kernels (time-major; gate order i, f, g, o)
# ---------------------------------------------------------------------------


def _lstm_forward(x: np.ndarray, Wx: np.ndarray, Wh: np.ndarray, b: np.ndarray,
                  keep: bool) -> tuple[np.ndarray, Optional[tuple]]:
    """One LSTM layer over a contiguous (T, B, F) input.

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
    c = np.empty((slots, B, H))
    tc = np.empty((slots, B, H))
    h = np.empty((T, B, H))
    h_prev = np.zeros((B, H))
    c_prev = np.zeros((B, H))
    # sigmoid as 1 / (1 + exp(-z)): exp overflows to inf for z < -709,
    # which gives the exact limit 0
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
    """BPTT through one layer; returns the (T, B, 4H) pre-activation
    gradients dz.  `dh_out` is the gradient from above: (T, B, H), or
    (B, H) for the top layer, whose final step alone feeds the head.
    Only dz_t @ Wh.T stays inside the loop; the caller turns the stacked
    dz into dWx, dWh, db and the input gradient with one GEMM each."""
    gates, c, tc = state
    T, B, H = h.shape
    dz = np.empty_like(gates)
    WhT = Wh.T
    zero = np.zeros((B, H))
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
        d = dz[t]
        np.multiply(dc, g, out=d[:, :H])
        np.multiply(dc, c[t - 1] if t else zero, out=d[:, H:2 * H])
        np.multiply(dc, i, out=d[:, 2 * H:3 * H])
        np.multiply(dh, tc_t, out=d[:, 3 * H:])
        slope = 1.0 - z
        slope *= z
        slope[:, 2 * H:3 * H] = 1.0 - g ** 2
        d *= slope
        dc_next = dc * f
        dh_next = d @ WhT
    return dz


# ---------------------------------------------------------------------------
# Dropout mask (exposed for the wiring tests)
# ---------------------------------------------------------------------------


def dropout_mask(shape, rate: float, rng) -> np.ndarray:
    """Inverted dropout mask: zeros with probability `rate`, else 1/(1-rate)."""
    if not 0.0 <= rate < 1.0:
        raise InvalidRate(f"rate {rate} not in [0, 1)")
    if rate == 0.0:
        return np.ones(shape)
    return (rng.random(shape) >= rate) / (1.0 - rate)


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
            raise NonFiniteGradient(k)
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
    epochs: int = 50
    batch_size: int = 256
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    patience: int = 5
    seed: int = 0


@dataclass
class TrainResult:
    params: dict
    history: list
    best_epoch: int
    best_val_loss: float


def _eval_split(model: Model, X, y) -> tuple[float, float]:
    probs = model.predict(X)
    loss = model.loss(probs, y)
    yhat = probs.argmax(axis=1)
    cm = statsmod.confusion(y, yhat)
    return loss, statsmod.mcc(cm)


def train(model: Model, train_xy, val_xy, schedule: TrainSchedule) -> TrainResult:
    """Mini-batch Adam with per-epoch validation and early stopping.

    Stops once the validation loss has failed to improve for more than
    `patience` consecutive epochs; returns the best-validation params.
    """
    Xtr, ytr = train_xy
    Xva, yva = val_xy
    if len(ytr) == 0 or len(yva) == 0:
        raise EmptyBatch("train and validation splits must be non-empty")
    rng = np.random.default_rng(schedule.seed)
    opt = AdamState.zeros_like(model.params)
    history = []
    best_loss = np.inf
    best_params = copy.deepcopy(model.params)
    best_epoch = -1
    since_improve = 0
    for epoch in range(schedule.epochs):
        perm = rng.permutation(len(ytr))
        total = 0.0
        nb = 0
        for start in range(0, len(perm), schedule.batch_size):
            idx = perm[start:start + schedule.batch_size]
            loss, grads = model.loss_and_grads(Xtr[idx], ytr[idx], train=True, rng=rng)
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
    return TrainResult(best_params, history, best_epoch, float(best_loss))


# ---------------------------------------------------------------------------
# Random hyperparameter search (stands in for the tuning stage)
# ---------------------------------------------------------------------------


class EmptySpace(NetError):
    pass


def hyper_search(space: dict, budget: int, seed: int, base_cfg: ModelConfig,
                 train_xy, val_xy, schedule: TrainSchedule):
    """Seeded random search over discrete choice lists.

    `space` maps ModelConfig / TrainSchedule field names to lists of
    candidate values.  Returns (best_cfg, best_schedule, trials) with
    trials sorted in evaluation order.
    """
    if budget < 1:
        raise EmptySpace("budget must be >= 1")
    if not space or any(len(v) == 0 for v in space.values()):
        raise EmptySpace("search space must be non-empty")
    rng = np.random.default_rng(seed)
    cfg_fields = set(ModelConfig.__dataclass_fields__)
    sch_fields = set(TrainSchedule.__dataclass_fields__)
    trials = []
    best = None
    for trial in range(budget):
        choice = {k: v[int(rng.integers(0, len(v)))] for k, v in space.items()}
        cfg = copy.deepcopy(base_cfg)
        sch = copy.deepcopy(schedule)
        for k, v in choice.items():
            if k in cfg_fields:
                setattr(cfg, k, tuple(v) if isinstance(v, list) else v)
            elif k in sch_fields:
                setattr(sch, k, v)
            else:
                raise NetError(f"unknown search dimension {k!r}")
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
    _, analytic = model.loss_and_grads(X, y)
    errors = {}
    for key, p in model.params.items():
        num = np.zeros_like(p)
        flat = p.ravel()
        nflat = num.ravel()
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + step
            up = model.loss_on(X, y)
            flat[j] = orig - step
            down = model.loss_on(X, y)
            flat[j] = orig
            nflat[j] = (up - down) / (2 * step)
        a = analytic[key]
        denom = np.linalg.norm(a) + np.linalg.norm(num)
        errors[key] = float(np.linalg.norm(a - num) / denom) if denom > 1e-12 else 0.0
    return errors


def random_raw_batch(variant: str, B: int, T: int, S: int, rng) -> np.ndarray:
    """Valid-range random raw features for gradient checks."""
    if variant == "orderflow":
        X = np.empty((B, T, 6))
        X[..., 0] = rng.integers(0, 500, (B, T))             # dt_ms
        X[..., 1] = rng.integers(0, 24, (B, T))              # hour
        X[..., 2] = rng.uniform(0.05, 2.0, (B, T))           # size
        X[..., 3] = rng.integers(1, 4, (B, T))               # kind
        X[..., 4] = rng.integers(1, 3, (B, T))               # side
        X[..., 5] = rng.integers(1, 12, (B, T))              # rel_price
        return X
    width = 4 * S + (3 if variant == "bench1" else 1)
    X = np.empty((B, T, width))
    mid = rng.uniform(95.0, 105.0, (B, T))
    X[..., 0:S] = mid[..., None] - rng.integers(1, 10, (B, T, S))
    X[..., S:2 * S] = rng.uniform(0.0, 3.0, (B, T, S))
    X[..., 2 * S:3 * S] = mid[..., None] + rng.integers(1, 10, (B, T, S))
    X[..., 3 * S:4 * S] = rng.uniform(0.0, 3.0, (B, T, S))
    X[..., 4 * S] = mid
    if variant == "bench1":
        X[..., 4 * S + 1:] = rng.uniform(0.0, 1.0, (B, T, 2))
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
        width = 3 if variant == "orderflow" else 4 * S + (2 if variant == "bench1" else 0)
        # hour embedding dim kept small for speed; cardinality stays 24
        cfg = ModelConfig(variant=variant, S=S, layers=(H,) * L,
                          dense_hidden=(4,) * (D - 1), dropout=0.0,
                          emb_dims={"kind": 2, "side": 2, "hour": 3},
                          norm_mean=[0.0] * width, norm_sd=[1.0] * width)
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
_CKPT_VERSION = 1


def save_checkpoint(model: Model, path, extras: Optional[dict] = None) -> None:
    """Versioned binary: hyper block, tensors in name order, manifest file."""
    names = sorted(model.params)
    header = {
        "format": "lobflow-checkpoint", "version": _CKPT_VERSION,
        "config": model.cfg.to_dict(),
        "tensors": [{"name": n, "shape": list(model.params[n].shape)} for n in names],
        "extras": extras or {},
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    manifest = []
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<II", _CKPT_VERSION, len(blob)))
        fh.write(blob)
        for n in names:
            raw = np.ascontiguousarray(model.params[n], dtype=np.float64).tobytes()
            fh.write(raw)
            manifest.append(f"{n} {list(model.params[n].shape)} {hashlib.sha256(raw).hexdigest()}")
    with open(str(path) + ".manifest.txt", "w", encoding="utf-8") as fh:
        fh.write("\n".join(manifest) + "\n")


def _read_manifest(path) -> dict:
    """{tensor name: (shape list text, sha256 hex)} from a checkpoint's manifest."""
    try:
        with open(str(path) + ".manifest.txt", "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as e:
        raise NetError(f"cannot read manifest of checkpoint {path}: {e}") from e
    out = {}
    for line in lines:
        name, _, rest = line.partition(" ")
        shape, _, digest = rest.rpartition(" ")
        out[name] = (shape, digest)
    return out


def load_checkpoint(path) -> tuple[Model, dict]:
    """Read a checkpoint written by :func:`save_checkpoint`.

    The tensors must be the ones the model config defines, the file
    size must equal the header plus the tensor bytes it declares, and
    every tensor must match its line in the SHA-256 manifest; any
    mismatch raises :class:`NetError`.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != _CKPT_MAGIC or len(data) < 12:
        raise NetError("not a checkpoint file")
    version, hlen = struct.unpack_from("<II", data, 4)
    if version != _CKPT_VERSION:
        raise NetError(f"unsupported checkpoint version {version}")
    try:
        header = json.loads(data[12:12 + hlen].decode("utf-8"))
        specs = [(str(t["name"]), tuple(int(n) for n in t["shape"])) for t in header["tensors"]]
        cfg = ModelConfig.from_dict(header["config"])
        fitted = {name: p.shape for name, p in Model(cfg).params.items()}
    except (ValueError, KeyError, TypeError) as e:
        raise NetError(f"checkpoint {path} has a corrupt header: {e}") from e
    if len(specs) != len(fitted) or dict(specs) != fitted:
        raise NetError(f"checkpoint {path}: tensors do not fit its model config")
    counts = [int(np.prod(shape, dtype=np.int64)) for _, shape in specs]
    expected = 12 + hlen + 8 * sum(counts)
    if len(data) != expected:
        raise NetError(f"checkpoint {path} is {len(data)} bytes; its header declares {expected}")
    manifest = _read_manifest(path)
    if sorted(manifest) != sorted(name for name, _ in specs):
        raise NetError(f"manifest of checkpoint {path} does not list its tensors")
    params = {}
    offset = 12 + hlen
    for (name, shape), count in zip(specs, counts):
        raw = data[offset:offset + 8 * count]
        offset += 8 * count
        if manifest[name] != (str(list(shape)), hashlib.sha256(raw).hexdigest()):
            raise NetError(f"checkpoint {path}: tensor {name} does not match its manifest")
        params[name] = np.frombuffer(raw, dtype=np.float64).reshape(shape).copy()
    return Model(cfg, params=params), header.get("extras", {})
