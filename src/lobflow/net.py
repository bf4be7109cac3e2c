"""From-scratch recurrent classifier of mid-price direction.

Stacked LSTM over length-T feature sequences, tanh embeddings for the
categorical order-flow covariates, a dense softmax head, mean NLL loss,
exact backpropagation through time, Adam, inverted dropout on the
non-recurrent connections only, and early-stopped training.  Everything
is plain float64 numpy; gradients are verified against central finite
differences (see :func:`check_gradients`).
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
        cfg = self.cfg
        if X.ndim != 3:
            raise ShapeMismatch(f"expected (B, T, F) batch, got shape {X.shape}")
        B, T, _ = X.shape
        if B == 0:
            raise EmptyBatch("empty batch")
        rate = cfg.dropout if train else 0.0
        if not 0.0 <= rate < 1.0:
            raise InvalidRate(f"dropout rate {rate}")
        if rate > 0.0 and rng is None:
            raise NetError("training-mode forward needs an rng for dropout")

        enc, emb_cache = self.encode(X)
        cache: dict = {"X": X, "emb": emb_cache, "layers": [], "rate": rate}

        inp = enc
        for l, H in enumerate(cfg.layers):
            Wx, Wh, b = (self.params[f"lstm/{l}/Wx"], self.params[f"lstm/{l}/Wh"],
                         self.params[f"lstm/{l}/b"])
            masks = None
            if rate > 0.0:
                masks = dropout_mask((B, T, inp.shape[-1]), rate, rng)
                inp = inp * masks
            h = np.zeros((B, H))
            c = np.zeros((B, H))
            steps = []
            hs = np.empty((B, T, H))
            for t in range(T):
                x_t = inp[:, t]
                z = x_t @ Wx + h @ Wh + b
                i = _sigmoid(z[:, :H])
                f = _sigmoid(z[:, H:2 * H])
                g = np.tanh(z[:, 2 * H:3 * H])
                o = _sigmoid(z[:, 3 * H:])
                c_new = f * c + i * g
                tc = np.tanh(c_new)
                h_new = o * tc
                steps.append((x_t, h, c, i, f, g, o, c_new, tc))
                h, c = h_new, c_new
                hs[:, t] = h
            cache["layers"].append({"in": inp, "mask": masks, "steps": steps, "H": H})
            inp = hs

        a = inp[:, -1]  # h^L at the final step
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

    def predict(self, X: np.ndarray, batch_size: int = 1024) -> np.ndarray:
        out = []
        for i in range(0, len(X), batch_size):
            out.append(self.forward(X[i:i + batch_size])[0])
        return np.concatenate(out) if out else np.empty((0, self.cfg.K))

    # -- loss / backward ----------------------------------------------------

    def loss(self, probs: np.ndarray, y: np.ndarray) -> float:
        if len(y) == 0:
            raise EmptyBatch("empty batch")
        p = np.clip(probs[np.arange(len(y)), y], PROB_CLAMP, 1.0)
        return float(-np.mean(np.log(p)))

    def loss_on(self, X: np.ndarray, y: np.ndarray) -> float:
        return self.loss(self.forward(X)[0], y)

    def backward(self, cache: dict, y: np.ndarray) -> dict:
        """Exact gradients of the mean NLL w.r.t. every parameter."""
        cfg = self.cfg
        probs = cache["probs"]
        B = len(y)
        grads = {k: np.zeros_like(v) for k, v in self.params.items()}

        onehot = np.zeros_like(probs)
        onehot[np.arange(B), y] = 1.0
        da = (probs - onehot) / B
        for d in range(self.n_dense - 1, -1, -1):
            rec = cache["head"][d]
            if d < self.n_dense - 1:
                da = da * (1.0 - np.tanh(rec["z"]) ** 2)
            grads[f"head/{d}/W"] += rec["in"].T @ da
            grads[f"head/{d}/b"] += da.sum(axis=0)
            da = da @ self.params[f"head/{d}/W"].T
            if rec["mask"] is not None:
                da = da * rec["mask"]

        # da is now d/d h^L_T; BPTT through the stack, top layer first
        T = cache["X"].shape[1]
        dh_seq = np.zeros((B, T, cfg.layers[-1]))
        dh_seq[:, -1] = da
        for l in range(len(cfg.layers) - 1, -1, -1):
            rec = cache["layers"][l]
            H = rec["H"]
            Wx = self.params[f"lstm/{l}/Wx"]
            Wh = self.params[f"lstm/{l}/Wh"]
            dWx = grads[f"lstm/{l}/Wx"]
            dWh = grads[f"lstm/{l}/Wh"]
            db = grads[f"lstm/{l}/b"]
            dx_seq = np.empty((B, T, Wx.shape[0]))
            dh_next = np.zeros((B, H))
            dc_next = np.zeros((B, H))
            for t in range(T - 1, -1, -1):
                x_t, h_prev, c_prev, i, f, g, o, c_new, tc = rec["steps"][t]
                dh = dh_seq[:, t] + dh_next
                do = dh * tc
                dc = dc_next + dh * o * (1.0 - tc ** 2)
                di = dc * g
                df = dc * c_prev
                dg = dc * i
                dc_next = dc * f
                dz = np.concatenate([di * i * (1 - i), df * f * (1 - f),
                                     dg * (1 - g ** 2), do * o * (1 - o)], axis=1)
                dWx += x_t.T @ dz
                dWh += h_prev.T @ dz
                db += dz.sum(axis=0)
                dx_seq[:, t] = dz @ Wx.T
                dh_next = dz @ Wh.T
            if rec["mask"] is not None:
                dx_seq = dx_seq * rec["mask"]
            dh_seq = dx_seq  # becomes the dh of the layer below (or d enc)

        if cfg.variant == "orderflow":
            offset = 0
            for name, card, *_ in CATEGORICALS:
                dim = cfg.emb_dims[name]
                idx, e = cache["emb"][name]
                de = dh_seq[..., offset:offset + dim] * (1.0 - e ** 2)
                np.add.at(grads[f"emb/{name}/U"], idx.ravel(), de.reshape(-1, dim))
                grads[f"emb/{name}/b"] += de.sum(axis=(0, 1))
                offset += dim
        return grads

    def loss_and_grads(self, X, y, train=False, rng=None) -> tuple[float, dict]:
        probs, cache = self.forward(X, train=train, rng=rng)
        return self.loss(probs, y), self.backward(cache, y)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


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


def load_checkpoint(path) -> tuple[Model, dict]:
    with open(path, "rb") as fh:
        if fh.read(4) != _CKPT_MAGIC:
            raise NetError("not a checkpoint file")
        version, hlen = struct.unpack("<II", fh.read(8))
        if version != _CKPT_VERSION:
            raise NetError(f"unsupported checkpoint version {version}")
        header = json.loads(fh.read(hlen).decode("utf-8"))
        params = {}
        for spec in header["tensors"]:
            shape = tuple(spec["shape"])
            count = int(np.prod(shape)) if shape else 1
            params[spec["name"]] = np.frombuffer(fh.read(count * 8),
                                                 dtype=np.float64).reshape(shape).copy()
    cfg = ModelConfig.from_dict(header["config"])
    return Model(cfg, params=params), header.get("extras", {})
