"""Corruption of `.ds` and `.ckpt` files: every cut, extension and
single-bit flip must raise the format's typed error, never load, and an
interrupted write must leave the old file."""

import json
import struct

import numpy as np
import pytest

from lobflow import features, net
from lobflow.atomic import atomic_open
from lobflow.net import Model, ModelConfig


def _small_dataset(planted_events):
    ds = features.build_datasets(planted_events[:400], T=5, S=2, warm_count=40,
                                 variants=("orderflow",))["orderflow"]
    t = ds.event_time
    a, b, c, d = int(t[0]), int(t[len(t) // 2]), int(t[3 * len(t) // 4]), int(t[-1]) + 1
    features.split_by_date(ds, (a, b), (b, c), (c, d))
    features.compute_norm_stats(ds)
    return ds


def _small_model():
    cfg = ModelConfig(variant="orderflow", S=2, layers=(3,), dense_hidden=(2,), dropout=0.0,
                      emb_dims={"kind": 2, "side": 2, "hour": 3},
                      norm_mean=[0.0] * 3, norm_sd=[1.0] * 3)
    return Model(cfg, seed=3)


@pytest.fixture(params=["ds", "ckpt"])
def saved(request, planted_events, tmp_path):
    """(path, bytes, load, error type, array byte ranges) of one saved file."""
    p = tmp_path / f"x.{request.param}"
    if request.param == "ds":
        features.save_dataset(_small_dataset(planted_events), p)
        load, error = features.load_dataset, features.FeatureError
    else:
        net.save_checkpoint(_small_model(), p, extras={"note": "x"})
        load, error = net.load_checkpoint, net.NetError
    data = p.read_bytes()
    _, _, hlen = struct.unpack_from("<4sII", data)
    offset, ranges = 12 + hlen, []
    for _, dtype, shape in json.loads(data[12:offset - 64])["arrays"]:
        size = int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize
        ranges.append((offset, offset + size))
        offset += size
    assert offset == len(data) and all(b > a for a, b in ranges)
    load(p)
    return p, data, load, error, 12 + hlen, ranges


def _rejected(p, blob, load, error):
    p.write_bytes(blob)
    with pytest.raises(error):
        load(p)


def test_cut_or_extended_file_is_rejected(saved):
    p, data, load, error, start, ranges = saved
    cuts = [0, 3, 4, 11, 12, start // 2, start - 64, start - 1]
    cuts += [c for a, b in ranges for c in (a, (a + b) // 2, b - 1)]
    for cut in cuts:
        _rejected(p, data[:cut], load, error)
    _rejected(p, data + b"\x00", load, error)


def test_flipped_bit_is_rejected(saved):
    p, data, load, error, start, ranges = saved
    offsets = list(range(start))   # every byte of the prefix and the header
    offsets += [o for a, b in ranges for o in (a, (a + b) // 2, b - 1)]
    for o in offsets:
        for bit in range(8) if o < start else (o % 8,):
            flipped = bytearray(data)
            flipped[o] ^= 1 << bit
            _rejected(p, bytes(flipped), load, error)


def test_interrupted_write_keeps_old_file(tmp_path):
    p = tmp_path / "x.ckpt"
    p.write_bytes(b"old")
    with pytest.raises(RuntimeError):
        with atomic_open(p, "wb") as fh:
            fh.write(b"partial")
            raise RuntimeError("killed mid-write")
    assert p.read_bytes() == b"old"
    assert list(tmp_path.iterdir()) == [p]
