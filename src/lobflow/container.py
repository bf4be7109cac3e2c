"""The one binary layout of `.ds` datasets and `.ckpt` checkpoints.

A file is a `<4sII` prefix (magic, version, header length), the header
and the arrays back to back.  The header is a UTF-8 JSON object, which
holds the caller's fields under "fields" and each array's
[name, dtype, shape] under "arrays", in file order, followed by the 64
hex characters of the SHA-256 of every other byte of the file.
:func:`read` checks the prefix, the header, the exact file size and the
digest before it returns any array, so a truncated, extended or altered
file raises the caller's error type instead of loading.  What the
fields and arrays mean is the caller's to check.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np

from .atomic import atomic_open

# one version for both formats, raised whenever either layout changes
VERSION = 4
_PREFIX = struct.Struct("<4sII")   # magic, version, header length
_HEX = 64                          # hex characters of the digest ending the header
_DTYPES = ("<f8", "<i8", "|u1")    # the dtypes the two formats store


def _head(magic: bytes, fields: dict, arrays: dict) -> tuple[bytes, str]:
    """The prefix and header of the file of `fields` and `arrays`, and
    the hex digest that ends the header."""
    specs = [[name, a.dtype.str, list(a.shape)] for name, a in arrays.items()]
    blob = json.dumps({"fields": fields, "arrays": specs}, sort_keys=True).encode("utf-8")
    head = _PREFIX.pack(magic, VERSION, len(blob) + _HEX) + blob
    digest = hashlib.sha256(head)
    for a in arrays.values():
        digest.update(a)
    return head, digest.hexdigest()


def digest(magic: bytes, fields: dict, arrays: dict) -> str:
    """The hex digest :func:`write` would put in the header of this
    file, without writing it."""
    return _head(magic, fields, arrays)[1]


def write(path, magic: bytes, fields: dict, arrays: dict) -> str:
    """Write `fields` and the C-contiguous `arrays` (name -> array, in
    file order) and return the hex digest that ends the header.  The
    file appears at `path` only once it is complete."""
    head, hexdigest = _head(magic, fields, arrays)
    with atomic_open(path, "wb") as fh:
        fh.write(head + hexdigest.encode("ascii"))
        for a in arrays.values():
            fh.write(a)
    return hexdigest


def read(path, magic: bytes, error: type) -> tuple[dict, dict]:
    """(fields, {name: array}) of a file :func:`write` made with `magic`;
    any check that fails raises `error`."""
    data = Path(path).read_bytes()
    if len(data) < _PREFIX.size or data[:4] != magic:
        raise error(f"{path}: bad magic {data[:4]!r}, expected {magic!r}")
    _, version, hlen = _PREFIX.unpack_from(data)
    if version != VERSION:
        hint = " (an older lobflow wrote it; rebuild it)" if version < VERSION else ""
        raise error(f"{path}: unsupported format version {version}{hint}")
    start = _PREFIX.size + hlen   # of the arrays
    if hlen < _HEX or len(data) < start:
        raise error(f"{path}: {len(data)} bytes, header declares at least {start}")
    try:
        header = json.loads(data[_PREFIX.size:start - _HEX].decode("utf-8"))
        fields = header["fields"]
        specs = [(str(name), dtype, shape) for name, dtype, shape in header["arrays"]]
    except (ValueError, KeyError, TypeError, RecursionError) as e:
        raise error(f"{path}: bad header: {e}") from e
    if not isinstance(fields, dict):
        raise error(f"{path}: bad header: fields must be a JSON object")
    sizes = []
    for name, dtype, shape in specs:
        if dtype not in _DTYPES:
            raise error(f"{path}: array {name!r} has dtype {dtype!r}, not one of {_DTYPES}")
        if type(shape) is not list or not all(type(n) is int and n >= 0 for n in shape):
            raise error(f"{path}: array {name!r} has shape {shape!r}, "
                        "not a list of non-negative integers")
        sizes.append(math.prod(shape) * np.dtype(dtype).itemsize)
    if len(data) != start + sum(sizes):
        raise error(f"{path}: {len(data)} bytes, header declares {start + sum(sizes)}")
    view = memoryview(data)
    digest = hashlib.sha256(view[:start - _HEX])
    digest.update(view[start:])
    if digest.hexdigest().encode("ascii") != data[start - _HEX:start]:
        raise error(f"{path}: contents do not match the header's SHA-256 digest")
    arrays, offset = {}, start
    for (name, dtype, shape), size in zip(specs, sizes):
        arrays[name] = np.frombuffer(data, dtype, size // np.dtype(dtype).itemsize,
                                     offset).reshape(shape).copy()
        offset += size
    return fields, arrays
