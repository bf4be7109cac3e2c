"""Crash-safe output: write beside the target, then rename into place."""

from __future__ import annotations

import contextlib
import os
from pathlib import Path


@contextlib.contextmanager
def atomic_open(path, mode: str = "w", encoding: str | None = None):
    """Open a temp file in `path`'s directory for writing; on a clean exit
    `os.replace` it onto `path`, on any exception delete it.  An interrupted
    writer leaves `path` as it was, never a shorter file.  (No fsync: this
    guards against a failed or killed process, not against power loss.)"""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, encoding=encoding) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
