"""Crash-safe output: a stage's files land together or not at all.

`stage()` opens a stage; `lobflow.cli.main` runs each command in one.
While it is open, each `atomic_open` writes a hidden temp file in the
nearest existing ancestor of its target and hands it to the stage when
the writer returns.  When the stage returns, it makes the targets' missing
directories and renames every temp file onto its target, in the order the
targets were first written, so a report written last lands last.  When
anything escapes the stage (an error, `KeyboardInterrupt`), it deletes
every temp file, so a failed stage leaves each target, and every
directory, as it was.  A target written twice keeps the later write; a
writer that raises deletes its own temp file at once, so a caller that
catches the error commits nothing partial.  Outside a stage, each
`atomic_open` is a stage of one file.

The renames are not one atomic step: a process killed among them leaves
some targets new and some old.  No fsync: this guards against a failed or
killed process, not against power loss.  A forked worker inherits an open
stage but ends with `os._exit`, so it neither commits nor deletes it.
"""

from __future__ import annotations

import contextlib
import itertools
import os
from pathlib import Path

_pending: dict[Path, Path] | None = None   # the open stage's target -> temp file
_serial = itertools.count()   # temp names stay distinct when targets share a name


@contextlib.contextmanager
def stage():
    """Commit every `atomic_open` inside it on return, discard them on an
    exception.  A stage opened inside another joins it."""
    global _pending
    if _pending is not None:
        yield
        return
    _pending = {}
    try:
        yield
        for path, tmp in _pending.items():
            path.parent.mkdir(parents=True, exist_ok=True)
            os.replace(tmp, path)
    finally:
        pending, _pending = _pending, None
        for tmp in pending.values():
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)


@contextlib.contextmanager
def atomic_open(path, mode: str = "w", encoding: str | None = None):
    """Open a temp file for writing `path` and hand it to the open stage
    when the block returns; on an exception delete it."""
    path = Path(os.path.abspath(path))   # one key per target, whatever the cwd
    with stage():
        # a file where a directory should be fails the open, not the commit
        parent = next(p for p in path.parents if p.exists())
        tmp = parent / f".{path.name}.{os.getpid()}.{next(_serial)}.tmp"
        try:
            with open(tmp, mode, encoding=encoding) as fh:
                yield fh
        except BaseException:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
            raise
        if path in _pending:
            os.unlink(_pending[path])
        _pending[path] = tmp   # keeps `path`'s first place in the order
