"""A worker process forked beside the caller, with one pipe between them.

`net` computes training shards and predict tails on one, and `feed`
parses a stream on one.  The lifecycle lives here once:

- The worker is forked, so it inherits the caller's memory and nothing
  it needs is pickled.
- It closes its inherited copy of the caller's end of the pipe.  A
  worker that waits on the pipe then reads EOF once the caller closes
  its end, or dies; a worker that writes gets EPIPE.  Either way it
  returns, so a SIGKILLed caller leaves no worker behind.
- It ignores SIGINT: the caller handles ^C and ends it.
- The caller ends it with :meth:`Worker.close`, or as a context manager
  on exit: the worker is terminated first if the block raised, then the
  caller's end is closed and the worker joined.
"""

from __future__ import annotations

import multiprocessing
import os
import signal


def spare_cpu() -> bool:
    """Whether the affinity mask holds a CPU for a worker beside the
    caller: two or more.  `taskset -c 0` leaves none."""
    return len(os.sched_getaffinity(0)) > 1


class Worker:
    """`target(conn, *args)` run in a process forked from the caller,
    where `conn` is the worker's end of a new pipe and `self.conn` the
    caller's.  With `duplex` False the pipe is one-way: the worker
    sends and the caller receives."""

    def __init__(self, target, *args, duplex: bool = True):
        ctx = multiprocessing.get_context("fork")
        # a one-way Pipe is (receive end, send end)
        self.conn, child = ctx.Pipe(duplex)
        self.proc = ctx.Process(target=_run, args=(self.conn, target, child, args), daemon=True)
        self.proc.start()
        child.close()

    def __enter__(self) -> "Worker":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(abort=exc_type is not None)

    def close(self, abort: bool = False) -> None:
        """End the worker and join it.  With `abort` it is terminated
        first: the work it may be doing is not needed."""
        if abort:
            self.proc.terminate()
        self.conn.close()
        self.proc.join()


def _run(parent_end, target, conn, args) -> None:
    """The worker's body: `target` until it returns or its pipe closes."""
    parent_end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        target(conn, *args)
    except (EOFError, OSError):   # the caller closed its end
        pass
