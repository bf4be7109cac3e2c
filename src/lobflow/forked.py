"""A worker process forked beside the caller, and the one channel between them.

`shards` computes training shards and predict tails on one, and `feed`
parses a stream on one.  The lifecycle and the protocol live here once:

- The worker is forked, so it inherits the caller's memory and nothing
  it needs is pickled.
- The caller talks to it with :meth:`Worker.send` and :meth:`Worker.recv`
  over one duplex pipe; the worker's body gets its own end.
- An exception that escapes the worker's body is sent to the caller,
  and the worker exits; the caller's next `recv` raises it again, with
  its own type.
- A worker that is gone without a reply (its end closed, so the caller
  reads EOF or its write fails with EPIPE) raises the caller's own error,
  made by the `exited` the caller gives.
- The worker closes its inherited copy of the caller's end of the pipe.
  A worker that waits on the pipe then reads EOF once the caller closes
  its end, or dies; a worker that writes gets EPIPE.  Either way it
  returns, so a SIGKILLed caller leaves no worker behind.
- It runs off its caller's CPU: just before the fork the caller reads
  the CPU it is on, and the worker's first act is to take the caller's
  affinity mask less that CPU as its own, for its whole life.  An
  unpinned worker is woken onto its caller's CPU when the pipe wakes it,
  and the two then share one CPU while the other idles.  Where that
  leaves no CPU, `/proc` cannot be read or the kernel refuses the mask,
  the worker runs unpinned; the caller's own mask is never changed.
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
    where `conn` is the worker's end of a new pipe.  `exited(e)` makes the
    exception that :meth:`send` and :meth:`recv` raise when the worker is
    gone: `e` is the OSError that `send` met, or None where `recv` found
    no reply."""

    def __init__(self, target, *args, exited):
        ctx = multiprocessing.get_context("fork")
        self.exited = exited
        self.conn, child = ctx.Pipe()
        try:
            mask = os.sched_getaffinity(0)
            cpus = mask - {_cpu()} if len(mask) > 1 else set()
            self.proc = ctx.Process(target=_run, args=(self.conn, target, child, args, cpus),
                                    daemon=True)
            self.proc.start()
        except BaseException:   # no worker (EAGAIN under a pids limit, ENOMEM): no pipe either
            self.conn.close()
            raise
        finally:
            child.close()

    def __enter__(self) -> "Worker":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(abort=exc_type is not None)

    def send(self, msg) -> None:
        """Send `msg`, pickled, to the worker."""
        try:
            self.conn.send(msg)
        except OSError as e:
            # the cause goes without its traceback: its frames hold the
            # buffer that `Connection.send` pickled into beside a view
            # still exported from it, and the cycle collector may free
            # the buffer first, a BufferError that `python -X dev` reports
            raise self.exited(e) from e.with_traceback(None)

    def recv(self):
        """The worker's next message, or the exception its body raised,
        raised again here."""
        try:
            msg = self.conn.recv()
        except (EOFError, OSError) as e:
            raise self.exited(None) from e
        if isinstance(msg, Exception):
            raise msg
        return msg

    def close(self, abort: bool = False) -> None:
        """End the worker and join it.  With `abort` it is terminated
        first: the work it may be doing is not needed."""
        if abort:
            self.proc.terminate()
        self.conn.close()
        self.proc.join()


def _cpu() -> int | None:
    """The CPU this process runs on, field 39 of /proc/self/stat (Python's
    `os` has no sched_getcpu), or None where that file cannot be read."""
    try:
        with open("/proc/self/stat", "rb") as fh:
            stat = fh.read()
    except OSError:
        return None
    # field 2, the command name, is parenthesised and may hold spaces
    return int(stat[stat.rindex(b")") + 1:].split()[36])


def _run(parent_end, target, conn, args, cpus) -> None:
    """The worker's body: on `cpus` when there are any, `target` until it
    returns, raises or its pipe closes.  What it raises is sent to the
    caller; once the caller has closed its end that send fails too, and
    the worker just returns."""
    if cpus:
        try:
            os.sched_setaffinity(0, cpus)
        except OSError:   # a mask of CPUs this machine lacks: run unpinned
            pass
    parent_end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        target(conn, *args)
    except Exception as e:
        try:
            conn.send(e)
        except OSError:   # the caller closed its end
            pass
