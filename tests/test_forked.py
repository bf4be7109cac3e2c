"""The channel contract of a bare `forked.Worker`: replies, the worker's
exceptions, a worker that is gone, and the join."""

from __future__ import annotations

import ast
import errno
import os
import signal
import subprocess
import sys
from multiprocessing.connection import Connection
from pathlib import Path

import pytest

from conftest import _failing_forks, _has_children, _join_within, _open_fds
from lobflow import forked

# every test here forks, or tries to
pytestmark = pytest.mark.usefixtures("no_leaked_fds")

# the real affinity call, for worker bodies run while a test patches it
_affinity = os.sched_getaffinity


class Gone(Exception):
    """The caller's error for a worker that is gone."""


def _exited(e):
    return Gone("the worker exited" if e is None else f"the worker exited: {e}")


def _echo(conn, scale):
    """Reply to each message with the message times `scale`, until None."""
    while (msg := conn.recv()) is not None:
        conn.send(msg * scale)


class TestChannel:
    def test_replies_come_back_in_order(self):
        with forked.Worker(_echo, 3, exited=_exited) as worker:
            for x in (1, 2.5, "ab"):
                worker.send(x)
                assert worker.recv() == x * 3
            worker.send(None)
        assert worker.exitcode == 0
        assert not _has_children()

    @pytest.mark.parametrize("error", [KeyError("k"), ZeroDivisionError("zero"), OSError(5, "io"),
                                       EOFError("eof")])
    def test_body_exception_raised_by_recv_with_its_type(self, error):
        def body(conn):
            conn.send("first")
            raise error

        with forked.Worker(body, exited=_exited) as worker:
            assert worker.recv() == "first"   # what was sent before still comes first
            with pytest.raises(type(error)) as caught:
                worker.recv()
        assert type(caught.value) is type(error) and caught.value.args == error.args
        assert not _has_children()

    def test_dead_worker_is_the_callers_error(self):
        with forked.Worker(lambda conn: os._exit(3), exited=_exited) as worker:
            with pytest.raises(Gone, match="^the worker exited$") as caught:
                worker.recv()
        assert not isinstance(caught.value, EOFError)
        assert isinstance(caught.value.__cause__, (EOFError, OSError))
        assert not _has_children()

    def test_send_to_a_dead_worker_is_the_callers_error(self):
        with forked.Worker(lambda conn: os._exit(3), exited=_exited) as worker:
            _join_within(worker)
            with pytest.raises(Gone, match="^the worker exited: ") as caught:
                worker.send("late")
        assert isinstance(caught.value.__cause__, OSError)
        assert not _has_children()

    def test_worker_exits_when_its_caller_closes_its_end(self):
        worker = forked.Worker(_echo, 2, exited=_exited)
        worker.conn.close()
        _join_within(worker)
        assert worker.exitcode == 0
        assert not _has_children()

    def test_raising_block_terminates_the_worker(self):
        def waiting(conn):
            conn.recv()

        with pytest.raises(RuntimeError, match="caller failed"):
            with forked.Worker(waiting, exited=_exited) as worker:
                raise RuntimeError("caller failed")
        assert worker.exitcode == -signal.SIGTERM
        assert not _has_children()


def _reply_mask(conn):
    conn.send(_affinity(0))


class TestPlacement:
    """The worker runs on its caller's affinity mask less the CPU the
    caller was on at the fork, or unpinned where that cannot be done."""

    def _worker_mask(self) -> set:
        with forked.Worker(_reply_mask, exited=_exited) as worker:
            return worker.recv()

    def test_worker_runs_off_its_callers_cpu(self):
        mask = _affinity(0)
        if len(mask) < 2:
            pytest.skip("needs an affinity mask of two CPUs or more")
        got = self._worker_mask()
        assert got < mask and len(mask - got) == 1
        assert _affinity(0) == mask   # the caller's own mask is not changed

    def test_mask_of_cpus_the_machine_lacks_leaves_the_worker_unpinned(self, monkeypatch):
        mask = _affinity(0)
        far = max(mask) + 4096
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {far, far + 1})
        assert self._worker_mask() == mask

    def test_one_cpu_mask_pins_nothing(self, monkeypatch):
        mask = _affinity(0)
        for cpu in sorted(mask)[:2]:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {cpu})
            assert self._worker_mask() == mask

    def test_unreadable_proc_pins_nothing(self, monkeypatch):
        def unreadable(*args, **kwargs):
            raise PermissionError(errno.EACCES, "no /proc")

        assert forked._cpu() in _affinity(0)
        monkeypatch.setattr(forked, "open", unreadable, raising=False)
        assert forked._cpu() is None
        assert self._worker_mask() == _affinity(0)


@pytest.mark.parametrize("code", [errno.EAGAIN, errno.ENOMEM])
def test_failed_fork_raises_and_leaves_no_pipe(monkeypatch, code):
    closed, close = [], Connection.close
    monkeypatch.setattr(Connection, "close", lambda self: closed.append(1) or close(self))
    _failing_forks(monkeypatch, code)
    with pytest.raises(OSError) as caught:
        forked.Worker(_echo, 2, exited=_exited)
    assert caught.value.errno == code
    assert closed == [1, 1]   # both ends of the pipe
    assert not _has_children()


def test_failed_starts_leave_no_open_descriptor(monkeypatch):
    # the pipe is the one thing a start opens, and a failed start closes it
    _failing_forks(monkeypatch, errno.EAGAIN)
    before = _open_fds()
    for _ in range(3):
        with pytest.raises(OSError):
            forked.Worker(_echo, 2, exited=_exited)
    assert _open_fds() == before


def test_file_passes_under_dev_mode():
    # `-X dev` reports what the tests here leave for the cycle collector
    # to free, such as a buffer whose view is still exported
    this = Path(__file__)
    proc = subprocess.run([sys.executable, "-X", "dev", "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "-W", "error::pytest.PytestUnraisableExceptionWarning",
                           "-k", "not test_file_passes_under_dev_mode", str(this)],
                          cwd=this.parent.parent, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:]


def _imports(path: Path) -> set:
    """The dotted names of the modules that `path` imports anywhere in it,
    a relative import resolved in `lobflow`; `from m import a` gives both
    `m` and `m.a`."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["lobflow" if node.level else None, node.module]))
            names.add(base)
            names.update(f"{base}.{a.name}" for a in node.names)
    return names


def _importers() -> dict:
    """Each lobflow module's file name -> the top-level names it imports."""
    modules = sorted(Path(forked.__file__).parent.glob("*.py"))
    assert len(modules) > 5
    return {p.name: {n.split(".")[0] for n in _imports(p)} for p in modules}


def test_only_forked_imports_multiprocessing_and_none_pickle():
    # process plumbing lives in one module; every pipe message goes
    # through its channel
    imports = _importers()
    assert [n for n, i in imports.items() if "multiprocessing" in i] == ["forked.py"]
    assert [n for n, i in imports.items() if "pickle" in i] == []


def test_only_shards_maps_memory_and_net_forks_nothing():
    # the second process of train and predict, its shared mapping and its
    # BLAS pin live in shards; net keeps the model and the train loop
    imports = _importers()
    for name in ("mmap", "ctypes"):
        assert [n for n, i in imports.items() if name in i] == ["shards.py"], name
    net = _imports(Path(forked.__file__).with_name("net.py"))
    assert not net & {"mmap", "ctypes", "multiprocessing", "lobflow.forked"}
    assert "lobflow.shards" in net   # train opens its Shards inside the function
