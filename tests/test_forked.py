"""The channel contract of a bare `forked.Worker`: replies, the worker's
exceptions, a worker that is gone, and the join."""

from __future__ import annotations

import ast
import multiprocessing
import os
from pathlib import Path

import pytest

from lobflow import forked


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
        assert worker.proc.exitcode == 0
        assert multiprocessing.active_children() == []

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
        assert multiprocessing.active_children() == []

    def test_dead_worker_is_the_callers_error(self):
        with forked.Worker(lambda conn: os._exit(3), exited=_exited) as worker:
            with pytest.raises(Gone, match="^the worker exited$") as caught:
                worker.recv()
        assert not isinstance(caught.value, EOFError)
        assert isinstance(caught.value.__cause__, (EOFError, OSError))
        assert multiprocessing.active_children() == []

    def test_send_to_a_dead_worker_is_the_callers_error(self):
        with forked.Worker(lambda conn: os._exit(3), exited=_exited) as worker:
            worker.proc.join()
            with pytest.raises(Gone, match="^the worker exited: ") as caught:
                worker.send("late")
        assert isinstance(caught.value.__cause__, OSError)
        assert multiprocessing.active_children() == []

    def test_worker_exits_when_its_caller_closes_its_end(self):
        worker = forked.Worker(_echo, 2, exited=_exited)
        worker.conn.close()
        worker.proc.join(timeout=60)
        assert worker.proc.exitcode == 0
        assert multiprocessing.active_children() == []

    def test_raising_block_terminates_the_worker(self):
        def waiting(conn):
            conn.recv()

        with pytest.raises(RuntimeError, match="caller failed"):
            with forked.Worker(waiting, exited=_exited) as worker:
                raise RuntimeError("caller failed")
        assert not worker.proc.is_alive()
        assert multiprocessing.active_children() == []


def _imports(path: Path) -> set:
    """The top-level names of the modules that `path` imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_only_forked_imports_multiprocessing_and_none_pickle():
    # process plumbing lives in one module; every pipe message goes
    # through its channel
    modules = sorted(Path(forked.__file__).parent.glob("*.py"))
    assert len(modules) > 5
    imports = {p.name: _imports(p) for p in modules}
    assert [n for n, i in imports.items() if "multiprocessing" in i] == ["forked.py"]
    assert [n for n, i in imports.items() if "pickle" in i] == []
