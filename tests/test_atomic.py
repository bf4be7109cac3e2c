"""`lobflow.atomic`: a stage's files land together when it returns, and
none of them, nor any directory, when it raises."""

import os

import pytest

from lobflow import atomic
from lobflow.atomic import atomic_open


def _write(path, text):
    with atomic_open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _names(root):
    return sorted(p.relative_to(root).as_posix() for p in root.rglob("*"))


def test_files_land_when_the_stage_returns_in_first_write_order(tmp_path, monkeypatch):
    renamed = []
    replace = os.replace
    monkeypatch.setattr(os, "replace", lambda src, dst: (renamed.append(dst), replace(src, dst)))
    with atomic.stage():
        _write(tmp_path / "a", "first")
        _write(tmp_path / "report", "last")
        _write(tmp_path / "a", "second")
        assert len(list(tmp_path.iterdir())) == 2   # two temp files, no target yet
        assert not (tmp_path / "a").exists()
    assert renamed == [tmp_path / "a", tmp_path / "report"]
    assert (tmp_path / "a").read_text() == "second"
    assert _names(tmp_path) == ["a", "report"]


def test_a_failed_stage_makes_no_file_and_no_directory(tmp_path):
    (tmp_path / "kept").write_text("old")
    with pytest.raises(KeyboardInterrupt):
        with atomic.stage():
            _write(tmp_path / "kept", "new")
            _write(tmp_path / "out" / "sub" / "x", "new")
            raise KeyboardInterrupt
    assert _names(tmp_path) == ["kept"]
    assert (tmp_path / "kept").read_text() == "old"
    _write(tmp_path / "y", "alone")   # the stage is closed: a stage of one file
    assert _names(tmp_path) == ["kept", "y"]


def test_missing_directories_are_made_at_commit(tmp_path):
    with atomic.stage():
        _write(tmp_path / "a" / "x", "1")
        _write(tmp_path / "b" / "x", "2")   # both temp files sit in tmp_path
        assert len(list(tmp_path.iterdir())) == 2
    assert [(tmp_path / d / "x").read_text() for d in "ab"] == ["1", "2"]


def test_a_writer_that_raises_deletes_its_own_temp_file(tmp_path):
    (tmp_path / "b").write_text("old")
    with atomic.stage():
        _write(tmp_path / "a", "new")
        with pytest.raises(OSError):
            with atomic_open(tmp_path / "b", "w", encoding="utf-8") as fh:
                fh.write("partial")
                raise OSError("disk full")
        assert len(list(tmp_path.iterdir())) == 2   # `b` and `a`'s temp file
    assert (tmp_path / "a").read_text() == "new"
    assert (tmp_path / "b").read_text() == "old"
    assert _names(tmp_path) == ["a", "b"]


def test_a_stage_inside_a_stage_joins_it(tmp_path):
    with pytest.raises(RuntimeError):
        with atomic.stage():
            with atomic.stage():
                _write(tmp_path / "a", "inner")
            assert not (tmp_path / "a").exists()
            raise RuntimeError
    assert _names(tmp_path) == []


def test_a_file_where_a_directory_should_be_fails_the_write(tmp_path):
    (tmp_path / "out").write_text("a file")
    with pytest.raises(NotADirectoryError):
        with atomic.stage():
            _write(tmp_path / "a", "1")
            _write(tmp_path / "out" / "x", "2")
    assert _names(tmp_path) == ["out"]
