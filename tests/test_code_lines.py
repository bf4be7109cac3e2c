"""`tools/code_lines.py`, the code-line count that simplicity changes report."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "code_lines", Path(__file__).resolve().parents[1] / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

_SOURCE = '''"""Module docstring,
over two lines."""

import os   # a comment after code: the line counts

# a comment-only line


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        text = """a string
that is not a docstring"""
        return text


async def g():
    """Coroutine docstring."""
    "a string statement after the first: code"
'''


def test_docstrings_comments_and_blank_lines_are_not_code():
    # import, class, def f, the two lines of `text`, return, async def, the string
    assert code_lines.code_lines(_SOURCE) == 8


def test_a_multiline_string_counts_every_line():
    assert code_lines.code_lines('x = """1\n2\n\n4"""\n') == 4


def test_main_prints_each_module_then_the_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text(_SOURCE)
    (tmp_path / "a.py").write_text("x = 1\n\ny = 2\n")
    assert code_lines.main(["code_lines.py", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == ["     2 a", "     8 b", "    10 total"]
