"""The value checks of run settings, each written once.

The config dataclasses (`feed.GeneratorConfig`, `net.ModelConfig`,
`net.TrainSchedule`), the CLI and the readers of `.ds`, `.ckpt` and
prediction files call these with their own error type.  A message
starts with the setting's name.  `bool` is never a number here,
although Python counts it as one.
"""

from __future__ import annotations

import math
import numbers
import re

_INT64_END = 2 ** 63
# a pair name becomes a file stem, a CSV cell, a `# key=value` line and SVG text
_PAIR_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*")


def integer(value, name: str, error: type, lo: int = -_INT64_END,
            hi: int = _INT64_END - 1) -> None:
    """`value` must be an int in [lo, hi]; the default range is int64's."""
    if type(value) is not int or value < lo:
        bound = f" >= {lo}" if lo > -_INT64_END else ""
        raise error(f"{name} must be an integer{bound}, got {value!r}")
    if value > hi:
        limit = "below 2**63" if hi == _INT64_END - 1 else f"at most {hi}"
        raise error(f"{name} must be {limit}, got {value!r}")


def number(value, name: str, error: type, lo: float = -math.inf, hi: float = math.inf,
           lo_open: bool = False) -> None:
    """`value` must be a finite real in [lo, hi), or in (lo, hi) with `lo_open`."""
    try:
        real = isinstance(value, numbers.Real) and not isinstance(value, bool)
        v = float(value) if real else math.nan
    except OverflowError:   # an int too large for a float
        v = math.nan
    if not (math.isfinite(v) and v < hi and (v > lo if lo_open else v >= lo)):
        bound = f" {'>' if lo_open else '>='} {lo}" if lo > -math.inf else ""
        if hi < math.inf:
            bound += f"{' and' if bound else ''} < {hi}"
        raise error(f"{name} must be a finite number{bound}, got {value!r}")


def pair_name(value, name: str, error: type) -> None:
    """`value` must be a pair name: a str of ASCII letters, digits, `_`,
    `.` and `-` that starts with a letter or digit."""
    if type(value) is not str or not _PAIR_NAME.fullmatch(value):
        raise error(f"{name} {value!r} must match {_PAIR_NAME.pattern}")
