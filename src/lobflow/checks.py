"""The value checks of run settings, each written once.

The config dataclasses (`feed.GeneratorConfig`, `net.ModelConfig`,
`net.TrainSchedule`), the CLI and the `.ds` loader call these with
their own error type.  A message starts with the setting's name.
`bool` is never a number here, although Python counts it as one.
"""

from __future__ import annotations

import math
import numbers

_INT64_END = 2 ** 63


def integer(value, name: str, error: type, lo: int = -_INT64_END) -> None:
    """`value` must be an int in [lo, 2**63), so that it fits int64."""
    if type(value) is not int or value < lo:
        bound = f" >= {lo}" if lo > -_INT64_END else ""
        raise error(f"{name} must be an integer{bound}, got {value!r}")
    if value >= _INT64_END:
        raise error(f"{name} must be below 2**63, got {value!r}")


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
