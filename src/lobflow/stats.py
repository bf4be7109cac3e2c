"""Evaluation metrics and the stationarity / universality analyses.

Matthews correlation coefficient, daily grouping of predictions, OLS
slope regression of daily MCC with two-sided p-values, paired t-tests,
cross-asset percentage MCC drops, and daily market aggregates (trade
volume, 1-day lagged mid-price change).

All operations are pure over immutable inputs.  scipy.special is
imported inside :func:`t_sf_two_sided`, the one function that calls it,
so a process that computes no p-value never loads scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Iterable, Optional

import numpy as np


class StatsError(Exception):
    pass


class EmptyMatrix(StatsError):
    pass


class InvalidDf(StatsError):
    pass


class DateMismatch(StatsError):
    pass


class DegenerateX(StatsError):
    pass


class NonPositiveBase(StatsError):
    pass


class DateOutOfRange(StatsError):
    pass


# ---------------------------------------------------------------------------
# MCC
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


def confusion(y: np.ndarray, yhat: np.ndarray) -> ConfusionMatrix:
    y = np.asarray(y)
    yhat = np.asarray(yhat)
    return ConfusionMatrix(
        tp=int(np.sum((y == 1) & (yhat == 1))),
        tn=int(np.sum((y == 0) & (yhat == 0))),
        fp=int(np.sum((y == 0) & (yhat == 1))),
        fn=int(np.sum((y == 1) & (yhat == 0))),
    )


def mcc(cm: ConfusionMatrix) -> float:
    """(tp*tn - fp*fn) / sqrt((tp+fp)(tp+fn)(tn+fp)(tn+fn)); 0 when any
    denominator factor is 0 (random-classifier convention)."""
    if cm.total == 0:
        raise EmptyMatrix("confusion matrix is empty")
    tp, tn, fp, fn = cm.tp, cm.tn, cm.fp, cm.fn
    denom = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    if denom == 0:
        return 0.0
    return (tp * tn - fp * fn) / math.sqrt(denom)


# ---------------------------------------------------------------------------
# Daily series
# ---------------------------------------------------------------------------


_DAY_MS = 86_400_000


def utc_date(timestamp_ms: int) -> str:
    try:
        when = datetime.fromtimestamp(timestamp_ms / 1000.0, tz=timezone.utc)
    except (ValueError, OverflowError, OSError) as e:
        raise DateOutOfRange(f"timestamp {timestamp_ms} ms has no UTC date in years "
                             f"1-9999: {e}") from e
    return when.strftime("%Y-%m-%d")


@dataclass
class DailySeries:
    dates: list            # ISO date strings, strictly increasing
    values: list           # floats
    flags: dict = field(default_factory=dict)   # date -> note (e.g. "degenerate")

    def __post_init__(self):
        if any(a >= b for a, b in zip(self.dates, self.dates[1:])):
            raise StatsError("dates must be strictly increasing")

    def __len__(self) -> int:
        return len(self.dates)


def daily_mcc(predictions: Iterable[tuple]) -> DailySeries:
    """Group (timestamp_ms, y, yhat) triples by UTC date; MCC per date.

    Dates whose confusion matrix has a zero denominator emit 0 with a
    degenerate flag.
    """
    preds = list(predictions)
    if not preds:
        raise StatsError("no predictions")
    by_date: dict[str, list] = {}
    for ts, y, yhat in preds:
        by_date.setdefault(utc_date(ts), []).append((y, yhat))
    dates = sorted(by_date)
    values, flags = [], {}
    for d in dates:
        ys = np.array([p[0] for p in by_date[d]])
        yh = np.array([p[1] for p in by_date[d]])
        cm = confusion(ys, yh)
        tp, tn, fp, fn = cm.tp, cm.tn, cm.fp, cm.fn
        if (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn) == 0:
            flags[d] = "degenerate"
        values.append(mcc(cm))
    return DailySeries(dates, values, flags=flags)


# ---------------------------------------------------------------------------
# Student t distribution
# ---------------------------------------------------------------------------


def t_sf_two_sided(t: float, df: int) -> float:
    """P(|T| >= |t|), the regularized incomplete beta I_x(df/2, 1/2) at
    x = df / (df + t^2); while x > 1/2 it is taken as the complement
    I_{1-x}(1/2, df/2), so that no p loses digits to 1 - (1 - p)."""
    if df < 1:
        raise InvalidDf(f"df must be >= 1, got {df}")
    from scipy.special import betainc, betaincc
    t2 = t * t
    if t2 < df:
        return float(betaincc(0.5, df / 2.0, t2 / (df + t2)))
    return float(betainc(df / 2.0, 0.5, df / (df + t2)))


# ---------------------------------------------------------------------------
# Slope regression (stationarity)
# ---------------------------------------------------------------------------


@dataclass
class RegressionResult:
    slope: float
    slope_se: float
    t_stat: float
    p_value: float
    n: int
    zero_residual: bool = False


_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


def _day_index(dates: list) -> np.ndarray:
    days = [(datetime.strptime(d, "%Y-%m-%d").replace(tzinfo=timezone.utc) - _EPOCH).days
            for d in dates]
    d0 = days[0]
    return np.array([d - d0 for d in days], dtype=float)


def slope_regression(series: DailySeries) -> RegressionResult:
    """OLS of the series values on the integer day index.

    Standard error uses residual variance with n-2 degrees of freedom;
    the p-value is two-sided.  An exact linear fit is flagged
    (zero_residual) with p = 0 for a nonzero slope, p = 1 otherwise.
    """
    n = len(series)
    if n < 3:
        raise StatsError(f"need >= 3 points, got {n}")
    x = _day_index(series.dates)
    if np.ptp(x) == 0:
        raise DegenerateX("all observations on the same date")
    y = np.asarray(series.values, dtype=float)
    xbar, ybar = x.mean(), y.mean()
    sxx = np.sum((x - xbar) ** 2)
    slope = np.sum((x - xbar) * (y - ybar)) / sxx
    intercept = ybar - slope * xbar
    resid = y - (intercept + slope * x)
    ss_res = float(np.sum(resid ** 2))
    scale = max(float(np.sum(y ** 2)), 1.0)
    if ss_res <= 1e-24 * scale:
        p = 1.0 if slope == 0.0 else 0.0
        t = 0.0 if slope == 0.0 else math.inf * np.sign(slope)
        return RegressionResult(float(slope), 0.0, float(t), p, n,
                                zero_residual=True)
    se = math.sqrt(ss_res / (n - 2) / sxx)
    t = slope / se
    return RegressionResult(float(slope), float(se), float(t),
                            t_sf_two_sided(t, n - 2), n)


# ---------------------------------------------------------------------------
# Paired t-test
# ---------------------------------------------------------------------------


@dataclass
class PairedTestResult:
    t_stat: float
    df: int
    p_value: float
    mean_diff: float
    zero_variance: bool = False


def paired_t_test(a: DailySeries, b: DailySeries) -> PairedTestResult:
    """Two-sided paired t-test on per-date differences a - b."""
    if a.dates != b.dates:
        raise DateMismatch("series cover different date sets")
    n = len(a)
    if n < 2:
        raise StatsError("need >= 2 paired observations")
    d = np.asarray(a.values, dtype=float) - np.asarray(b.values, dtype=float)
    mean = float(d.mean())
    var = float(np.sum((d - mean) ** 2) / (n - 1))
    if var == 0.0:
        p = 1.0 if mean == 0.0 else 0.0
        t = 0.0 if mean == 0.0 else math.inf * np.sign(mean)
        return PairedTestResult(float(t), n - 1, p, mean, zero_variance=True)
    t = mean / math.sqrt(var / n)
    return PairedTestResult(float(t), n - 1, t_sf_two_sided(t, n - 1), mean)


# ---------------------------------------------------------------------------
# Universality drop
# ---------------------------------------------------------------------------


def universality_drop(mcc_same: float, mcc_cross: float) -> float:
    """Percentage drop in test MCC when transferring across pairs."""
    if mcc_same <= 0:
        raise NonPositiveBase(f"same-pair MCC must be > 0, got {mcc_same}")
    return 100.0 * (mcc_same - mcc_cross) / mcc_same


# ---------------------------------------------------------------------------
# Daily market aggregates (trade volume, lagged mid change)
# ---------------------------------------------------------------------------


def daily_market_aggregates(events) -> tuple[DailySeries, DailySeries]:
    """Replay a stream; per UTC date return summed executed size and the
    difference between the day's last mid and the previous day's last mid."""
    from . import lob

    book = lob.OrderBook()
    apply_event, mid2_of = book.apply_event, book.mid2
    volume: dict[str, float] = {}
    last_mid2: dict[str, Optional[int]] = {}
    day = d = None
    # date d's running volume and last defined doubled mid, kept in locals
    # and stored when the date changes
    vol, mid2 = 0.0, None
    for ev in events:
        executed = apply_event(ev)
        if ev.timestamp_ms // _DAY_MS != day:   # the date changes only with the day
            if d is not None:
                volume[d], last_mid2[d] = vol, mid2
            day, d = ev.timestamp_ms // _DAY_MS, utc_date(ev.timestamp_ms)
            vol, mid2 = volume.get(d, 0.0), last_mid2.get(d)
        vol += executed
        mid2 = mid2_of() or mid2   # a mid is positive: `or` keeps the last defined one
    if d is not None:
        volume[d], last_mid2[d] = vol, mid2
    last_mid = {d: m / 2 for d, m in last_mid2.items() if m is not None}
    dates = sorted(volume)
    vol_series = DailySeries(dates, [volume[d] for d in dates])
    mid_dates = sorted(last_mid)
    diffs, diff_dates = [], []
    for prev, cur in zip(mid_dates, mid_dates[1:]):
        diff_dates.append(cur)
        diffs.append(last_mid[cur] - last_mid[prev])
    return vol_series, DailySeries(diff_dates, diffs)
