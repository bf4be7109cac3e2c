import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lobflow import feed, lob, oracle, stats
from lobflow.stats import ConfusionMatrix, DailySeries

DAY_MS = 86_400_000
T0 = 1_510_000_000_000  # 2017-11-06


# ---------------------------------------------------------------------------
# MCC
# ---------------------------------------------------------------------------


class TestMcc:
    def test_perfect(self):
        assert stats.mcc(ConfusionMatrix(5, 5, 0, 0)) == 1.0

    def test_inverted(self):
        assert stats.mcc(ConfusionMatrix(0, 0, 5, 5)) == -1.0

    def test_random_balance_zero(self):
        assert stats.mcc(ConfusionMatrix(3, 3, 3, 3)) == 0.0

    def test_degenerate_denominator_zero(self):
        assert stats.mcc(ConfusionMatrix(4, 0, 0, 2)) == 0.0  # no negatives predicted/true

    def test_empty_raises(self):
        with pytest.raises(stats.EmptyMatrix):
            stats.mcc(ConfusionMatrix(0, 0, 0, 0))

    def test_confusion_counts(self):
        y = np.array([1, 1, 0, 0, 1])
        yhat = np.array([1, 0, 0, 1, 1])
        cm = stats.confusion(y, yhat)
        assert (cm.tp, cm.tn, cm.fp, cm.fn) == (2, 1, 1, 1)

    @given(st.tuples(*[st.integers(0, 40)] * 4))
    def test_matches_oracle(self, cm4):
        tp, tn, fp, fn = cm4
        if tp + tn + fp + fn == 0:
            return
        got = stats.mcc(ConfusionMatrix(tp, tn, fp, fn))
        assert abs(got - oracle.mcc_direct(tp, tn, fp, fn)) < 1e-12

    def test_bounded(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            tp, tn, fp, fn = rng.integers(0, 50, 4)
            if tp + tn + fp + fn == 0:
                continue
            v = stats.mcc(ConfusionMatrix(int(tp), int(tn), int(fp), int(fn)))
            assert -1.0 <= v <= 1.0


class TestDailyMcc:
    def test_single_day_equals_whole_set(self):
        rng = np.random.default_rng(1)
        preds = [(T0 + i, int(rng.integers(0, 2)), int(rng.integers(0, 2)))
                 for i in range(100)]
        series = stats.daily_mcc(preds)
        assert len(series) == 1
        whole = stats.mcc(stats.confusion(np.array([p[1] for p in preds]),
                                          np.array([p[2] for p in preds])))
        assert series.values[0] == whole

    def test_all_correct_day_scores_one(self):
        preds = ([(T0, 0, 1), (T0 + 1, 1, 0), (T0 + 2, 1, 1), (T0 + 3, 0, 0)]
                 + [(T0 + DAY_MS, y, y) for y in (0, 1, 0, 1)])
        series = stats.daily_mcc(preds)
        assert len(series) == 2
        assert series.values[1] == 1.0

    def test_degenerate_day_flagged(self):
        preds = [(T0, 1, 1), (T0 + 1, 1, 1)]   # no negatives at all
        series = stats.daily_mcc(preds)
        assert series.values == [0.0]
        assert series.flags[series.dates[0]] == "degenerate"

    def test_groupby_matches_manual_pass(self):
        rng = np.random.default_rng(7)
        preds = []
        for i in range(500):
            ts = T0 + int(rng.integers(0, 5)) * DAY_MS + int(rng.integers(0, DAY_MS))
            preds.append((ts, int(rng.integers(0, 2)), int(rng.integers(0, 2))))
        series = stats.daily_mcc(preds)
        # oracle: independent dict group-by, direct formula
        groups = {}
        for ts, y, yh in preds:
            groups.setdefault(stats.utc_date(ts), []).append((y, yh))
        assert series.dates == sorted(groups)
        for d, v in zip(series.dates, series.values):
            ys = np.array([g[0] for g in groups[d]])
            yh = np.array([g[1] for g in groups[d]])
            cm = stats.confusion(ys, yh)
            assert abs(v - oracle.mcc_direct(cm.tp, cm.tn, cm.fp, cm.fn)) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(stats.StatsError):
            stats.daily_mcc([])


class TestUtcDate:
    LAST_MS = 253_402_300_799_999   # 9999-12-31 23:59:59.999 UTC

    def test_last_representable_day(self):
        assert stats.utc_date(self.LAST_MS) == "9999-12-31"

    @pytest.mark.parametrize("ts", [LAST_MS + 1, 2**62, 2**63 - 1, -2**62, -2**63])
    def test_out_of_range_is_typed(self, ts):
        with pytest.raises(stats.DateOutOfRange, match=str(ts)):
            stats.utc_date(ts)

    def test_callers_raise_it(self, ev):
        with pytest.raises(stats.DateOutOfRange):
            stats.daily_mcc([(T0, 1, 1), (2**62, 0, 1)])
        with pytest.raises(stats.DateOutOfRange):
            stats.daily_market_aggregates([ev(ts=T0, seq=1), ev(ts=2**62, seq=2)])


# ---------------------------------------------------------------------------
# Student t two-sided p-value
# ---------------------------------------------------------------------------


class TestTwoSidedP:
    def test_zero_is_one(self):
        for df in (1, 2, 10, 100):
            assert stats.t_sf_two_sided(0.0, df) == 1.0

    def test_cauchy_closed_form(self):
        # df=1 is Cauchy: P(|T| >= t) = 1 - 2 arctan(|t|)/pi; at t=1 it is 1/2
        assert abs(stats.t_sf_two_sided(1.0, 1) - 0.5) < 1e-12
        for t in (-3.0, -0.5, 0.7, 2.5):
            want = 1.0 - 2.0 * math.atan(abs(t)) / math.pi
            assert abs(stats.t_sf_two_sided(t, 1) - want) < 1e-12

    def test_normal_limit(self):
        want = math.erfc(1.0 / math.sqrt(2))
        assert abs(stats.t_sf_two_sided(1.0, 10_000) - want) < 1e-4

    def test_symmetry(self):
        for df in (1, 4, 29):
            for t in (0.3, 1.7, 4.0):
                assert stats.t_sf_two_sided(t, df) == stats.t_sf_two_sided(-t, df)

    def test_monotone(self):
        ts = np.linspace(0, 6, 61)
        vals = [stats.t_sf_two_sided(float(t), 7) for t in ts]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_matches_quadrature(self):
        for df in (1, 2, 5, 30, 68):
            for t in (-2.4, -0.9, 0.4, 1.1, 3.3):
                want = 2.0 * (1.0 - oracle.t_cdf_quadrature(abs(t), df))
                assert abs(stats.t_sf_two_sided(t, df) - want) < 1e-10

    def test_invalid_df(self):
        with pytest.raises(stats.InvalidDf):
            stats.t_sf_two_sided(1.0, 0)

    def test_two_sided_p_matches_scipy(self):
        # relative precision also far in the tail (p < 1e-16), where
        # 2 * (1 - cdf) would be 0 or off by 1e-17 absolute
        from scipy.stats import t as student_t
        tiny = 0
        for df in (1, 2, 3, 7, 10, 30, 60, 200, 1000):
            for t in (0.05, 0.3, 1.0, 1.96, 3.5, 10.0, 12.0, 40.0, 300.0):
                want = 2.0 * student_t.sf(t, df)
                for sign in (1.0, -1.0):
                    got = stats.t_sf_two_sided(sign * t, df)
                    assert abs(got - want) <= 1e-12 * want, (t, df, got, want)
                tiny += want < 1e-16
        assert tiny >= 10
        assert stats.t_sf_two_sided(0.0, 5) == 1.0
        assert stats.t_sf_two_sided(math.inf, 5) == 0.0


# ---------------------------------------------------------------------------
# slope regression
# ---------------------------------------------------------------------------


def make_series(values, start=T0):
    dates = [stats.utc_date(start + i * DAY_MS) for i in range(len(values))]
    return DailySeries(dates, list(values))


class TestSlopeRegression:
    def test_constant_series(self):
        r = stats.slope_regression(make_series([0.4] * 10))
        assert r.slope == 0.0
        assert r.p_value == 1.0
        assert r.zero_residual

    def test_exact_line_flagged(self):
        r = stats.slope_regression(make_series([0.1 * i for i in range(6)]))
        assert abs(r.slope - 0.1) < 1e-12
        assert r.zero_residual
        assert r.p_value == 0.0

    def test_seventy_day_recovery(self):
        rng = np.random.default_rng(42)
        true_slope = -2e-3
        y = 0.5 + true_slope * np.arange(70) + rng.normal(0.0, 0.01, 70)
        r = stats.slope_regression(make_series(y))
        assert abs(r.slope - true_slope) <= 3 * r.slope_se
        # p-value agrees with the quadrature oracle
        slope, se, t, p = oracle.ols_direct(list(range(70)), list(y))
        assert abs(r.slope - slope) < 1e-12
        assert abs(r.slope_se - se) < 1e-12
        assert abs(r.p_value - p) < 1e-6

    def test_day_shift_invariance(self):
        rng = np.random.default_rng(3)
        y = rng.uniform(0.2, 0.6, 20)
        r1 = stats.slope_regression(make_series(y, start=T0))
        r2 = stats.slope_regression(make_series(y, start=T0 + 365 * DAY_MS))
        assert abs(r1.slope - r2.slope) < 1e-10
        assert abs(r1.p_value - r2.p_value) < 1e-10

    def test_gap_days_use_calendar_distance(self):
        dates = [stats.utc_date(T0), stats.utc_date(T0 + DAY_MS),
                 stats.utc_date(T0 + 10 * DAY_MS)]
        series = DailySeries(dates, [0.0, 1.0, 10.5])
        r = stats.slope_regression(series)
        slope, se, t, p = oracle.ols_direct([0, 1, 10], [0.0, 1.0, 10.5])
        assert abs(r.slope - slope) < 1e-12

    def test_too_few_points(self):
        with pytest.raises(stats.StatsError):
            stats.slope_regression(make_series([0.1, 0.2]))


# ---------------------------------------------------------------------------
# paired t-test
# ---------------------------------------------------------------------------


class TestPairedT:
    def test_identical_series(self):
        a = make_series([0.3, 0.5, 0.4])
        b = make_series([0.3, 0.5, 0.4])
        r = stats.paired_t_test(a, b)
        assert r.zero_variance and r.p_value == 1.0 and r.t_stat == 0.0

    def test_constant_offset(self):
        a = make_series([0.5, 0.75, 1.0])
        b = make_series([0.25, 0.5, 0.75])   # differences exactly 0.25
        r = stats.paired_t_test(a, b)
        assert r.zero_variance and r.p_value == 0.0
        assert r.mean_diff == 0.25

    def test_matches_quadrature_oracle(self):
        rng = np.random.default_rng(9)
        av = list(rng.uniform(0.2, 0.8, 25))
        bv = list(rng.uniform(0.2, 0.8, 25))
        r = stats.paired_t_test(make_series(av), make_series(bv))
        t, df, p = oracle.paired_t_direct(av, bv)
        assert abs(r.t_stat - t) < 1e-10
        assert r.df == df
        assert abs(r.p_value - p) < 1e-10

    def test_date_mismatch(self):
        a = make_series([0.1, 0.2, 0.3])
        b = make_series([0.1, 0.2, 0.3], start=T0 + DAY_MS)
        with pytest.raises(stats.DateMismatch):
            stats.paired_t_test(a, b)

    def test_antisymmetric(self):
        a = make_series([0.5, 0.7, 0.2, 0.9])
        b = make_series([0.4, 0.1, 0.6, 0.3])
        r1 = stats.paired_t_test(a, b)
        r2 = stats.paired_t_test(b, a)
        assert abs(r1.t_stat + r2.t_stat) < 1e-12
        assert abs(r1.p_value - r2.p_value) < 1e-12


# ---------------------------------------------------------------------------
# universality drop
# ---------------------------------------------------------------------------


class TestUniversalityDrop:
    def test_equal_is_zero(self):
        assert stats.universality_drop(0.5, 0.5) == 0.0

    def test_half_is_fifty(self):
        assert stats.universality_drop(0.6, 0.3) == pytest.approx(50.0)

    def test_negative_cross_exceeds_hundred(self):
        assert stats.universality_drop(0.5, -0.1) == pytest.approx(120.0)

    def test_non_positive_base(self):
        with pytest.raises(stats.NonPositiveBase):
            stats.universality_drop(0.0, 0.1)


# ---------------------------------------------------------------------------
# daily aggregates
# ---------------------------------------------------------------------------


class TestDailyAggregates:
    def test_volume_and_lagged_mid(self, planted_events):
        vol, diff = stats.daily_market_aggregates(planted_events)
        # oracle: second independent pass over a reference book
        ref = oracle.ReferenceBook()
        ovol, olast = {}, {}
        for e in planted_events:
            executed = ref.apply(e)
            d = stats.utc_date(e.timestamp_ms)
            ovol[d] = ovol.get(d, 0.0) + executed
            mid = ref.mid()
            if mid is not None:
                olast[d] = float(mid)
        assert vol.dates == sorted(ovol)
        for d, v in zip(vol.dates, vol.values):
            assert v == pytest.approx(ovol[d], abs=1e-9)
        mids = sorted(olast)
        assert diff.dates == mids[1:]
        for d, v, prev in zip(diff.dates, diff.values, mids):
            assert v == pytest.approx(olast[d] - olast[prev], abs=1e-9)

    def test_no_executions_zero_volume(self, ev):
        events = [ev(ts=T0, seq=1, price=100),
                  ev(ts=T0 + 1, seq=2, side=feed.Side.SELL, price=110)]
        vol, diff = stats.daily_market_aggregates(events)
        assert vol.values == [0.0]
        assert len(diff) == 0

    def test_two_day_mid_step(self, ev):
        events = [ev(ts=T0, seq=1, price=99),
                  ev(ts=T0 + 1, seq=2, side=feed.Side.SELL, price=101),
                  # next day: clear the old quotes, then requote 3 ticks higher
                  ev(ts=T0 + DAY_MS, seq=3, kind=feed.EventKind.CANCEL,
                     price=99, size=1.0, oid="o1"),
                  ev(ts=T0 + DAY_MS + 1, seq=4, kind=feed.EventKind.CANCEL,
                     side=feed.Side.SELL, price=101, size=1.0, oid="o2"),
                  ev(ts=T0 + DAY_MS + 2, seq=5, price=102),
                  ev(ts=T0 + DAY_MS + 3, seq=6, side=feed.Side.SELL, price=104)]
        vol, diff = stats.daily_market_aggregates(events)
        assert diff.values == [3.0]


def reference_daily_aggregates(events):
    """The per-event date loop (a `utc_date` call per event) that the
    per-day date cache replaced, with the mid taken from the bests."""
    book = lob.OrderBook()
    volume, last_mid = {}, {}
    for e in events:
        executed = book.apply_event(e).executed
        d = stats.utc_date(e.timestamp_ms)
        volume[d] = volume.get(d, 0.0) + executed
        bb, ba = book.best_bid(), book.best_ask()
        if bb is not None and ba is not None:
            last_mid[d] = float(Fraction(bb + ba, 2))
    dates = sorted(last_mid)
    return (sorted(volume), [volume[d] for d in sorted(volume)], dates[1:],
            [last_mid[b] - last_mid[a] for a, b in zip(dates, dates[1:])])


class TestDailyAggregatesDayBoundaries:
    D0 = 1_510_012_800_000  # 2017-11-07 00:00:00.000 UTC

    def boundary_events(self, ev):
        D0, S, M, C = self.D0, feed.Side.SELL, feed.EventKind.MARKET, feed.EventKind.CANCEL
        return [
            ev(ts=D0 - 5000, seq=1, price=99),
            ev(ts=D0 - 4000, seq=2, side=S, price=101),
            ev(ts=D0 - 1, seq=3, side=S, price=100),                     # 23:59:59.999, mid 99.5
            ev(ts=D0, seq=4, kind=M, size=0.25),                         # 00:00:00.000
            ev(ts=D0 + 1000, seq=5, kind=M, side=S, size=1.0),           # bid side empties
            ev(ts=D0 + 3_600_000, seq=6, price=98),                      # mid 99
            ev(ts=D0 + DAY_MS - 1, seq=7, kind=C, price=98, oid="o6"),   # bids empty at 23:59:59.999
            ev(ts=D0 + DAY_MS, seq=8, price=97),                         # mid 98.5
            ev(ts=D0 + DAY_MS + 10, seq=9, kind=M, size=2.0),            # asks empty, 0.25 dropped
            ev(ts=D0 + 3 * DAY_MS + 5, seq=10, side=S, price=102),       # a day with no events before
            ev(ts=D0 + 4 * DAY_MS - 1, seq=11, side=S, price=101),       # mid 99
        ]

    def test_boundary_stream(self, ev):
        events = self.boundary_events(ev)
        vol, chg = stats.daily_market_aggregates(events)
        assert vol.dates == ["2017-11-06", "2017-11-07", "2017-11-08", "2017-11-10"]
        assert vol.values == [0.0, 1.25, 1.75, 0.0]
        assert chg.dates == vol.dates[1:]
        assert chg.values == [-0.5, -0.5, 0.5]
        assert (vol.dates, vol.values, chg.dates, chg.values) == reference_daily_aggregates(events)

    def test_multi_day_noise_stream(self):
        cfg = feed.GeneratorConfig(n_events=4000, mean_gap_ms=400_000, start_ts=self.D0 - 60_000)
        events = list(feed.iter_events(feed.generate_synthetic(cfg, seed=3)))
        vol, chg = stats.daily_market_aggregates(events)
        assert len(vol) >= 10
        assert (vol.dates, vol.values, chg.dates, chg.values) == reference_daily_aggregates(events)


class TestDailySeries:
    def test_requires_increasing_dates(self):
        with pytest.raises(stats.StatsError):
            DailySeries(["2017-11-07", "2017-11-06"], [0.1, 0.2])
        with pytest.raises(stats.StatsError):
            DailySeries(["2017-11-06", "2017-11-06"], [0.1, 0.2])
