"""Tests for timeseries cleaning (paper section 2.2, data cleaning)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.timeseries import (
    fill_missing,
    is_stationary,
    linear_slope,
    observations_to_grid,
    trim_to_midnight,
)

ROUND = 660.0
DAY = 86400.0


class TestGrid:
    def test_aligned_observations_pass_through(self):
        times = np.arange(10) * ROUND
        values = np.arange(10.0)
        grid, stats = observations_to_grid(times, values, ROUND, 0.0, 10)
        assert np.array_equal(grid, values)
        assert stats.n_missing == 0
        assert stats.n_duplicates == 0

    def test_jittered_observations_snap_to_nearest_round(self):
        times = np.arange(10) * ROUND + np.linspace(-100, 100, 10)
        values = np.arange(10.0)
        grid, stats = observations_to_grid(times, values, ROUND, 0.0, 10)
        assert np.array_equal(grid, values)

    def test_missing_round_becomes_nan(self):
        times = np.array([0.0, ROUND, 3 * ROUND])
        grid, stats = observations_to_grid(times, np.ones(3), ROUND, 0.0, 4)
        assert np.isnan(grid[2])
        assert stats.n_missing == 1

    def test_duplicate_keeps_most_recent(self):
        times = np.array([0.0, ROUND, ROUND + 10.0])
        values = np.array([1.0, 2.0, 3.0])
        grid, stats = observations_to_grid(times, values, ROUND, 0.0, 2)
        assert grid[1] == 3.0
        assert stats.n_duplicates == 1

    def test_duplicate_order_independent_of_input_order(self):
        times = np.array([ROUND + 10.0, ROUND, 0.0])
        values = np.array([3.0, 2.0, 1.0])
        grid, _ = observations_to_grid(times, values, ROUND, 0.0, 2)
        assert grid[1] == 3.0  # later *time* wins, not later input position

    def test_out_of_range_observations_dropped(self):
        times = np.array([-5000.0, 0.0, 50000.0])
        grid, _ = observations_to_grid(times, np.ones(3), ROUND, 0.0, 3)
        assert grid[0] == 1.0
        assert np.isnan(grid[1]) and np.isnan(grid[2])

    def test_missing_fraction(self):
        grid, stats = observations_to_grid(
            np.array([0.0]), np.array([1.0]), ROUND, 0.0, 20
        )
        assert stats.missing_fraction == pytest.approx(19 / 20)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            observations_to_grid(np.zeros(3), np.zeros(4), ROUND, 0.0, 5)


class TestFillMissing:
    def test_single_gap_filled_from_previous(self):
        values = np.array([1.0, np.nan, 3.0])
        filled, n = fill_missing(values)
        assert filled.tolist() == [1.0, 1.0, 3.0]
        assert n == 1

    def test_long_gap_left_alone_with_max_gap_1(self):
        values = np.array([1.0, np.nan, np.nan, 4.0])
        filled, n = fill_missing(values, max_gap=1)
        assert filled[1] == 1.0
        assert np.isnan(filled[2])
        assert n == 1

    def test_fill_everything_for_fft(self):
        values = np.array([1.0, np.nan, np.nan, np.nan, 5.0])
        filled, n = fill_missing(values, max_gap=10**9)
        assert not np.isnan(filled).any()
        assert n == 3

    def test_leading_nan_backfilled(self):
        values = np.array([np.nan, 2.0, 3.0])
        filled, n = fill_missing(values)
        assert filled[0] == 2.0

    def test_no_gaps_no_change(self):
        values = np.arange(5.0)
        filled, n = fill_missing(values)
        assert n == 0
        assert np.array_equal(filled, values)

    def test_all_nan_rejected(self):
        with pytest.raises(ValueError):
            fill_missing(np.full(5, np.nan))

    def test_input_not_modified(self):
        values = np.array([1.0, np.nan])
        fill_missing(values)
        assert np.isnan(values[1])


class TestTrimToMidnight:
    def test_midnight_aligned_series_untouched(self):
        n = int(3 * DAY / ROUND)
        times = np.arange(n) * ROUND
        sl = trim_to_midnight(times, ROUND)
        assert sl.start == 0
        # End near the last midnight (round 262 ≈ day 2).
        assert abs(times[sl.stop - 1] - 2 * DAY) <= ROUND / 2 + 1e-9

    def test_offset_start_trimmed_forward(self):
        start = 5 * 3600.0  # measurement begins at 05:00 UTC
        n = int(3 * DAY / ROUND)
        times = start + np.arange(n) * ROUND
        sl = trim_to_midnight(times, ROUND)
        assert abs(times[sl.start] - DAY) <= ROUND / 2 + 1e-9

    def test_retained_span_is_whole_days(self):
        start = 17.3 * 3600.0
        n = int(10 * DAY / ROUND)
        times = start + np.arange(n) * ROUND
        sl = trim_to_midnight(times, ROUND)
        span = times[sl.stop - 1] - times[sl.start]
        days = span / DAY
        assert abs(days - round(days)) < ROUND / DAY

    def test_short_series_returned_whole(self):
        times = np.arange(10) * ROUND
        sl = trim_to_midnight(times, ROUND)
        assert (sl.start, sl.stop) == (0, 10)


class TestStationarity:
    def test_flat_series_is_stationary(self):
        times = np.arange(1000) * ROUND
        values = np.full(1000, 0.5)
        assert is_stationary(times, values, n_ever_active=100)

    def test_strong_trend_is_not_stationary(self):
        times = np.arange(1000) * ROUND
        # 5% of a 100-address block per day = 5 addresses/day.
        values = 0.2 + 0.05 * times / DAY
        assert not is_stationary(times, values, n_ever_active=100)

    def test_sub_address_trend_is_stationary(self):
        times = np.arange(1000) * ROUND
        values = 0.5 + 0.005 * times / DAY  # 0.5 addresses/day on 100
        assert is_stationary(times, values, n_ever_active=100)

    def test_diurnal_oscillation_is_stationary(self):
        times = np.arange(int(14 * DAY / ROUND)) * ROUND
        values = 0.5 + 0.3 * np.sin(2 * np.pi * times / DAY)
        assert is_stationary(times, values, n_ever_active=200)

    def test_empty_ever_active_trivially_stationary(self):
        assert is_stationary(np.arange(10.0), np.ones(10), n_ever_active=0)

    def test_linear_slope_exact(self):
        times = np.arange(100.0)
        values = 3.0 + 0.25 * times
        assert linear_slope(times, values) == pytest.approx(0.25)

    def test_linear_slope_ignores_nan(self):
        times = np.arange(100.0)
        values = 2.0 * times
        values[10:20] = np.nan
        assert linear_slope(times, values) == pytest.approx(2.0)

    def test_linear_slope_degenerate(self):
        assert linear_slope(np.array([1.0]), np.array([2.0])) == 0.0
        assert linear_slope(np.ones(5), np.arange(5.0)) == 0.0


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=400),
    gap_at=st.integers(min_value=1, max_value=398),
)
def test_fill_missing_preserves_observed_values(n, gap_at):
    values = np.linspace(0, 1, n)
    holes = values.copy()
    idx = gap_at % n
    if idx == 0:
        idx = 1
    holes[idx] = np.nan
    filled, _ = fill_missing(holes, max_gap=n)
    observed = ~np.isnan(holes)
    assert np.array_equal(filled[observed], values[observed])


def reference_fill_missing(values, max_gap):
    """The round-by-round hold fill ``fill_missing`` replaced, kept as
    its oracle (the caller has already rejected empty, gap-free and
    all-NaN series)."""
    values = np.asarray(values, dtype=np.float64).copy()
    isnan = np.isnan(values)
    n_filled = 0
    first_valid = int(np.flatnonzero(~isnan)[0])
    if first_valid > 0 and first_valid <= max_gap:
        values[:first_valid] = values[first_valid]
        n_filled += first_valid
    gap = 0
    last = values[first_valid]
    for i in range(first_valid, len(values)):
        if np.isnan(values[i]):
            gap += 1
            if gap <= max_gap:
                values[i] = last
                n_filled += 1
        else:
            last = values[i]
            gap = 0
    return values, n_filled


@settings(max_examples=200, deadline=None)
@given(
    series=st.lists(
        st.one_of(
            st.just(float("nan")),
            st.floats(allow_nan=False, width=64),
        ),
        min_size=1,
        max_size=160,
    ).filter(lambda xs: any(x == x for x in xs) and any(x != x for x in xs)),
    max_gap=st.integers(min_value=0, max_value=170),
)
def test_fill_missing_matches_round_by_round_reference(series, max_gap):
    """Bit-identical to the loop it replaced: filled values (including
    -0.0 and infinities carried forward), the NaNs left in gaps longer
    than ``max_gap``, the leading back-fill rule and ``n_filled``."""
    values = np.array(series)
    filled, n_filled = fill_missing(values, max_gap=max_gap)
    expected, expected_n = reference_fill_missing(values, max_gap)
    assert filled.tobytes() == expected.tobytes()
    assert n_filled == expected_n
    assert type(n_filled) is int


class TestGridValidation:
    def test_empty_observations_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            observations_to_grid(np.array([]), np.array([]), ROUND, 0.0, 10)

    def test_non_finite_timestamps_rejected(self):
        times = np.array([0.0, np.nan, 2 * ROUND])
        with pytest.raises(ValueError, match="NaN"):
            observations_to_grid(times, np.ones(3), ROUND, 0.0, 10)

    def test_bad_round_length_rejected(self):
        with pytest.raises(ValueError):
            observations_to_grid(np.zeros(3), np.ones(3), 0.0, 0.0, 10)

    def test_bad_n_rounds_rejected(self):
        with pytest.raises(ValueError):
            observations_to_grid(np.zeros(3), np.ones(3), ROUND, 0.0, 0)

    def test_non_monotonic_timestamps_are_legal(self):
        """Out-of-order delivery is resolved by the stable time sort, not
        rejected: injected clock jitter produces exactly this shape."""
        times = np.array([2 * ROUND, 0.0, ROUND])
        values = np.array([0.3, 0.1, 0.2])
        grid, _ = observations_to_grid(times, values, ROUND, 0.0, 3)
        assert np.allclose(grid, [0.1, 0.2, 0.3])

    def test_2d_input_rejected(self):
        with pytest.raises(ValueError):
            observations_to_grid(
                np.zeros((2, 2)), np.ones((2, 2)), ROUND, 0.0, 4
            )


class TestFillMissingValidation:
    def test_empty_series_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            fill_missing(np.array([]))

    def test_negative_max_gap_rejected(self):
        with pytest.raises(ValueError):
            fill_missing(np.ones(4), max_gap=-1)

    def test_2d_series_rejected(self):
        with pytest.raises(ValueError):
            fill_missing(np.ones((2, 3)))


class TestFillGaps:
    def test_hold_policy_matches_fill_missing(self):
        from repro.core.timeseries import fill_gaps

        values = np.array([0.2, np.nan, np.nan, 0.8, np.nan, 0.4])
        held, n_held = fill_gaps(values, policy="hold", max_gap=1)
        filled, n_filled = fill_missing(values, max_gap=1)
        assert np.array_equal(held, filled, equal_nan=True)
        assert n_held == n_filled

    def test_interp_policy_bridges_gap_linearly(self):
        from repro.core.timeseries import fill_gaps

        values = np.array([0.0, np.nan, np.nan, np.nan, 1.0])
        out, n_filled = fill_gaps(values, policy="interp")
        assert np.allclose(out, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert n_filled == 3

    def test_interp_respects_max_gap(self):
        from repro.core.timeseries import fill_gaps

        values = np.array([0.0, np.nan, 1.0, np.nan, np.nan, np.nan, 0.0])
        out, _ = fill_gaps(values, policy="interp", max_gap=2)
        assert np.isclose(out[1], 0.5)
        assert np.isnan(out[3:6]).all()

    def test_nan_policy_leaves_gaps(self):
        from repro.core.timeseries import fill_gaps

        values = np.array([0.2, np.nan, 0.8])
        out, n_filled = fill_gaps(values, policy="nan")
        assert np.isnan(out[1])
        assert n_filled == 0
        out[0] = 99.0
        assert values[0] == 0.2  # copy, not a view

    def test_unknown_policy_rejected(self):
        from repro.core.timeseries import fill_gaps

        with pytest.raises(ValueError, match="policy"):
            fill_gaps(np.ones(3), policy="magic")


class TestQualityReport:
    def test_complete_series_is_usable(self):
        from repro.core.timeseries import QualityReport

        q = QualityReport(
            n_rounds=100, n_observed=100, n_duplicates=0, n_filled=0, longest_gap=0
        )
        assert q.gap_fraction == 0.0
        assert q.usable()

    def test_gap_fraction_threshold(self):
        from repro.core.timeseries import QualityReport

        q = QualityReport(
            n_rounds=100, n_observed=50, n_duplicates=0, n_filled=50, longest_gap=10
        )
        assert q.gap_fraction == 0.5
        assert not q.usable(max_gap_fraction=0.35)
        assert q.usable(max_gap_fraction=0.6)

    def test_longest_gap_threshold(self):
        from repro.core.timeseries import QualityReport

        q = QualityReport(
            n_rounds=100, n_observed=95, n_duplicates=0, n_filled=5, longest_gap=5
        )
        assert q.usable(max_longest_gap=10)
        assert not q.usable(max_longest_gap=4)

    def test_empty_series_never_usable(self):
        from repro.core.timeseries import QualityReport

        q = QualityReport(
            n_rounds=0, n_observed=0, n_duplicates=0, n_filled=0, longest_gap=0
        )
        assert q.gap_fraction == 1.0
        assert not q.usable()


class TestCleanObservations:
    def test_clean_stream_round_trips(self):
        from repro.core.timeseries import clean_observations

        n = 20
        times = np.arange(n) * ROUND
        values = np.linspace(0, 1, n)
        out, quality = clean_observations(times, values, ROUND, 0.0, n)
        assert np.allclose(out, values)
        assert quality.n_observed == n
        assert quality.n_filled == 0
        assert quality.usable()

    def test_gappy_stream_counts_fills(self):
        from repro.core.timeseries import clean_observations

        times = np.array([0.0, ROUND, 4 * ROUND]) 
        values = np.array([0.1, 0.2, 0.5])
        out, quality = clean_observations(times, values, ROUND, 0.0, 5)
        assert quality.n_observed == 3
        assert quality.n_filled == 2
        assert quality.longest_gap == 2
        assert not np.isnan(out).any()

    def test_all_missing_stream_returns_nan_grid(self):
        """An entirely lost stream degrades to an unusable (not raising)
        result so the batch runner can record it as insufficient data."""
        from repro.core.timeseries import clean_observations

        out, quality = clean_observations(
            np.array([]), np.array([]), ROUND, 0.0, 8
        )
        assert np.isnan(out).all()
        assert quality.n_observed == 0
        assert not quality.usable()


class TestLongestNanRun:
    def test_no_nans(self):
        from repro.core.timeseries import longest_nan_run

        assert longest_nan_run(np.ones(5)) == 0

    def test_interior_run(self):
        from repro.core.timeseries import longest_nan_run

        values = np.array([1.0, np.nan, np.nan, np.nan, 1.0, np.nan])
        assert longest_nan_run(values) == 3

    def test_all_nan(self):
        from repro.core.timeseries import longest_nan_run

        assert longest_nan_run(np.full(4, np.nan)) == 4


class TestTrimToMidnightEdges:
    """Satellite coverage: degenerate inputs for the midnight trimmer."""

    def test_empty_series(self):
        sl = trim_to_midnight(np.array([]), ROUND)
        assert (sl.start, sl.stop) == (0, 0)

    def test_single_sample(self):
        sl = trim_to_midnight(np.array([3 * 3600.0]), ROUND)
        assert (sl.start, sl.stop) == (0, 1)

    def test_window_under_one_day_returned_whole(self):
        # Half a day contains at most one midnight: nothing to trim to.
        n = int(0.5 * DAY / ROUND)
        times = 6 * 3600.0 + np.arange(n) * ROUND
        sl = trim_to_midnight(times, ROUND)
        assert (sl.start, sl.stop) == (0, n)

    def test_trailing_partial_day_dropped(self):
        # 2 whole days plus a 7-hour tail: the tail must be cut, keeping
        # the span a whole number of days.
        n_full = int(2 * DAY / ROUND)
        n_tail = int(7 * 3600 / ROUND)
        times = np.arange(n_full + n_tail) * ROUND
        sl = trim_to_midnight(times, ROUND)
        assert sl.start == 0
        assert abs(times[sl.stop - 1] - 2 * DAY) <= ROUND / 2 + 1e-9
        span_days = (times[sl.stop - 1] - times[sl.start]) / DAY
        assert abs(span_days - round(span_days)) < ROUND / DAY

    def test_exactly_one_day(self):
        # Rounds 0..131: round 131 (at 86460 s) is the closest to the
        # second midnight, within half a round.
        n = int(DAY / ROUND) + 2
        times = np.arange(n) * ROUND
        sl = trim_to_midnight(times, ROUND)
        assert sl.start == 0
        assert abs(times[sl.stop - 1] - DAY) <= ROUND / 2 + 1e-9


class TestLongestNanRunEdges:
    """Satellite coverage: degenerate inputs for the gap scanner."""

    def test_empty_array(self):
        from repro.core.timeseries import longest_nan_run

        assert longest_nan_run(np.array([])) == 0

    def test_single_nan(self):
        from repro.core.timeseries import longest_nan_run

        assert longest_nan_run(np.array([np.nan])) == 1

    def test_leading_and_trailing_runs(self):
        from repro.core.timeseries import longest_nan_run

        values = np.array([np.nan, np.nan, 1.0, np.nan, np.nan, np.nan])
        assert longest_nan_run(values) == 3

    def test_alternating(self):
        from repro.core.timeseries import longest_nan_run

        values = np.array([np.nan, 1.0, np.nan, 1.0, np.nan])
        assert longest_nan_run(values) == 1


class TestRoundIndex:
    """The shared grid-snapping rule (batch gridder and streaming engine)."""

    def test_exact_times(self):
        from repro.core.timeseries import round_index

        times = np.arange(5) * ROUND
        np.testing.assert_array_equal(round_index(times, ROUND), np.arange(5))

    def test_nearest_round_snapping(self):
        from repro.core.timeseries import round_index

        times = np.array([ROUND * 0.49, ROUND * 0.51, ROUND * 1.49])
        np.testing.assert_array_equal(round_index(times, ROUND), [0, 1, 1])

    def test_start_offset(self):
        from repro.core.timeseries import round_index

        start = 12345.0
        times = start + np.arange(3) * ROUND
        np.testing.assert_array_equal(
            round_index(times, ROUND, start_s=start), [0, 1, 2]
        )

    def test_negative_rounds_before_origin(self):
        from repro.core.timeseries import round_index

        assert round_index(np.array([-ROUND]), ROUND)[0] == -1

    def test_bad_round_s_rejected(self):
        from repro.core.timeseries import round_index

        with pytest.raises(ValueError):
            round_index(np.array([0.0]), 0.0)

    def test_matches_grid_placement(self):
        from repro.core.timeseries import round_index

        rng = np.random.default_rng(0)
        times = np.sort(rng.uniform(0, 50 * ROUND, 30))
        idx = round_index(times, ROUND)
        grid, _ = observations_to_grid(times, np.ones(30), ROUND, 0.0, 51)
        observed = np.flatnonzero(~np.isnan(grid))
        np.testing.assert_array_equal(observed, np.unique(idx))
