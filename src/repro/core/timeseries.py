"""Timeseries cleaning for spectral analysis (section 2.2, "Data cleaning").

Spectral analysis needs an evenly sampled series, but real probing output is
not perfectly aligned to 11-minute rounds: about 5% of rounds arrive with a
missing or duplicate observation.  Following the paper (and the Trinocular
technical report it cites), we

* snap observations to the round grid, trusting the most recent value when
  two land in the same round;
* extrapolate single missing rounds from the previous value;
* trim the series to start and end near midnight UTC, which anchors FFT
  phase to physical time and reduces spectral leakage at diurnal
  frequencies;
* verify stationarity with a linear fit — the paper found ~80.3% of survey
  blocks change by less than one address per day.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.obs.registry import NULL_REGISTRY

__all__ = [
    "CleanStats",
    "FILL_POLICIES",
    "QualityReport",
    "clean_observations",
    "fill_gaps",
    "fill_missing",
    "is_stationary",
    "linear_slope",
    "longest_nan_run",
    "observations_to_grid",
    "round_index",
    "set_metrics",
    "trim_to_midnight",
]

DAY_SECONDS = 86400.0

FILL_POLICIES = ("hold", "interp", "nan")


@dataclass
class CleanStats:
    """Bookkeeping from one cleaning pass."""

    n_rounds: int
    n_missing: int
    n_duplicates: int
    n_filled: int

    @property
    def missing_fraction(self) -> float:
        return self.n_missing / self.n_rounds if self.n_rounds else 0.0


@dataclass
class QualityReport:
    """Per-series data-quality summary from one cleaning pass.

    Downstream consumers use this to refuse to classify garbage: a series
    that is mostly holes carries no spectral information, and filling it
    manufactures a flat (or worse, periodic) signal that was never
    measured.

    Attributes:
        n_rounds: rounds in the target grid.
        n_observed: rounds that received at least one observation.
        n_duplicates: extra observations sharing a round with another.
        n_filled: gap rounds filled by the fill policy.
        longest_gap: longest run of consecutive missing rounds (pre-fill).
    """

    n_rounds: int
    n_observed: int
    n_duplicates: int
    n_filled: int
    longest_gap: int

    @property
    def n_missing(self) -> int:
        return self.n_rounds - self.n_observed

    @property
    def gap_fraction(self) -> float:
        return self.n_missing / self.n_rounds if self.n_rounds else 1.0

    @property
    def duplicate_fraction(self) -> float:
        return self.n_duplicates / self.n_rounds if self.n_rounds else 0.0

    def usable(
        self,
        max_gap_fraction: float = 0.35,
        max_longest_gap: int | None = None,
    ) -> bool:
        """Whether the series carries enough signal to classify."""
        if self.n_observed == 0:
            return False
        if self.gap_fraction > max_gap_fraction:
            return False
        if max_longest_gap is not None and self.longest_gap > max_longest_gap:
            return False
        return True


class _Instruments:
    """Pre-bound cleaning metrics (null registry by default)."""

    __slots__ = ("enabled", "cleanings", "observed", "filled", "missing",
                 "duplicates")

    def __init__(self, registry) -> None:
        self.enabled = registry.enabled
        self.cleanings = registry.counter("timeseries_cleanings_total")
        self.observed = registry.counter("timeseries_rounds_observed_total")
        self.filled = registry.counter("timeseries_rounds_filled_total")
        self.missing = registry.counter("timeseries_rounds_missing_total")
        self.duplicates = registry.counter(
            "timeseries_duplicate_observations_total"
        )


_obs = _Instruments(NULL_REGISTRY)


def set_metrics(registry) -> None:
    """Point this module's cleaning metrics at ``registry``.

    Pass ``None`` to turn instrumentation back off.  Usually called
    through :func:`repro.obs.install_metrics`.
    """
    global _obs
    _obs = _Instruments(registry if registry is not None else NULL_REGISTRY)


def _record_cleaning(report: "QualityReport") -> None:
    """Tally one cleaning pass into the module metrics."""
    _obs.cleanings.inc()
    if report.n_observed:
        _obs.observed.inc(report.n_observed)
    if report.n_filled:
        _obs.filled.inc(report.n_filled)
    if report.n_missing:
        _obs.missing.inc(report.n_missing)
    if report.n_duplicates:
        _obs.duplicates.inc(report.n_duplicates)


def longest_nan_run(values: np.ndarray) -> int:
    """Length of the longest run of consecutive NaNs."""
    isnan = np.isnan(np.asarray(values, dtype=np.float64))
    if not isnan.any():
        return 0
    padded = np.concatenate([[False], isnan, [False]]).astype(np.int8)
    edges = np.flatnonzero(np.diff(padded))
    return int((edges[1::2] - edges[0::2]).max())


def round_index(
    obs_times: np.ndarray, round_s: float, start_s: float = 0.0
) -> np.ndarray:
    """Grid round index for each observation time (nearest-round snapping).

    This is the single definition of the section 2.2 snapping rule, shared
    by the batch gridder and the streaming engine so an observation can
    never land in different rounds on the two paths.
    """
    if round_s <= 0:
        raise ValueError(f"round_s must be positive, got {round_s}")
    obs_times = np.asarray(obs_times, dtype=np.float64)
    return np.round((obs_times - start_s) / round_s).astype(np.int64)


def observations_to_grid(
    obs_times: np.ndarray,
    obs_values: np.ndarray,
    round_s: float,
    start_s: float,
    n_rounds: int,
) -> tuple[np.ndarray, CleanStats]:
    """Snap raw observations onto an even round grid.

    Each observation is assigned to the nearest round of the grid
    ``start_s + i * round_s``; when several observations land in the same
    round the most recent wins (the paper's rule for duplicates).  Rounds
    with no observation become NaN.  Returns the gridded values and stats.

    Non-monotonic timestamps are legal — degraded streams deliver out of
    order — and are resolved by a stable time sort before the duplicate
    rule is applied; non-finite timestamps, empty inputs, and nonsensical
    grid parameters raise ``ValueError``.
    """
    obs_times = np.asarray(obs_times, dtype=np.float64)
    obs_values = np.asarray(obs_values, dtype=np.float64)
    if obs_times.ndim != 1:
        raise ValueError(f"times must be 1-d, got shape {obs_times.shape}")
    if obs_times.shape != obs_values.shape:
        raise ValueError("times and values must have the same shape")
    if len(obs_times) == 0:
        raise ValueError("empty observation series: nothing to grid")
    if not np.isfinite(obs_times).all():
        raise ValueError("observation times contain NaN or infinity")
    if round_s <= 0:
        raise ValueError(f"round_s must be positive, got {round_s}")
    if n_rounds <= 0:
        raise ValueError(f"n_rounds must be positive, got {n_rounds}")
    grid = np.full(n_rounds, np.nan)
    idx = round_index(obs_times, round_s, start_s)
    in_range = (idx >= 0) & (idx < n_rounds)
    idx, values, times = idx[in_range], obs_values[in_range], obs_times[in_range]
    # Process in time order so "most recent observation wins" holds.
    order = np.argsort(times, kind="stable")
    seen = np.zeros(n_rounds, dtype=bool)
    n_duplicates = 0
    for i in order:
        r = idx[i]
        if seen[r]:
            n_duplicates += 1
        seen[r] = True
        grid[r] = values[i]
    n_missing = int(n_rounds - seen.sum())
    stats = CleanStats(
        n_rounds=n_rounds,
        n_missing=n_missing,
        n_duplicates=n_duplicates,
        n_filled=0,
    )
    return grid, stats


def fill_missing(values: np.ndarray, max_gap: int = 1) -> tuple[np.ndarray, int]:
    """Extrapolate missing (NaN) rounds from the previous observation.

    Gaps of up to ``max_gap`` consecutive rounds are filled by carrying the
    last value forward, the paper's rule for single missing estimates; pass
    ``max_gap=0`` to disable, or a large value to fill everything (needed
    before an FFT, which tolerates no NaNs).  Leading NaNs are back-filled
    from the first observation.  Returns the filled series and fill count.
    """
    values = np.asarray(values, dtype=np.float64).copy()
    if values.ndim != 1:
        raise ValueError(f"series must be 1-d, got shape {values.shape}")
    if len(values) == 0:
        raise ValueError("empty series: nothing to fill")
    if max_gap < 0:
        raise ValueError(f"max_gap must be non-negative, got {max_gap}")
    isnan = np.isnan(values)
    if not isnan.any():
        return values, 0
    if isnan.all():
        raise ValueError("series has no observations at all")

    # Each round's most recent observed round (-1 before the first);
    # a NaN round is filled when its gap so far is at most max_gap.
    positions = np.arange(len(values))
    last = np.maximum.accumulate(np.where(isnan, -1, positions))
    fill = isnan & (last >= 0) & (positions - last <= max_gap)
    values[fill] = values[last[fill]]
    n_filled = int(np.count_nonzero(fill))
    first_valid = int(np.flatnonzero(~isnan)[0])
    if first_valid > 0 and first_valid <= max_gap:
        values[:first_valid] = values[first_valid]
        n_filled += first_valid
    return values, n_filled


def fill_gaps(
    values: np.ndarray,
    policy: str = "hold",
    max_gap: int | None = None,
) -> tuple[np.ndarray, int]:
    """Fill multi-round gaps under a selectable policy.

    Policies:

    * ``"hold"`` — carry the last observation forward (the paper's rule,
      generalized to longer gaps);
    * ``"interp"`` — linear interpolation between the gap's endpoints,
      with hold/backfill at the series edges;
    * ``"nan"`` — leave every gap as NaN (a mask for consumers that can
      handle missing data; the FFT path cannot).

    ``max_gap`` bounds the length of gaps that get filled (``None`` fills
    everything); longer gaps stay NaN so the quality gate can see them.
    Returns the filled series and the number of rounds filled.
    """
    if policy not in FILL_POLICIES:
        raise ValueError(
            f"unknown fill policy {policy!r}; expected one of {FILL_POLICIES}"
        )
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError(f"series must be 1-d, got shape {values.shape}")
    if len(values) == 0:
        raise ValueError("empty series: nothing to fill")
    if policy == "nan":
        return values.copy(), 0
    limit = len(values) if max_gap is None else max_gap
    if policy == "hold":
        return fill_missing(values, max_gap=limit)

    # policy == "interp"
    isnan = np.isnan(values)
    if not isnan.any():
        return values.copy(), 0
    if isnan.all():
        raise ValueError("series has no observations at all")
    filled = values.copy()
    valid = np.flatnonzero(~isnan)
    interior = np.arange(valid[0], valid[-1] + 1)
    candidate = filled.copy()
    candidate[interior] = np.interp(interior, valid, values[valid])
    candidate[: valid[0]] = values[valid[0]]
    candidate[valid[-1] + 1 :] = values[valid[-1]]
    # Respect max_gap: only gaps short enough are actually replaced.
    n_filled = 0
    padded = np.concatenate([[False], isnan, [False]]).astype(np.int8)
    edges = np.flatnonzero(np.diff(padded))
    for start, stop in zip(edges[0::2], edges[1::2]):
        if stop - start <= limit:
            filled[start:stop] = candidate[start:stop]
            n_filled += stop - start
    return filled, n_filled


def clean_observations(
    obs_times: np.ndarray,
    obs_values: np.ndarray,
    round_s: float,
    start_s: float,
    n_rounds: int,
    policy: str = "hold",
    max_gap: int | None = None,
) -> tuple[np.ndarray, QualityReport]:
    """Full cleaning pass: grid a degraded stream, fill, and audit it.

    This is the section 2.2 path as one call: snap observations to the
    round grid (duplicates resolved most-recent-wins), fill gaps under
    ``policy``, and return the series plus a :class:`QualityReport` that
    downstream classification uses to refuse insufficient data.  An empty
    stream, or a grid every round of which is missing, is returned as all-NaN
    rather than raising, so batch pipelines can record the failure
    per-block instead of dying.
    """
    if len(np.asarray(obs_times)) == 0:
        if n_rounds <= 0:
            raise ValueError(f"n_rounds must be positive, got {n_rounds}")
        report = QualityReport(
            n_rounds=n_rounds,
            n_observed=0,
            n_duplicates=0,
            n_filled=0,
            longest_gap=n_rounds,
        )
        _record_cleaning(report)
        return np.full(n_rounds, np.nan), report
    grid, stats = observations_to_grid(
        obs_times, obs_values, round_s, start_s, n_rounds
    )
    longest = longest_nan_run(grid)
    n_observed = n_rounds - stats.n_missing
    if n_observed == 0 or np.isnan(grid).all():
        report = QualityReport(
            n_rounds=n_rounds,
            n_observed=0,
            n_duplicates=stats.n_duplicates,
            n_filled=0,
            longest_gap=longest,
        )
        _record_cleaning(report)
        return grid, report
    filled, n_filled = fill_gaps(grid, policy=policy, max_gap=max_gap)
    report = QualityReport(
        n_rounds=n_rounds,
        n_observed=n_observed,
        n_duplicates=stats.n_duplicates,
        n_filled=n_filled,
        longest_gap=longest,
    )
    _record_cleaning(report)
    return filled, report


def trim_to_midnight(
    times: np.ndarray, round_s: float, day_s: float = DAY_SECONDS
) -> slice:
    """Slice selecting the sub-series starting/ending nearest midnight UTC.

    ``times`` are absolute round times whose origin is midnight UTC.  The
    returned slice begins at the round closest to the first midnight at or
    after the series start and ends at the round closest to the last
    midnight at or before the series end, so the retained window spans a
    whole number of days (which concentrates diurnal energy into a single
    FFT bin and ties phase to physical time).
    """
    times = np.asarray(times, dtype=np.float64)
    if len(times) < 2:
        return slice(0, len(times))
    first_midnight = np.ceil((times[0] - round_s / 2) / day_s) * day_s
    last_midnight = np.floor((times[-1] + round_s / 2) / day_s) * day_s
    if last_midnight <= first_midnight:
        return slice(0, len(times))
    start = int(np.argmin(np.abs(times - first_midnight)))
    stop = int(np.argmin(np.abs(times - last_midnight))) + 1
    if stop - start < 2:
        return slice(0, len(times))
    return slice(start, stop)


def linear_slope(times: np.ndarray, values: np.ndarray) -> float:
    """Least-squares slope of ``values`` against ``times`` (units: per second).

    NaN values are ignored.  Used by the stationarity check.
    """
    times = np.asarray(times, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    valid = ~np.isnan(values)
    if valid.sum() < 2:
        return 0.0
    t = times[valid]
    v = values[valid]
    t = t - t.mean()
    denom = float(np.dot(t, t))
    if denom == 0.0:
        return 0.0
    return float(np.dot(t, v - v.mean()) / denom)


def is_stationary(
    times: np.ndarray,
    availability: np.ndarray,
    n_ever_active: int,
    max_addresses_per_day: float = 1.0,
) -> bool:
    """Paper's stationarity test: linear trend below ~1 address per day.

    The availability slope (per second) is converted to addresses per day
    through the size of the ever-active set; blocks drifting more than
    ``max_addresses_per_day`` are considered non-stationary and their FFT
    interpretation suspect.
    """
    if n_ever_active <= 0:
        return True
    slope = linear_slope(times, availability)
    addresses_per_day = abs(slope) * DAY_SECONDS * n_ever_active
    return addresses_per_day < max_addresses_per_day
