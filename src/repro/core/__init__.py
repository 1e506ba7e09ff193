"""The paper's contribution: availability estimation and diurnal detection.

``estimator``
    EWMA estimators of block availability from biased adaptive-probing
    counts: short-term Â_s, long-term Â_l, and the conservative operational
    Â_o (section 2.1), plus the legacy direct-EWMA variant kept for the
    over-estimation ablation.
``timeseries``
    Cleaning of the probe stream into an evenly sampled 11-minute series,
    midnight-UTC trimming, and the stationarity check (section 2.2).
``spectral``
    DFT amplitude/phase machinery: diurnal bins, harmonics, dominant
    frequencies (section 2.2).
``classify``
    Strict/relaxed diurnal classification and phase extraction.
``pipeline``
    End-to-end measurement of simulated blocks: probing, estimation,
    cleaning, classification, outage extraction — plus the resilient
    :class:`BatchRunner` (per-block failure isolation, retry,
    checkpoint/resume) and fault-injected degraded measurement.
``supervisor``
    :class:`PoolRunner` — the same batch across supervised worker
    processes: per-block deadlines, hung/dead-worker respawn, poison
    quarantine, a circuit breaker, and deterministic merge
    bit-identical to serial execution.
"""

from repro.core.estimator import (
    AvailabilityEstimator,
    AvailabilitySeries,
    DirectEwmaEstimator,
    EstimatorConfig,
    RestartPolicy,
    estimate_series,
)
from repro.core.timeseries import (
    CleanStats,
    QualityReport,
    clean_observations,
    fill_gaps,
    fill_missing,
    linear_slope,
    is_stationary,
    longest_nan_run,
    observations_to_grid,
    round_index,
    trim_to_midnight,
)
from repro.core.spectral import (
    Spectrum,
    compute_spectrum,
    compute_spectra,
    diurnal_bin,
    harmonic_bins,
)
from repro.core.classify import (
    ClassifierConfig,
    DiurnalClass,
    DiurnalReport,
    classify_series,
    classify_spectrum,
    classify_many,
    decide_label,
    insufficient_report,
    reports_equal,
)
from repro.core.localtime import (
    circular_hour_difference,
    ewma_lag_hours,
    local_hour,
    peak_utc_hour,
    wake_local_hour,
    wake_utc_hour,
)
from repro.core.pipeline import (
    BatchConfig,
    BatchResult,
    BatchRunner,
    BlockFailure,
    BlockMeasurement,
    MeasurementConfig,
    measure_block,
    measure_blocks,
    classify_ground_truth,
)
from repro.core.retry import RetryPolicy
from repro.core.supervisor import (
    CircuitOpenError,
    PoolConfig,
    PoolRunner,
)

__all__ = [
    "AvailabilityEstimator",
    "AvailabilitySeries",
    "BatchConfig",
    "BatchResult",
    "BatchRunner",
    "BlockFailure",
    "BlockMeasurement",
    "CircuitOpenError",
    "ClassifierConfig",
    "CleanStats",
    "DirectEwmaEstimator",
    "DiurnalClass",
    "DiurnalReport",
    "EstimatorConfig",
    "MeasurementConfig",
    "PoolConfig",
    "PoolRunner",
    "QualityReport",
    "RestartPolicy",
    "RetryPolicy",
    "Spectrum",
    "circular_hour_difference",
    "classify_ground_truth",
    "classify_many",
    "clean_observations",
    "local_hour",
    "peak_utc_hour",
    "wake_local_hour",
    "wake_utc_hour",
    "classify_series",
    "classify_spectrum",
    "compute_spectra",
    "compute_spectrum",
    "decide_label",
    "diurnal_bin",
    "estimate_series",
    "ewma_lag_hours",
    "fill_gaps",
    "fill_missing",
    "harmonic_bins",
    "insufficient_report",
    "is_stationary",
    "linear_slope",
    "longest_nan_run",
    "measure_block",
    "measure_blocks",
    "observations_to_grid",
    "reports_equal",
    "round_index",
    "trim_to_midnight",
]
