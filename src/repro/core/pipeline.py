"""End-to-end measurement of simulated blocks.

This module wires the layers together the way the paper's deployment does:
a block's oracle is probed adaptively, each round's counts feed the EWMA
estimators, the resulting Â_s series is cleaned and trimmed to midnight
UTC, and the spectral classifier labels the block.  Ground truth (the full
response matrix) rides along so validation experiments can compare the
estimate-driven label against the truth-driven one.

Two robustness layers sit on top of the per-block path:

* **fault injection** — :func:`measure_block` accepts a
  :class:`~repro.faults.plan.FaultPlan`; probe loss hits the oracle,
  crashes add restarts, and the estimate stream is degraded
  (drops/duplicates/gaps/clock errors) then re-cleaned through the
  section 2.2 grid-and-fill path, yielding a per-block
  :class:`~repro.core.timeseries.QualityReport`;
* **batch resilience** — :class:`BatchRunner` isolates per-block
  exceptions as :class:`BlockFailure` records, retries with fresh seed
  substreams, checkpoints periodically through ``repro.datasets.io``, and
  resumes bit-identically to an uninterrupted run.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Union

import numpy as np

from repro.core.classify import (
    ClassifierConfig,
    DiurnalReport,
    classify_series,
)
from repro.core.estimator import AvailabilityEstimator, EstimatorConfig
from repro.core.retry import RetryPolicy
from repro.core.timeseries import (
    QualityReport,
    clean_observations,
    is_stationary,
    trim_to_midnight,
)
from repro.faults.crash import crashpoint
from repro.net.blocks import Block24, ResponseOracle
from repro.obs.events import NULL_EVENT_LOG
from repro.obs.export import RunManifest
from repro.obs.registry import NULL_REGISTRY
from repro.obs.tracing import NULL_TRACER
from repro.probing.prober import AdaptiveProber, ProberConfig
from repro.probing.rounds import RoundSchedule, probes_per_hour

if TYPE_CHECKING:
    from repro.faults.config import FaultConfig
    from repro.faults.plan import FaultPlan

__all__ = [
    "BatchConfig",
    "BatchResult",
    "BatchRunner",
    "BlockFailure",
    "BlockMeasurement",
    "MeasurementConfig",
    "RecordingEstimator",
    "classify_ground_truth",
    "measure_block",
    "measure_blocks",
]

# Trinocular refuses to probe blocks with too few historically active
# addresses (do-no-harm policy); the paper traces its USC false negatives
# to exactly this threshold.
DEFAULT_MIN_EVER_ACTIVE = 15


@dataclass(frozen=True)
class MeasurementConfig:
    """Knobs for the full per-block measurement pipeline.

    ``fill_policy`` and ``max_fill_gap`` only matter on the degraded
    path: they choose how multi-round gaps in a faulty stream are filled
    before spectral analysis (see
    :func:`~repro.core.timeseries.fill_gaps`).
    """

    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)
    prober: ProberConfig = field(default_factory=ProberConfig)
    classifier: ClassifierConfig = field(default_factory=ClassifierConfig)
    min_ever_active: int = DEFAULT_MIN_EVER_ACTIVE
    trim_midnight: bool = True
    fill_policy: str = "hold"
    max_fill_gap: int | None = None


class RecordingEstimator:
    """Availability feedback that records the estimator state every round."""

    def __init__(self, estimator: AvailabilityEstimator) -> None:
        self.estimator = estimator
        self.a_short: list[float] = []
        self.a_long: list[float] = []
        self.a_operational: list[float] = []

    def current(self) -> float:
        return self.estimator.current()

    def observe(self, positives: int, total: int) -> None:
        self.estimator.observe(positives, total)
        self.a_short.append(self.estimator.a_short)
        self.a_long.append(self.estimator.a_long)
        self.a_operational.append(self.estimator.a_operational)

    def restart(self) -> None:
        self.estimator.restart()

    def series(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (
            np.array(self.a_short),
            np.array(self.a_long),
            np.array(self.a_operational),
        )


@dataclass
class BlockMeasurement:
    """Everything the pipeline learned about one block.

    ``report`` is the classification from the estimated Â_s (None when the
    block was skipped as too sparse); ``true_report`` is the classification
    from ground-truth A, available because the simulation knows the full
    response matrix (as a survey would).  ``quality`` is set only on the
    degraded path, where the estimate stream went through grid-and-fill
    cleaning.

    Every per-round array — counts, states, the three estimate series, and
    the truth — shares one length convention (``schedule.n_rounds``), and
    ``trim`` indexes into that shared axis; this holds for skipped blocks
    too and is enforced at construction.
    """

    block_id: int
    schedule: RoundSchedule
    positives: np.ndarray
    totals: np.ndarray
    states: np.ndarray
    a_short: np.ndarray
    a_long: np.ndarray
    a_operational: np.ndarray
    true_availability: np.ndarray
    trim: slice
    n_ever_active: int
    skipped: bool
    report: DiurnalReport | None
    true_report: DiurnalReport | None
    stationary: bool
    quality: QualityReport | None = None

    _ROUND_ARRAYS = (
        "positives",
        "totals",
        "states",
        "a_short",
        "a_long",
        "a_operational",
        "true_availability",
    )

    def __post_init__(self) -> None:
        n = self.schedule.n_rounds
        for name in self._ROUND_ARRAYS:
            length = len(getattr(self, name))
            if length != n:
                raise ValueError(
                    f"{name} has {length} rounds, schedule has {n}"
                )
        start, stop = self.trim.start or 0, self.trim.stop
        if stop is None or not 0 <= start <= stop <= n:
            raise ValueError(
                f"trim {self.trim} out of bounds for {n} rounds"
            )

    @classmethod
    def for_skipped(
        cls,
        block_id: int,
        schedule: RoundSchedule,
        truth: np.ndarray,
        trim: slice,
        n_ever_active: int,
    ) -> "BlockMeasurement":
        """A self-consistent result for a block the prober refused.

        Counts and estimate series are zero-filled to the schedule's
        length (same dtypes as the live path), no reports are produced,
        and stationarity is evaluated from the truth series exactly as on
        the measured path rather than hardcoded.
        """
        n = schedule.n_rounds
        zeros = np.zeros(n)
        times = schedule.times()
        return cls(
            block_id=block_id,
            schedule=schedule,
            positives=np.zeros(n, dtype=np.int16),
            totals=np.zeros(n, dtype=np.int16),
            states=np.zeros(n, dtype=np.int8),
            a_short=zeros.copy(),
            a_long=zeros.copy(),
            a_operational=zeros.copy(),
            true_availability=truth,
            trim=trim,
            n_ever_active=n_ever_active,
            skipped=True,
            report=None,
            true_report=None,
            stationary=is_stationary(
                times[trim], truth[trim], n_ever_active
            ),
        )

    @property
    def total_probes(self) -> int:
        return int(self.totals.sum())

    def probe_rate_per_hour(self) -> float:
        return probes_per_hour(self.total_probes, self.schedule)

    def mean_probes_per_round(self) -> float:
        return float(self.totals.mean()) if len(self.totals) else 0.0

    @property
    def mean_true_availability(self) -> float:
        return float(self.true_availability.mean())

    def observation_stream(
        self, series: str = "a_short", trimmed: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """One estimate series as a ``(times, values)`` observation stream.

        This is the bridge to the streaming engine: the returned pair can
        be fed to :meth:`repro.stream.engine.StreamEngine.ingest_many`
        round by round, replaying the measurement as if it were arriving
        live.  ``series`` names any per-round float series (``a_short``,
        ``a_long``, ``a_operational``, ``true_availability``);
        ``trimmed`` restricts to the midnight-aligned span the batch
        classifier saw.
        """
        if series not in self._ROUND_ARRAYS:
            raise ValueError(
                f"unknown series {series!r}; expected one of "
                f"{self._ROUND_ARRAYS}"
            )
        times = self.schedule.times()
        values = np.asarray(getattr(self, series), dtype=np.float64)
        if trimmed:
            return times[self.trim], values[self.trim]
        return times, values

    def underestimate_fraction(self) -> float:
        """Fraction of rounds where Â_o ≤ true A — the Figure 5 criterion.

        Rounds where the true availability is below the 0.1 operational
        floor are excluded: the paper omits very-sparse cases, which
        Trinocular would not probe and where Â_o cannot go low enough.
        """
        floor = 0.1
        comparable = self.true_availability >= floor
        if not comparable.any():
            return 1.0
        ok = self.a_operational[comparable] <= self.true_availability[comparable]
        return float(ok.mean())


@dataclass
class BlockFailure:
    """Record of one block that could not be measured.

    A failed block yields this instead of killing the batch; the error is
    captured as strings so failures serialize through checkpoints.
    """

    block_id: int
    index: int
    error_type: str
    message: str
    attempts: int

    def __str__(self) -> str:
        return (
            f"block {self.block_id} (index {self.index}) failed after "
            f"{self.attempts} attempt(s): {self.error_type}: {self.message}"
        )


def classify_ground_truth(
    oracle: ResponseOracle,
    schedule: RoundSchedule,
    config: MeasurementConfig | None = None,
) -> DiurnalReport:
    """Classify a block from its *true* availability series.

    This is the paper's ground-truth path (survey data in section 3.2.3):
    same cleaning and classifier, but fed the exact per-round A.
    """
    config = config or MeasurementConfig()
    series = oracle.true_availability()
    trim = (
        trim_to_midnight(schedule.times(), schedule.round_s)
        if config.trim_midnight
        else slice(0, len(series))
    )
    return classify_series(series[trim], schedule.round_s, config.classifier)


def measure_block(
    block: Block24,
    schedule: RoundSchedule,
    rng: np.random.Generator,
    config: MeasurementConfig | None = None,
    walk_seed: int | None = None,
    faults: "FaultPlan | None" = None,
) -> BlockMeasurement:
    """Run the full pipeline on one block.

    The oracle realization consumes ``rng``; the prober's pseudorandom walk
    uses ``walk_seed`` (or a draw from ``rng``) so runs are reproducible.
    ``faults`` optionally degrades the measurement: probe loss on the
    oracle, unscheduled prober crashes, and stream corruption of the Â_s
    observations, which are then re-cleaned through the grid/fill path and
    quality-gated before classification.
    """
    config = config or MeasurementConfig()
    times = schedule.times()
    oracle = block.realize(times, rng)
    ever_active = oracle.ever_active
    truth = oracle.true_availability()
    trim = (
        trim_to_midnight(times, schedule.round_s)
        if config.trim_midnight
        else slice(0, schedule.n_rounds)
    )

    if len(ever_active) < config.min_ever_active:
        return BlockMeasurement.for_skipped(
            block_id=block.block_id,
            schedule=schedule,
            truth=truth,
            trim=trim,
            n_ever_active=len(ever_active),
        )

    if faults is not None and not faults.is_clean:
        probed_oracle = faults.wrap_oracle(oracle)
        extra_restarts = faults.crash_rounds(schedule)
    else:
        probed_oracle = oracle
        extra_restarts = None

    if walk_seed is None:
        walk_seed = int(rng.integers(0, 2**31 - 1))
    prober_config = ProberConfig(
        max_probes_per_round=config.prober.max_probes_per_round,
        belief=config.prober.belief,
        walk_seed=walk_seed,
    )
    prober = AdaptiveProber(ever_active, prober_config)
    feedback = RecordingEstimator(AvailabilityEstimator(config.estimator))
    log = prober.run(
        probed_oracle, schedule, feedback, extra_restarts=extra_restarts
    )
    a_short, a_long, a_oper = feedback.series()

    quality: QualityReport | None = None
    if faults is not None and not faults.is_clean:
        obs_times, obs_values = faults.degrade_stream(
            times, a_short, schedule.round_s
        )
        if len(obs_times) == 0:
            a_short = np.full(schedule.n_rounds, np.nan)
            quality = QualityReport(
                n_rounds=schedule.n_rounds,
                n_observed=0,
                n_duplicates=0,
                n_filled=0,
                longest_gap=schedule.n_rounds,
            )
        else:
            a_short, quality = clean_observations(
                obs_times,
                obs_values,
                schedule.round_s,
                schedule.start_s,
                schedule.n_rounds,
                policy=config.fill_policy,
                max_gap=config.max_fill_gap,
            )

    report = classify_series(
        a_short[trim], schedule.round_s, config.classifier, quality=quality
    )
    true_report = classify_series(
        truth[trim], schedule.round_s, config.classifier
    )
    stationary = is_stationary(times[trim], truth[trim], len(ever_active))

    return BlockMeasurement(
        block_id=block.block_id,
        schedule=schedule,
        positives=log.positives,
        totals=log.totals,
        states=log.states,
        a_short=a_short,
        a_long=a_long,
        a_operational=a_oper,
        true_availability=truth,
        trim=trim,
        n_ever_active=len(ever_active),
        skipped=False,
        report=report,
        true_report=true_report,
        stationary=stationary,
        quality=quality,
    )


@dataclass(frozen=True)
class BatchConfig:
    """Resilience policy for a batch run.

    Attributes:
        measurement: the per-block pipeline configuration.
        faults: optional degradation scenario; each block gets an
            independent fault substream keyed by its batch index.
        max_retries: additional attempts per block after the first
            failure, each with a fresh deterministic seed substream.
        retry: full backoff policy for those attempts; ``None`` derives
            an instant-retry :class:`~repro.core.retry.RetryPolicy` from
            ``max_retries`` (bit-identical to the legacy loop).  When
            set, its ``max_retries`` takes precedence.
        fail_fast: re-raise the original exception instead of recording a
            :class:`BlockFailure` (legacy ``measure_blocks`` semantics).
        checkpoint_path: where to persist partial results; ``None``
            disables checkpointing.
        checkpoint_every: flush the checkpoint after this many newly
            completed blocks.
    """

    measurement: MeasurementConfig = field(default_factory=MeasurementConfig)
    faults: "FaultConfig | None" = None
    max_retries: int = 1
    retry: RetryPolicy | None = None
    fail_fast: bool = False
    checkpoint_path: str | Path | None = None
    checkpoint_every: int = 1000

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be at least 1")

    @property
    def retry_policy(self) -> RetryPolicy:
        """The effective policy (``retry``, or instant ``max_retries``)."""
        if self.retry is not None:
            return self.retry
        return RetryPolicy(max_retries=self.max_retries)


@dataclass
class BatchResult:
    """Index-aligned outcomes of one batch run.

    ``manifest`` is the run's telemetry record (seeds, fault plan,
    quality gates, stage timings, metric snapshot); it is attached by
    :class:`BatchRunner` and ``None`` for results built by hand.
    """

    results: list[Union[BlockMeasurement, BlockFailure]]
    n_resumed: int = 0
    manifest: "RunManifest | None" = None

    @property
    def n_blocks(self) -> int:
        return len(self.results)

    @property
    def measurements(self) -> list[BlockMeasurement]:
        return [r for r in self.results if isinstance(r, BlockMeasurement)]

    @property
    def failures(self) -> list[BlockFailure]:
        return [r for r in self.results if isinstance(r, BlockFailure)]

    def summary(self) -> str:
        ok = len(self.measurements)
        failed = len(self.failures)
        skipped = sum(1 for m in self.measurements if m.skipped)
        return (
            f"{self.n_blocks} blocks: {ok} measured ({skipped} skipped as "
            f"sparse), {failed} failed, {self.n_resumed} from checkpoint"
        )

    def replay_into(
        self,
        engine,
        series: str = "a_short",
        include_skipped: bool = False,
        flush: bool = True,
    ) -> int:
        """Feed every measurement into a streaming engine, block by block.

        ``engine`` is duck-typed (anything with ``ingest_many`` and
        ``flush``), so ``repro.core`` does not import ``repro.stream``;
        each block's series is one ``ingest_many(block_id, times,
        values)`` batch, the engine's only ingest path.
        Skipped-as-sparse blocks are omitted unless ``include_skipped``
        (their series are all zeros, not measurements).  Returns the
        number of observations fed.
        """
        n_fed = 0
        for m in self.measurements:
            if m.skipped and not include_skipped:
                continue
            times, values = m.observation_stream(series)
            engine.ingest_many(m.block_id, times, values)
            n_fed += len(times)
        if flush:
            engine.flush()
        return n_fed


class _RunnerMetrics:
    """Pre-bound batch-runner metrics (null registry by default)."""

    __slots__ = ("enabled", "measured", "skipped", "failed", "attempts",
                 "retries", "resumed", "checkpoints", "checkpoint_seconds",
                 "block_seconds")

    # Checkpoint writes run milliseconds to tens of seconds; per-block
    # measurement runs milliseconds to seconds.
    _CHECKPOINT_BUCKETS = (
        0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0,
    )
    _BLOCK_BUCKETS = (
        0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
        2.5, 5.0, 15.0,
    )

    def __init__(self, registry) -> None:
        self.enabled = registry.enabled
        self.measured = registry.counter("batch_blocks_total",
                                         outcome="measured")
        self.skipped = registry.counter("batch_blocks_total",
                                        outcome="skipped")
        self.failed = registry.counter("batch_blocks_total", outcome="failed")
        self.attempts = registry.counter("batch_attempts_total")
        self.retries = registry.counter("batch_retries_total")
        self.resumed = registry.counter("batch_blocks_resumed_total")
        self.checkpoints = registry.counter("batch_checkpoints_total")
        self.checkpoint_seconds = registry.histogram(
            "batch_checkpoint_seconds", buckets=self._CHECKPOINT_BUCKETS
        )
        self.block_seconds = registry.histogram(
            "batch_block_seconds", buckets=self._BLOCK_BUCKETS
        )


class BatchRunner:
    """Hardened batch measurement: isolation, retry, checkpoint, resume.

    Per-block randomness is derived exactly as the legacy
    ``measure_blocks`` did — one spawned :class:`numpy.random.SeedSequence`
    child per block, consumed on the first attempt — so a clean run is
    bit-identical to the old code, an interrupted-then-resumed run is
    bit-identical to an uninterrupted one, and a retry draws a fresh
    substream spawned from the same child (deterministic but independent
    of the failed attempt).

    ``metrics``/``tracer``/``events`` attach a
    :class:`repro.obs.MetricsRegistry` / :class:`repro.obs.Tracer` /
    :class:`repro.obs.EventLogger`; the defaults are the no-op null
    implementations.  Instrumentation never touches the RNG derivation
    or the measurement path, so instrumented runs stay bit-identical.
    """

    def __init__(
        self,
        config: BatchConfig | None = None,
        metrics=None,
        tracer=None,
        events=None,
    ) -> None:
        self.config = config or BatchConfig()
        self.metrics = NULL_REGISTRY if metrics is None else metrics
        self.tracer = NULL_TRACER if tracer is None else tracer
        events = NULL_EVENT_LOG if events is None else events
        if events.enabled and self.tracer.enabled:
            # Stamp every record with the active span so log lines
            # resolve into the trace tree.
            events = events.bind(tracer=self.tracer)
        self.events = events
        self._m = _RunnerMetrics(self.metrics)

    def run(
        self,
        blocks: list[Block24],
        schedule: RoundSchedule,
        seed: int = 0,
    ) -> BatchResult:
        with self.tracer.trace("batch.run", n_blocks=len(blocks), seed=seed):
            self.events.info(
                "run.start", kind="batch", n_blocks=len(blocks), seed=seed
            )
            result = self._run(blocks, schedule, seed)
            self.events.info("run.end", summary=result.summary())
        result.manifest = self._manifest(seed, len(blocks))
        return result

    def _run(
        self,
        blocks: list[Block24],
        schedule: RoundSchedule,
        seed: int,
    ) -> BatchResult:
        config = self.config
        children = np.random.SeedSequence(seed).spawn(len(blocks))
        fault_plan = self._fault_plan()

        completed = self._load_checkpoint(schedule, seed, len(blocks))
        n_resumed = len(completed)
        if n_resumed:
            self._m.resumed.inc(n_resumed)
            self.events.info("run.resumed", n_resumed=n_resumed)
        pending_since_flush = 0

        for index, (block, child) in enumerate(zip(blocks, children)):
            if index in completed:
                continue
            completed[index] = self._measure_one(
                block, index, schedule, child, fault_plan
            )
            self._count_outcome(completed[index])
            crashpoint("batch.block_done")
            pending_since_flush += 1
            if (
                config.checkpoint_path is not None
                and pending_since_flush >= config.checkpoint_every
            ):
                self._save_checkpoint(completed, schedule, seed, len(blocks))
                pending_since_flush = 0
                crashpoint("batch.checkpointed")

        if config.checkpoint_path is not None and pending_since_flush:
            self._save_checkpoint(completed, schedule, seed, len(blocks))

        results = [completed[i] for i in range(len(blocks))]
        return BatchResult(results=results, n_resumed=n_resumed)

    def _count_outcome(
        self, outcome: Union[BlockMeasurement, BlockFailure]
    ) -> None:
        if isinstance(outcome, BlockFailure):
            self._m.failed.inc()
        elif outcome.skipped:
            self._m.skipped.inc()
        else:
            self._m.measured.inc()

    def _manifest(self, seed: int, n_blocks: int) -> RunManifest:
        fault_plan = self._fault_plan()
        return RunManifest.capture(
            kind="batch",
            registry=self.metrics,
            seed=seed,
            n_blocks=n_blocks,
            fault_plan=(
                fault_plan.describe()
                if fault_plan is not None
                else "clean (no faults)"
            ),
            quality_gates=asdict(self.config.measurement.classifier),
            max_retries=self.config.max_retries,
            checkpoint_path=(
                str(self.config.checkpoint_path)
                if self.config.checkpoint_path is not None
                else None
            ),
            fill_policy=self.config.measurement.fill_policy,
        )

    def _fault_plan(self) -> "FaultPlan | None":
        if self.config.faults is None or self.config.faults.is_clean:
            return None
        from repro.faults.plan import FaultPlan

        return FaultPlan(
            self.config.faults, metrics=self.metrics, events=self.events
        )

    def _measure_one(
        self,
        block: Block24,
        index: int,
        schedule: RoundSchedule,
        child: np.random.SeedSequence,
        fault_plan: "FaultPlan | None",
    ) -> Union[BlockMeasurement, BlockFailure]:
        config = self.config
        policy = config.retry_policy
        plan = fault_plan.for_block(index) if fault_plan is not None else None
        last_error: Exception | None = None
        attempts = 0
        for attempt in policy.attempts():
            # Attempt 0 consumes the child itself (legacy-compatible);
            # each retry spawns the next substream off the same child.
            stream = child if attempt == 0 else child.spawn(1)[0]
            rng = np.random.default_rng(stream)
            attempts += 1
            self._m.attempts.inc()
            if attempt > 0:
                self._m.retries.inc()
                self.events.warning(
                    "block.retry",
                    index=index,
                    block_id=int(getattr(block, "block_id", -1)),
                    attempt=attempt,
                    delay_s=policy.delay_s(attempt),
                    error_type=type(last_error).__name__,
                    message=str(last_error),
                )
            try:
                with self.tracer.trace(
                    "batch.measure_block", index=index, attempt=attempt
                ):
                    t0 = time.perf_counter()
                    result = measure_block(
                        block,
                        schedule,
                        rng,
                        config.measurement,
                        faults=plan,
                    )
                    self._m.block_seconds.observe(time.perf_counter() - t0)
                return result
            except Exception as error:  # noqa: BLE001 — isolation boundary
                last_error = error
                if config.fail_fast:
                    raise
        assert last_error is not None
        failure = BlockFailure(
            block_id=int(getattr(block, "block_id", -1)),
            index=index,
            error_type=type(last_error).__name__,
            message=str(last_error),
            attempts=attempts,
        )
        self.events.error(
            "block.failed",
            index=index,
            block_id=failure.block_id,
            error_type=failure.error_type,
            message=failure.message,
            attempts=attempts,
        )
        return failure

    def _load_checkpoint(
        self, schedule: RoundSchedule, seed: int, n_blocks: int
    ) -> dict[int, Union[BlockMeasurement, BlockFailure]]:
        path = self.config.checkpoint_path
        if path is None or not Path(path).exists():
            return {}
        from repro.datasets.io import (
            CorruptCheckpointError,
            load_batch_checkpoint,
        )

        try:
            entries, ckpt_schedule, meta = load_batch_checkpoint(path)
        except CorruptCheckpointError:
            # Already typed, named, and (if damaged) quarantined by the
            # loader; the message carries everything a caller needs.
            raise
        except Exception as exc:
            raise ValueError(
                f"checkpoint {path} is corrupt or unreadable "
                f"({type(exc).__name__}: {exc}); delete it to start fresh"
            ) from exc
        if int(meta["seed"]) != seed or int(meta["n_blocks"]) != n_blocks:
            raise ValueError(
                f"checkpoint {path} was written for seed "
                f"{int(meta['seed'])} / {int(meta['n_blocks'])} blocks; "
                f"this run uses seed {seed} / {n_blocks} blocks"
            )
        if ckpt_schedule != schedule:
            raise ValueError(
                f"checkpoint {path} schedule {ckpt_schedule} does not match "
                f"this run's schedule {schedule}"
            )
        return entries

    def _save_checkpoint(
        self,
        completed: dict[int, Union[BlockMeasurement, BlockFailure]],
        schedule: RoundSchedule,
        seed: int,
        n_blocks: int,
    ) -> None:
        from repro.datasets.io import save_batch_checkpoint

        with self.tracer.trace("batch.checkpoint", n_entries=len(completed)):
            t0 = time.perf_counter()
            save_batch_checkpoint(
                self.config.checkpoint_path,
                completed,
                schedule,
                meta={"seed": seed, "n_blocks": n_blocks},
            )
            self._m.checkpoint_seconds.observe(time.perf_counter() - t0)
        self._m.checkpoints.inc()
        self.events.info(
            "checkpoint.saved",
            n_entries=len(completed),
            path=str(self.config.checkpoint_path),
        )


def measure_blocks(
    blocks: list[Block24],
    schedule: RoundSchedule,
    seed: int = 0,
    config: MeasurementConfig | None = None,
) -> list[BlockMeasurement]:
    """Measure a list of blocks with independent, reproducible randomness.

    Legacy strict interface over :class:`BatchRunner`: no retries, no
    checkpointing, and any per-block exception propagates.  Results are
    bit-identical to the pre-runner implementation.
    """
    runner = BatchRunner(
        BatchConfig(
            measurement=config or MeasurementConfig(),
            max_retries=0,
            fail_fast=True,
        )
    )
    return runner.run(blocks, schedule, seed=seed).measurements
