"""The streaming diurnal engine: incremental ingestion to live verdicts.

The batch pipeline classifies a block once, after the campaign ends.
This engine consumes the same per-round observations *as they arrive*
and maintains, per block:

* a bounded :class:`~repro.stream.window.RoundWindow` ring with the
  section 2.2 grid/duplicate/fill semantics (memory is O(window), not
  O(campaign));
* the hold-filled trailing window of frozen rounds and its running
  sum, so the window mean the sleep/wake edge detector needs costs O(1)
  per round; the provisional spectrum is one exact ``rfft`` of that
  window, computed only when :meth:`StreamEngine.provisional` is read;
* a hysteresis-stable diurnal label that only transitions after
  ``label_dwell`` consecutive window closes agree, so verdicts don't
  flap at the strict/relaxed boundary;
* an :class:`~repro.stream.events.EventBus` emitting typed events:
  window closes, classification transitions, sleep/wake phase edges,
  quality degradation/restoration, and dropped late observations.

Out-of-order delivery is handled with a watermark: rounds up to
``max_round − lateness_rounds`` are frozen; observations behind the
watermark are dropped (with a :class:`~repro.stream.events.
LateObservation` event) exactly because their window may already have
closed.  **Batch parity** is the correctness anchor: every window-close
verdict is produced by materializing the ring through the same
grid-and-fill code and calling the same classifier the batch path uses,
so the streaming report is bit-identical to
:func:`repro.core.classify.classify_series` over the identical window —
:func:`batch_window_report` is the oracle tests compare against.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.obs.export import RunManifest

from repro.core.classify import (
    ClassifierConfig,
    DiurnalClass,
    DiurnalReport,
    classify_series,
)
from repro.core.spectral import (
    diurnal_bin,
    diurnal_candidates,
    harmonic_bins,
)
from repro.core.timeseries import (
    FILL_POLICIES,
    QualityReport,
    clean_observations,
    round_index,
)
from repro.obs.events import NULL_EVENT_LOG
from repro.obs.registry import NULL_REGISTRY
from repro.obs.tracing import NULL_TRACER
from repro.probing.rounds import ROUND_SECONDS
from repro.stream.events import (
    ClassificationTransition,
    EventBus,
    LateObservation,
    PhaseEdge,
    QualityDegraded,
    QualityRestored,
    WindowClosed,
)
from repro.stream.window import RoundWindow

__all__ = [
    "ProvisionalEstimate",
    "StreamConfig",
    "StreamEngine",
    "batch_window_report",
]

_DAY_SECONDS = 86400.0


@dataclass(frozen=True)
class StreamConfig:
    """Knobs for the streaming engine.

    Attributes:
        window_rounds: spectral window length in rounds; must span at
            least one whole day (the classifier needs a diurnal bin).
        round_s: grid period in seconds (660 in all paper datasets).
        start_s: absolute time of round 0 (the grid origin).
        hop_rounds: rounds between window closes; ``None`` means
            tumbling windows (hop = window).
        lateness_rounds: how many rounds behind the newest observation
            the watermark trails; out-of-order delivery within this
            slack is reordered correctly, anything older is dropped.
        fill_policy: gap-fill policy for window materialization (see
            :data:`repro.core.timeseries.FILL_POLICIES`).
        max_fill_gap: bound on filled gap length (``None`` fills all).
        classifier: thresholds shared with the batch classifier.
        label_dwell: consecutive closes a new label needs before the
            stable label transitions (1 disables hysteresis).
        edge_margin: half-width of the dead band around the trailing
            window mean for sleep/wake edge detection, in availability
            units.
    """

    window_rounds: int
    round_s: float = ROUND_SECONDS
    start_s: float = 0.0
    hop_rounds: int | None = None
    lateness_rounds: int = 0
    fill_policy: str = "hold"
    max_fill_gap: int | None = None
    classifier: ClassifierConfig = field(default_factory=ClassifierConfig)
    label_dwell: int = 2
    edge_margin: float = 0.05

    def __post_init__(self) -> None:
        if self.window_rounds < 4:
            raise ValueError("window_rounds must be at least 4")
        if self.round_s <= 0:
            raise ValueError("round_s must be positive")
        # Raises for windows shorter than one day, where no diurnal bin
        # exists and every close would fail.
        diurnal_bin(self.window_rounds, self.round_s)
        if self.hop is not None and not 1 <= self.hop <= self.window_rounds:
            raise ValueError(
                "hop_rounds must be in [1, window_rounds]"
            )
        if self.lateness_rounds < 0:
            raise ValueError("lateness_rounds must be non-negative")
        if self.fill_policy not in FILL_POLICIES:
            raise ValueError(
                f"unknown fill policy {self.fill_policy!r}; "
                f"expected one of {FILL_POLICIES}"
            )
        if self.label_dwell < 1:
            raise ValueError("label_dwell must be at least 1")
        if self.edge_margin < 0:
            raise ValueError("edge_margin must be non-negative")

    @property
    def hop(self) -> int:
        return (
            self.window_rounds if self.hop_rounds is None else self.hop_rounds
        )

    @classmethod
    def for_days(
        cls,
        window_days: float,
        hop_days: float | None = None,
        round_s: float = ROUND_SECONDS,
        **kwargs,
    ) -> "StreamConfig":
        """Window/hop expressed in days, rounded to whole rounds."""
        window = int(round(window_days * _DAY_SECONDS / round_s))
        hop = (
            None
            if hop_days is None
            else max(1, int(round(hop_days * _DAY_SECONDS / round_s)))
        )
        return cls(
            window_rounds=window, round_s=round_s, hop_rounds=hop, **kwargs
        )


@dataclass(frozen=True)
class ProvisionalEstimate:
    """Spectral state of the trailing window, computed when read.

    Verdicts only happen at window closes; between closes this is the
    live view: the trailing window's mean, its 1-cycle/day amplitude and
    phase, and the strongest harmonic.  The values are exact — one
    ``np.fft.rfft`` of the hold-filled trailing window, oldest round
    first, rounds not yet filled counted as 0.  ``primed`` is False
    until the trailing window is fully covered by observed (or held)
    rounds, when the numbers are not yet meaningful.
    """

    block_id: int
    round_index: int
    time_s: float
    mean: float
    diurnal_k: int
    diurnal_amplitude: float
    diurnal_phase: float
    strongest_harmonic: float
    primed: bool

    @property
    def looks_diurnal(self) -> bool:
        """Cheap per-round indicator: diurnal energy beats every harmonic."""
        return (
            self.primed
            and self.diurnal_amplitude > 0
            and self.diurnal_amplitude > self.strongest_harmonic
        )


class _BlockState:
    """Everything the engine tracks for one block."""

    __slots__ = (
        "ring",
        "filled_ring",
        "window_sum",
        "last_filled",
        "trailing_missing",
        "max_round",
        "watermark",
        "next_close_start",
        "stable_label",
        "candidate",
        "candidate_count",
        "stable_run",
        "last_edge_round",
        "degraded",
        "level",
        "last_report",
        "n_closed",
        "n_late",
        "n_observations",
    )

    def __init__(self, capacity: int, window: int) -> None:
        self.ring = RoundWindow(capacity)
        self.filled_ring = np.full(window, np.nan)
        self.window_sum = 0.0
        self.last_filled = float("nan")
        self.trailing_missing = window
        self.max_round = -1
        self.watermark = -1
        self.next_close_start = 0
        self.stable_label: DiurnalClass | None = None
        self.candidate: DiurnalClass | None = None
        self.candidate_count = 0
        self.stable_run = 0
        self.last_edge_round: int | None = None
        self.degraded = False
        self.level: str | None = None
        self.last_report: DiurnalReport | None = None
        self.n_closed = 0
        self.n_late = 0
        self.n_observations = 0


class _EngineMetrics:
    """Pre-bound engine metrics; one attribute load + no-op call when off.

    Bucket bounds for close latency cover the observed range: a window
    close is one materialize + one FFT classify, tens of microseconds to
    a few milliseconds.
    """

    __slots__ = ("enabled", "ingested", "late", "invalid", "frozen",
                 "closes", "partial_closes", "transitions", "blocks",
                 "close_seconds", "ingest_rate")

    _CLOSE_BUCKETS = (
        1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 5e-3, 2.5e-2, 0.1,
    )

    def __init__(self, registry) -> None:
        self.enabled = registry.enabled
        self.ingested = registry.counter("stream_observations_total")
        self.late = registry.counter("stream_late_observations_total")
        self.invalid = registry.counter("stream_invalid_observations_total")
        self.frozen = registry.counter("stream_rounds_frozen_total")
        self.closes = registry.counter(
            "stream_window_closes_total", partial="false"
        )
        self.partial_closes = registry.counter(
            "stream_window_closes_total", partial="true"
        )
        self.transitions = registry.counter("stream_label_transitions_total")
        self.blocks = registry.gauge("stream_tracked_blocks")
        self.close_seconds = registry.histogram(
            "stream_close_seconds", buckets=self._CLOSE_BUCKETS
        )
        self.ingest_rate = registry.meter("stream_close_interval_observations")


class StreamEngine:
    """Consume per-round observations, maintain verdicts, emit events.

    ``metrics``/``tracer``/``events`` attach a
    :class:`repro.obs.MetricsRegistry` / :class:`repro.obs.Tracer` /
    :class:`repro.obs.EventLogger`; by default the null implementations
    keep every code path allocation-free.  Instrumentation is strictly
    observational — verdicts, events, and state are bit-identical with
    or without it (``tests/test_obs_parity.py``).  The structured event
    log mirrors the typed bus events that matter operationally: late
    drops, quality degradation/restoration, label transitions, and
    (at debug level, for flight recorders) every window close.
    """

    def __init__(
        self,
        config: StreamConfig,
        sinks=(),
        metrics=None,
        tracer=None,
        events=None,
    ) -> None:
        self.config = config
        self.bus = EventBus(sinks)
        self.metrics = NULL_REGISTRY if metrics is None else metrics
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.events = NULL_EVENT_LOG if events is None else events
        self._m = _EngineMetrics(self.metrics)
        self._since_close = 0
        # Hot-path event tallies are plain ints, synced to the registry
        # at close/flush boundaries — a locked counter increment per
        # observation would dominate the ingest cost (see
        # ``benchmarks/test_abl_obs_overhead.py``).  Totals are exact at
        # every observation point (after ``flush`` or a window close).
        self._pending_ingested = 0
        self._pending_late = 0
        self._pending_invalid = 0
        self._pending_frozen = 0
        self._n_invalid = 0
        self._states: dict[int, _BlockState] = {}
        n = config.window_rounds
        n_bins = n // 2 + 1
        k_d = diurnal_bin(n, config.round_s)
        self._cand = np.array(
            diurnal_candidates(n, config.round_s), dtype=np.int64
        )
        self._harmonics = harmonic_bins(
            k_d,
            n_bins,
            max_harmonic=config.classifier.max_harmonic,
            tolerance=config.classifier.harmonic_tolerance,
        )
        self._capacity = n + config.hop + config.lateness_rounds + 2

    # -- ingestion ---------------------------------------------------------

    def ingest(self, block_id: int, time_s: float, value: float) -> None:
        """Process one observation: a batch of one (:meth:`ingest_many`)."""
        self.ingest_many(block_id, (time_s,), (value,))

    def ingest_many(self, block_ids, times, values) -> None:
        """Process observations in arrival order (any order within the
        lateness slack); ``block_ids`` broadcasts against ``times``.

        Validation and round gridding run once per batch; one loop then
        walks the observations through the watermark, late-drop, ring
        and advance state machine, so any split of an arrival sequence
        into batches yields the same events and state.  Non-finite
        times/values (a corrupt frame, a broken sensor) are dropped at
        their position in that loop before they can poison the ring:
        each is a ``stream.invalid_observation`` event and a
        ``stream_invalid_observations_total`` count, never an exception
        — invalid input is an operational condition, not a bug.
        """
        ids, times, values = _as_batch(block_ids, times, values)
        valid, rounds = _grid(self.config, times, values)
        lateness = self.config.lateness_rounds
        for block_id, time_s, value, r, ok in zip(
            ids.tolist(), times.tolist(), values.tolist(), rounds.tolist(),
            valid.tolist(),
        ):
            if not ok:
                self._pending_invalid += 1
                self._n_invalid += 1
                self.events.warning(
                    "stream.invalid_observation",
                    block_id=block_id,
                    time_s=repr(time_s),
                    value=repr(value),
                )
                continue
            state = self._state(block_id)
            if r < 0 or r <= state.watermark:
                state.n_late += 1
                self._pending_late += 1
                self.bus.publish(
                    LateObservation(
                        block_id=block_id,
                        round_index=r,
                        time_s=time_s,
                        value=value,
                        lag_rounds=state.watermark - r,
                    )
                )
                self.events.warning(
                    "stream.late_drop",
                    block_id=block_id,
                    round_index=r,
                    lag_rounds=state.watermark - r,
                )
                continue
            if r >= state.ring.base + state.ring.capacity:
                # A jump ahead: freeze/close/evict everything that must
                # precede this round so the ring has room for it.
                self._advance(state, block_id, r - lateness - 1)
            state.ring.observe(r, time_s, value)
            state.n_observations += 1
            self._pending_ingested += 1
            self._since_close += 1
            if r > state.max_round:
                state.max_round = r
                # The newest round itself stays open (a same-round
                # duplicate must still be able to revise it), so the
                # watermark trails one round behind the lateness slack.
                if r - lateness - 1 > state.watermark:
                    self._advance(state, block_id, r - lateness - 1)

    def flush(
        self, block_id: int | None = None, close_partial: bool = False
    ) -> None:
        """Expire the lateness slack: freeze and close everything due.

        With ``close_partial`` the tail beyond the last full window is
        also classified (when it spans at least one day), exactly as the
        batch path would classify the same shorter window.
        """
        ids = [block_id] if block_id is not None else list(self._states)
        for bid in ids:
            state = self._states[bid]
            if state.max_round > state.watermark:
                self._advance(state, bid, state.max_round)
            if close_partial and state.next_close_start <= state.max_round:
                n_tail = state.max_round - state.next_close_start + 1
                self._close_window(state, bid, n_tail, partial=True)
        self._sync_counters()

    # -- accessors ---------------------------------------------------------

    def blocks(self) -> list[int]:
        return sorted(self._states)

    def watermark(self, block_id: int) -> int:
        return self._states[block_id].watermark

    def stable_label(self, block_id: int) -> DiurnalClass | None:
        """The hysteresis-smoothed label (None before the first close)."""
        return self._states[block_id].stable_label

    def last_report(self, block_id: int) -> DiurnalReport | None:
        return self._states[block_id].last_report

    def n_late(self, block_id: int) -> int:
        return self._states[block_id].n_late

    @property
    def n_invalid(self) -> int:
        """Observations dropped for non-finite time/value, all blocks."""
        return self._n_invalid

    def tracked(self, block_id: int) -> bool:
        """Whether the engine has any state for this block yet."""
        return block_id in self._states

    def stable_run(self, block_id: int) -> int:
        """Consecutive closes agreeing with the current stable label.

        0 before the first close (or right after a dissenting close);
        large values mean the block has been boringly stable for many
        windows — exactly the blocks the overload shedder can afford to
        thin out first.  Unknown blocks report 0.
        """
        state = self._states.get(block_id)
        return 0 if state is None else state.stable_run

    def last_edge_round(self, block_id: int) -> int | None:
        """The round of the block's most recent sleep/wake phase edge."""
        state = self._states.get(block_id)
        return None if state is None else state.last_edge_round

    def next_close_start(self, block_id: int) -> int:
        """First round of the next window this block will close."""
        state = self._states.get(block_id)
        return 0 if state is None else state.next_close_start

    def window_mean(self, block_id: int) -> float | None:
        """Mean of the trailing window of frozen rounds, in O(1).

        ``None`` until the window is primed (every round in it observed
        or held) and for untracked blocks.  This is the midline the
        sleep/wake edge detector and the overload shedder compare
        samples against; reading it never builds a spectrum.
        """
        state = self._states.get(block_id)
        if state is None or state.trailing_missing:
            return None
        return self._mean(state)

    def provisional(self, block_id: int) -> ProvisionalEstimate:
        """The trailing window's spectral state: one exact ``rfft``."""
        state = self._states[block_id]
        n = self.config.window_rounds
        # ``filled_ring[r % n]`` holds round r; roll the oldest retained
        # round to the front.  Rounds not yet filled count as 0, the
        # zero-padded history of a priming window.
        window = np.roll(state.filled_ring, -((state.watermark + 1) % n))
        coefficients = np.fft.rfft(np.nan_to_num(window, nan=0.0))
        cand_amps = np.abs(coefficients[self._cand])
        best = int(np.argmax(cand_amps))
        k_best = int(self._cand[best])
        strongest_harmonic = (
            float(np.abs(coefficients[self._harmonics]).max())
            if len(self._harmonics)
            else 0.0
        )
        return ProvisionalEstimate(
            block_id=block_id,
            round_index=state.watermark,
            time_s=self._round_time(state.watermark),
            mean=self._mean(state),
            diurnal_k=k_best,
            diurnal_amplitude=float(cand_amps[best]),
            diurnal_phase=float(np.angle(coefficients[k_best])),
            strongest_harmonic=strongest_harmonic,
            primed=state.trailing_missing == 0,
        )

    def snapshot(self, block_id: int) -> dict | None:
        """Queryable state of one block (``None`` when untracked).

        This is the read surface the serving layer exposes per block:
        the hysteresis-stable label, the last window-close report (the
        bit-identical-to-batch verdict), the provisional spectral
        estimate, and the ingest bookkeeping an operator asks about
        (watermark, late/observation counts).  Values are engine-native
        objects — :func:`repro.serve.shard.snapshot_to_dict` flattens
        them for JSON transport.
        """
        state = self._states.get(block_id)
        if state is None:
            return None
        return {
            "block_id": block_id,
            "watermark": state.watermark,
            "max_round": state.max_round,
            "next_close_start": state.next_close_start,
            "stable_label": state.stable_label,
            "stable_run": state.stable_run,
            "last_report": state.last_report,
            "n_closed": state.n_closed,
            "n_late": state.n_late,
            "n_observations": state.n_observations,
            "last_edge_round": state.last_edge_round,
            "degraded": state.degraded,
            "provisional": self.provisional(block_id),
        }

    def phase_map(self) -> dict[int, dict]:
        """Diurnal phase per block whose last verdict is diurnal.

        The live counterpart of the paper's Fig. 14 input: for every
        block whose most recent window close was strictly or relaxed
        diurnal, the winning bin, its FFT phase (radians), amplitude,
        and the hysteresis-stable label.  Non-diurnal and unclassified
        blocks are omitted — their phase is noise by definition.
        """
        out: dict[int, dict] = {}
        for block_id, state in self._states.items():
            report = state.last_report
            if report is None or not report.label.is_diurnal:
                continue
            out[block_id] = {
                "label": report.label.value,
                "stable_label": (
                    state.stable_label.value
                    if state.stable_label is not None
                    else None
                ),
                "diurnal_k": report.diurnal_k,
                "phase": report.phase,
                "amplitude": report.diurnal_amplitude,
                "watermark": state.watermark,
                # Freshness key for replicated serving: two replicas of
                # the same block compare applied-observation counts to
                # decide whose entry wins a merge.
                "n_observations": state.n_observations,
            }
        return out

    def manifest(self, **extra) -> "RunManifest":
        """Telemetry manifest for this engine's run so far.

        Captures the quality gates, tracked-block count, stage timings
        (from the registry's histograms), and the current metric values;
        pass free-form keywords (dataset name, campaign id, ...) for the
        ``extra`` section.
        """
        from dataclasses import asdict

        from repro.obs.export import RunManifest

        self._sync_counters()
        return RunManifest.capture(
            kind="stream",
            registry=self.metrics,
            n_blocks=len(self._states),
            quality_gates=asdict(self.config.classifier),
            window_rounds=self.config.window_rounds,
            hop_rounds=self.config.hop,
            lateness_rounds=self.config.lateness_rounds,
            fill_policy=self.config.fill_policy,
            **extra,
        )

    # -- internals ---------------------------------------------------------

    def _sync_counters(self) -> None:
        """Flush pending hot-path tallies into the metrics registry."""
        if self._pending_ingested:
            self._m.ingested.inc(self._pending_ingested)
            self._pending_ingested = 0
        if self._pending_late:
            self._m.late.inc(self._pending_late)
            self._pending_late = 0
        if self._pending_invalid:
            self._m.invalid.inc(self._pending_invalid)
            self._pending_invalid = 0
        if self._pending_frozen:
            self._m.frozen.inc(self._pending_frozen)
            self._pending_frozen = 0

    def _state(self, block_id: int) -> _BlockState:
        state = self._states.get(block_id)
        if state is None:
            state = _BlockState(self._capacity, self.config.window_rounds)
            self._states[block_id] = state
            self._m.blocks.inc()
        return state

    def _round_time(self, r: int) -> float:
        return self.config.start_s + r * self.config.round_s

    def _mean(self, state: _BlockState) -> float:
        return float(state.window_sum) / self.config.window_rounds

    def _advance(self, state: _BlockState, block_id: int, target: int) -> None:
        close_at = state.next_close_start + self.config.window_rounds - 1
        for f in range(state.watermark + 1, target + 1):
            self._freeze_round(state, block_id, f)
            state.watermark = f
            if f == close_at:
                self._close_window(
                    state, block_id, self.config.window_rounds, partial=False
                )
                close_at = (
                    state.next_close_start + self.config.window_rounds - 1
                )

    def _freeze_round(
        self, state: _BlockState, block_id: int, f: int
    ) -> None:
        """Fix round ``f``'s held value and slide it into the window sum."""
        n = self.config.window_rounds
        raw = state.ring.value_at(f)
        if np.isnan(raw):
            filled = state.last_filled
        else:
            filled = raw
            state.last_filled = raw
        i = f % n
        evicted = state.filled_ring[i]
        state.filled_ring[i] = filled
        entering_nan = np.isnan(filled)
        evicted_nan = np.isnan(evicted)
        # Unfilled rounds count as 0, as in the provisional spectrum.
        state.window_sum = (
            state.window_sum
            - (0.0 if evicted_nan else evicted)
            + (0.0 if entering_nan else filled)
        )
        state.trailing_missing += int(entering_nan) - int(evicted_nan)
        self._pending_frozen += 1
        if state.trailing_missing == 0 and not entering_nan:
            self._phase_edge(state, block_id, f, filled)

    def _phase_edge(
        self, state: _BlockState, block_id: int, f: int, value: float
    ) -> None:
        mean = self._mean(state)
        if value > mean + self.config.edge_margin:
            level = "high"
        elif value < mean - self.config.edge_margin:
            level = "low"
        else:
            return
        if state.level is None:
            state.level = level
            return
        if level != state.level:
            state.level = level
            state.last_edge_round = f
            self.bus.publish(
                PhaseEdge(
                    block_id=block_id,
                    round_index=f,
                    time_s=self._round_time(f),
                    edge="wake" if level == "high" else "sleep",
                    value=value,
                    window_mean=mean,
                )
            )

    def _close_window(
        self,
        state: _BlockState,
        block_id: int,
        n_rounds: int,
        partial: bool,
    ) -> None:
        if not (self._m.enabled or self.tracer.enabled):
            self._close_window_impl(state, block_id, n_rounds, partial)
            return
        with self.tracer.trace(
            "stream.close_window", block=block_id, partial=partial
        ):
            t0 = time.perf_counter()
            self._close_window_impl(state, block_id, n_rounds, partial)
            self._m.close_seconds.observe(time.perf_counter() - t0)
        self._m.ingest_rate.observe(self._since_close)
        self._since_close = 0
        self._sync_counters()

    def _close_window_impl(
        self,
        state: _BlockState,
        block_id: int,
        n_rounds: int,
        partial: bool,
    ) -> None:
        w_start = state.next_close_start
        values, quality = state.ring.materialize(
            w_start,
            n_rounds,
            policy=self.config.fill_policy,
            max_gap=self.config.max_fill_gap,
        )
        try:
            report = classify_series(
                values, self.config.round_s, self.config.classifier,
                quality=quality,
            )
        except ValueError:
            # Only reachable on a partial close too short to classify;
            # full windows are validated at config time.
            if not partial:
                raise
            return
        end_round = w_start + n_rounds - 1
        self.bus.publish(
            WindowClosed(
                block_id=block_id,
                round_index=end_round,
                time_s=self._round_time(end_round),
                window_start_round=w_start,
                n_rounds=n_rounds,
                report=report,
                quality=quality,
                partial=partial,
            )
        )
        state.last_report = report
        state.n_closed += 1
        (self._m.partial_closes if partial else self._m.closes).inc()
        self.events.debug(
            "stream.window_closed",
            block_id=block_id,
            end_round=end_round,
            n_rounds=n_rounds,
            partial=partial,
            label=report.label.value,
        )
        self._quality_events(state, block_id, end_round, report, quality)
        self._hysteresis(state, block_id, end_round, report)
        state.next_close_start = (
            end_round + 1 if partial else w_start + self.config.hop
        )
        state.ring.advance_base(state.next_close_start)

    def _quality_events(
        self,
        state: _BlockState,
        block_id: int,
        end_round: int,
        report: DiurnalReport,
        quality: QualityReport,
    ) -> None:
        degraded_now = not report.is_classified
        if degraded_now and not state.degraded:
            state.degraded = True
            if quality.n_observed == 0:
                reason = "no observations in window"
            elif not quality.usable(
                max_gap_fraction=self.config.classifier.max_gap_fraction,
                max_longest_gap=self.config.classifier.max_longest_gap,
            ):
                reason = (
                    f"quality gate: {quality.gap_fraction:.1%} missing, "
                    f"longest gap {quality.longest_gap} rounds"
                )
            else:
                reason = "filled series still contains NaN"
            self.bus.publish(
                QualityDegraded(
                    block_id=block_id,
                    round_index=end_round,
                    time_s=self._round_time(end_round),
                    quality=quality,
                    reason=reason,
                )
            )
            self.events.warning(
                "stream.quality_degraded",
                block_id=block_id,
                end_round=end_round,
                reason=reason,
            )
        elif not degraded_now and state.degraded:
            state.degraded = False
            self.bus.publish(
                QualityRestored(
                    block_id=block_id,
                    round_index=end_round,
                    time_s=self._round_time(end_round),
                    quality=quality,
                )
            )
            self.events.info(
                "stream.quality_restored",
                block_id=block_id,
                end_round=end_round,
            )

    def _hysteresis(
        self,
        state: _BlockState,
        block_id: int,
        end_round: int,
        report: DiurnalReport,
    ) -> None:
        label = report.label

        def publish(old: DiurnalClass | None, dwell: int) -> None:
            self._m.transitions.inc()
            self.bus.publish(
                ClassificationTransition(
                    block_id=block_id,
                    round_index=end_round,
                    time_s=self._round_time(end_round),
                    old_label=old,
                    new_label=label,
                    report=report,
                    dwell=dwell,
                )
            )
            self.events.info(
                "stream.label_transition",
                block_id=block_id,
                end_round=end_round,
                old_label=old.value if old is not None else None,
                new_label=label.value,
                dwell=dwell,
            )

        if state.stable_label is None:
            state.stable_label = label
            state.stable_run = 1
            publish(None, 1)
        elif label == state.stable_label:
            state.candidate = None
            state.candidate_count = 0
            state.stable_run += 1
        else:
            state.stable_run = 0
            if label == state.candidate:
                state.candidate_count += 1
            else:
                state.candidate = label
                state.candidate_count = 1
            if state.candidate_count >= self.config.label_dwell:
                old = state.stable_label
                state.stable_label = label
                state.stable_run = 1
                publish(old, state.candidate_count)
                state.candidate = None
                state.candidate_count = 0


def _as_batch(block_ids, times, values):
    """Aligned 1-D ``(ids, times, values)``; ``block_ids`` broadcasts."""
    times = np.array(times, dtype=np.float64, ndmin=1, copy=None)
    values = np.array(values, dtype=np.float64, ndmin=1, copy=None)
    if times.shape != values.shape:
        raise ValueError("times and values must have the same shape")
    ids = np.asarray(block_ids)
    if ids.shape != times.shape:
        ids = np.full(times.shape, ids)
    return ids, times, values


def _grid(config: StreamConfig, times: np.ndarray, values: np.ndarray):
    """Finite mask and grid round per observation (-1 where non-finite)."""
    valid = np.isfinite(times) & np.isfinite(values)
    rounds = round_index(
        np.where(valid, times, config.start_s), config.round_s, config.start_s
    )
    rounds[~valid] = -1
    return valid, rounds


def batch_window_report(
    times: np.ndarray,
    values: np.ndarray,
    window_start_round: int,
    n_rounds: int,
    config: StreamConfig,
) -> tuple[DiurnalReport, QualityReport]:
    """The batch-path verdict for one hop window of a raw stream.

    This is the parity oracle: select the observations that grid into
    ``[window_start_round, window_start_round + n_rounds)``, run them
    through :func:`repro.core.timeseries.clean_observations`, and
    classify.  For every window the engine closes, its report must equal
    this one field-for-field (see
    :func:`repro.core.classify.reports_equal`).
    """
    times = np.asarray(times, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    idx = round_index(times, config.round_s, config.start_s)
    in_window = (idx >= window_start_round) & (
        idx < window_start_round + n_rounds
    )
    window_start_s = (
        config.start_s + window_start_round * config.round_s
    )
    series, quality = clean_observations(
        times[in_window],
        values[in_window],
        config.round_s,
        window_start_s,
        n_rounds,
        policy=config.fill_policy,
        max_gap=config.max_fill_gap,
    )
    report = classify_series(
        series, config.round_s, config.classifier, quality=quality
    )
    return report, quality
