"""The streaming diurnal engine: incremental ingestion to live verdicts.

The batch pipeline classifies a block once, after the campaign ends;
this engine consumes the same per-round observations *as they arrive*.
Each block owns one slot of a :class:`~repro.stream.window.RoundStore`:
a bounded ring of raw rounds with the section 2.2 grid/duplicate/fill
semantics, the hold-filled trailing window of frozen rounds and its
running sum (the sleep/wake edge midline; the provisional spectrum is
one ``rfft`` of it, computed when read).  Closes feed a hysteresis-stable
label; an :class:`~repro.stream.events.EventBus` carries typed events.

A batch is array work over every block it touches: late drops come
from per-block running maxima, the rest scatter into the store
most-recent-wins, and each touched block's released rounds freeze at
once.  Python runs per event, in the order observation-at-a-time ingest
emits them, so any split of a batch gives the same events and state.
The watermark trails a block's newest round by ``lateness_rounds + 1``;
observations at or behind it are dropped, as their window may already
have closed.  **Batch parity** is the correctness anchor: each close
materializes the ring through the batch path's grid-and-fill code and
calls the same classifier, so its report is bit-identical to
:func:`repro.core.classify.classify_series` over the same window
(:func:`batch_window_report` is the oracle).
"""

from __future__ import annotations

import time
from bisect import bisect_left
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
from repro.stream.window import RoundStore

__all__ = [
    "ProvisionalEstimate",
    "StreamConfig",
    "StreamEngine",
    "batch_window_report",
]

_DAY_SECONDS = 86400.0
# Event kinds, in the order they fire for one (observation, round).
_INVALID, _LATE, _EDGE, _CLOSE = range(4)
# "No earlier round" in a running maximum: far below any round.
_NO_ROUND = np.iinfo(np.int64).min // 2


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
        if not 1 <= self.hop <= self.window_rounds:
            raise ValueError("hop_rounds must be in [1, window_rounds]")
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
        return self.window_rounds if self.hop_rounds is None else self.hop_rounds

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
        hop = None if hop_days is None else max(
            1, int(round(hop_days * _DAY_SECONDS / round_s)))
        return cls(window_rounds=window, round_s=round_s, hop_rounds=hop, **kwargs)


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


class _Verdict:
    """A block's close-time state (hysteresis, quality flag, last report):
    it changes only at closes, so it is an object per slot, not a column."""

    __slots__ = ("stable_label", "candidate", "candidate_count",
                 "stable_run", "degraded", "last_report")

    def __init__(self) -> None:
        self.stable_label: DiurnalClass | None = None
        self.candidate: DiurnalClass | None = None
        self.candidate_count = self.stable_run = 0
        self.degraded = False
        self.last_report: DiurnalReport | None = None


class _EngineMetrics:
    """Pre-bound engine metrics; one attribute load + no-op call when off.
    Close-latency buckets span one materialize + FFT classify (10 µs–0.1 s)."""

    def __init__(self, registry) -> None:
        counter = registry.counter
        self.enabled = registry.enabled
        self.ingested = counter("stream_observations_total")
        self.late = counter("stream_late_observations_total")
        self.invalid = counter("stream_invalid_observations_total")
        self.frozen = counter("stream_rounds_frozen_total")
        self.closes = counter("stream_window_closes_total", partial="false")
        self.partial_closes = counter("stream_window_closes_total", partial="true")
        self.transitions = counter("stream_label_transitions_total")
        self.blocks = registry.gauge("stream_tracked_blocks")
        self.close_seconds = registry.histogram("stream_close_seconds", buckets=(
            1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 5e-3, 2.5e-2, 0.1))
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

    def __init__(self, config: StreamConfig, sinks=(), metrics=None,
                 tracer=None, events=None) -> None:
        self.config = config
        self.bus = EventBus(sinks)
        self.metrics = NULL_REGISTRY if metrics is None else metrics
        self.tracer = NULL_TRACER if tracer is None else tracer
        self.events = NULL_EVENT_LOG if events is None else events
        self._m = _EngineMetrics(self.metrics)
        # Observations since the last close; ``_admitted`` of the current
        # batch's are already counted in it.
        self._since_close = self._admitted = 0
        # Hot-path tallies are plain ints, synced to the registry at
        # close/flush boundaries (``benchmarks/test_abl_obs_overhead.py``);
        # totals are exact after ``flush`` or a window close.
        self._pending_ingested = self._pending_late = 0
        self._pending_invalid = self._pending_frozen = self._n_invalid = 0
        n = config.window_rounds
        self._cand = np.array(diurnal_candidates(n, config.round_s), dtype=np.int64)
        self._harmonics = harmonic_bins(
            diurnal_bin(n, config.round_s), n // 2 + 1,
            max_harmonic=config.classifier.max_harmonic,
            tolerance=config.classifier.harmonic_tolerance,
        )
        # One slot per block.  The ring spans a window, a hop and the
        # lateness slack, so no close needs an evicted round.  ``level``
        # is +1 high, -1 low, 0 unset; ``filled`` holds round r of the
        # hold-filled trailing window in column r % n.
        i8, f8 = np.int64, np.float64
        self._store = RoundStore(
            n + config.hop + config.lateness_rounds + 2,
            columns=(
                ("watermark", i8, -1, None), ("next_close", i8, 0, None),
                ("last_filled", f8, np.nan, None),
                ("window_sum", f8, 0.0, None), ("missing", i8, n, None),
                ("level", np.int8, 0, None), ("last_edge", i8, -1, None),
                ("n_closed", i8, 0, None), ("n_late", i8, 0, None),
                ("n_observations", i8, 0, None), ("filled", f8, np.nan, n),
            ),
        )
        self._slot_of: dict = {}
        self._block_ids: list = []
        self._verdicts: list[_Verdict] = []

    # -- ingestion ---------------------------------------------------------

    def ingest(self, block_id: int, time_s: float, value: float) -> None:
        """Process one observation: a batch of one (:meth:`ingest_many`)."""
        self.ingest_many(block_id, (time_s,), (value,))

    def ingest_many(self, block_ids, times, values) -> None:
        """Process observations in arrival order (any order within the
        lateness slack); ``block_ids`` broadcasts against ``times``.

        Array work over the whole batch (see the module docstring); any
        split of an arrival sequence into batches yields the same events
        and state.  Non-finite times/values (a corrupt frame, a broken
        sensor) never reach the store: each is a
        ``stream.invalid_observation`` event and a
        ``stream_invalid_observations_total`` count, never an exception
        — invalid input is an operational condition, not a bug.
        """
        ids, times, values = _as_batch(block_ids, times, values)
        valid, rounds = _grid(self.config, times, values)
        id_list = ids.tolist()
        if not id_list or len(id_list) == 1 and valid[0] and self._ingest_one(
            id_list[0], float(times[0]), float(values[0]), int(rounds[0])
        ):
            return
        st, slack = self._store, self.config.lateness_rounds + 1
        ok = np.flatnonzero(valid)
        slots, rounds = self._slots(id_list, valid)[ok], rounds[ok]
        before, after, distinct = self._watermarks(slots, rounds, slack)
        late = (rounds < 0) | (rounds <= before)
        drops = []
        if len(ok) < len(id_list) or late.any():
            bad, gone = np.flatnonzero(~valid).tolist(), ok[late].tolist()
            self._pending_invalid += len(bad)
            self._n_invalid += len(bad)
            self._pending_late += len(gone)
            np.add.at(st.n_late, slots[late], 1)
            drops = sorted(
                [(j, 0, _INVALID, -1, (times[j], values[j])) for j in bad]
                + [(j, r, _LATE, s, (times[j], values[j], lag))
                   for j, r, s, lag in zip(
                       gone, rounds[late].tolist(), slots[late].tolist(),
                       (before - rounds)[late].tolist())]
            )
            ok, slots, rounds, after = (a[~late] for a in (ok, slots, rounds, after))
            times, values = times[ok], values[ok]
        np.add.at(st.n_observations, slots, 1)
        self._pending_ingested += len(ok)
        self._admitted = lo = 0
        while True:
            # A chunk ends before the first round beyond its block's ring.
            over = np.flatnonzero(rounds[lo:] >= st.base[slots[lo:]] + st.capacity)
            hi = lo + int(over[0]) if len(over) else len(ok)
            end = int(ok[hi]) if hi < len(ok) else len(id_list)
            cut = bisect_left(drops, (end,))
            events, drops = drops[:cut], drops[cut:]
            if hi == lo < len(ok):
                # Still beyond it after the chunk's closes: a far jump,
                # advanced ring by ring so memory stays bounded by the ring.
                self._dispatch(events, id_list)
                seg, target = slots[lo:hi + 1], rounds[lo] - slack
                while st.watermark[seg[0]] < target:
                    step = np.minimum(target, st.base[seg] + st.capacity - 1)
                    events = self._advance(seg, step, lambda *q: (end, lo))
                    self._dispatch(events, id_list)
                continue
            if hi > lo:
                part = slice(lo, hi)
                events += self._land(
                    slots[part], rounds[part], times[part], values[part],
                    after[part], ok[part], lo, distinct,
                )
                lo = hi
            self._dispatch(events, id_list)
            if lo == len(ok):
                break
        self._since_close += len(ok) - self._admitted

    def flush(self, block_id: int | None = None, close_partial: bool = False) -> None:
        """Expire the lateness slack: freeze and close everything due.

        With ``close_partial`` the tail beyond the last full window is
        also classified (when it spans at least one day), exactly as the
        batch path would classify the same shorter window.
        """
        st = self._store
        for s in range(st.n_slots) if block_id is None else [self._slot_of[block_id]]:
            bid = self._block_ids[s] if block_id is None else block_id
            seg = np.array([s])
            if st.max_round[s] > st.watermark[s]:
                events = self._advance(seg, st.max_round[seg], lambda *q: (0, None))
                self._dispatch(events, [bid])
            if close_partial and st.next_close[s] <= st.max_round[s]:
                n_tail = int(st.max_round[s] - st.next_close[s]) + 1
                self._close_window(s, bid, n_tail, partial=True)
                st.evict(seg, st.next_close[seg])
        self._sync_counters()

    # -- accessors ---------------------------------------------------------

    def blocks(self) -> list[int]:
        return sorted(self._slot_of)

    def watermark(self, block_id: int) -> int:
        return int(self._store.watermark[self._slot_of[block_id]])

    def stable_label(self, block_id: int) -> DiurnalClass | None:
        """The hysteresis-smoothed label (None before the first close)."""
        return self._verdicts[self._slot_of[block_id]].stable_label

    def last_report(self, block_id: int) -> DiurnalReport | None:
        return self._verdicts[self._slot_of[block_id]].last_report

    def n_late(self, block_id: int) -> int:
        return int(self._store.n_late[self._slot_of[block_id]])

    @property
    def n_invalid(self) -> int:
        """Observations dropped for non-finite time/value, all blocks."""
        return self._n_invalid

    def tracked(self, block_id: int) -> bool:
        """Whether the engine has any state for this block yet."""
        return block_id in self._slot_of

    def stable_run(self, block_id: int) -> int:
        """Consecutive closes agreeing with the current stable label.

        0 before the first close (or right after a dissenting close);
        large values mean the block has been boringly stable for many
        windows — exactly the blocks the overload shedder can afford to
        thin out first.  Unknown blocks report 0.
        """
        s = self._slot_of.get(block_id)
        return 0 if s is None else self._verdicts[s].stable_run

    def last_edge_round(self, block_id: int) -> int | None:
        """The round of the block's most recent sleep/wake phase edge."""
        s = self._slot_of.get(block_id)
        r = -1 if s is None else int(self._store.last_edge[s])
        return None if r < 0 else r

    def next_close_start(self, block_id: int) -> int:
        """First round of the next window this block will close."""
        s = self._slot_of.get(block_id)
        return 0 if s is None else int(self._store.next_close[s])

    def window_mean(self, block_id: int) -> float | None:
        """Mean of the trailing window of frozen rounds, in O(1).

        ``None`` until the window is primed (every round in it observed
        or held) and for untracked blocks.  This is the midline the
        sleep/wake edge detector and the overload shedder compare
        samples against; reading it never builds a spectrum.
        """
        s = self._slot_of.get(block_id)
        return None if s is None or self._store.missing[s] else self._mean(s)

    def provisional(self, block_id: int) -> ProvisionalEstimate:
        """The trailing window's spectral state: one exact ``rfft``."""
        s = self._slot_of[block_id]
        st, n = self._store, self.config.window_rounds
        watermark = int(st.watermark[s])
        # ``filled[r % n]`` holds round r; roll the oldest retained round
        # to the front.  Rounds not yet filled count as 0, the
        # zero-padded history of a priming window.
        window = np.roll(st.filled[s], -((watermark + 1) % n))
        coefficients = np.fft.rfft(np.nan_to_num(window, nan=0.0))
        cand_amps = np.abs(coefficients[self._cand])
        best = int(np.argmax(cand_amps))
        k_best = int(self._cand[best])
        return ProvisionalEstimate(
            block_id=block_id,
            round_index=watermark,
            time_s=self._round_time(watermark),
            mean=self._mean(s),
            diurnal_k=k_best,
            diurnal_amplitude=float(cand_amps[best]),
            diurnal_phase=float(np.angle(coefficients[k_best])),
            strongest_harmonic=(
                float(np.abs(coefficients[self._harmonics]).max())
                if len(self._harmonics) else 0.0
            ),
            primed=not st.missing[s],
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
        s = self._slot_of.get(block_id)
        if s is None:
            return None
        st, verdict = self._store, self._verdicts[s]
        return {
            "block_id": block_id,
            "watermark": int(st.watermark[s]),
            "max_round": int(st.max_round[s]),
            "next_close_start": int(st.next_close[s]),
            "stable_label": verdict.stable_label,
            "stable_run": verdict.stable_run,
            "last_report": verdict.last_report,
            "n_closed": int(st.n_closed[s]),
            "n_late": int(st.n_late[s]),
            "n_observations": int(st.n_observations[s]),
            "last_edge_round": self.last_edge_round(block_id),
            "degraded": verdict.degraded,
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
        for block_id, s in self._slot_of.items():
            report, stable = (self._verdicts[s].last_report,
                              self._verdicts[s].stable_label)
            if report is None or not report.label.is_diurnal:
                continue
            out[block_id] = {
                "label": report.label.value,
                "stable_label": None if stable is None else stable.value,
                "diurnal_k": report.diurnal_k,
                "phase": report.phase,
                "amplitude": report.diurnal_amplitude,
                "watermark": int(self._store.watermark[s]),
                # Freshness key for replicated serving: two replicas of
                # the same block compare applied-observation counts to
                # decide whose entry wins a merge.
                "n_observations": int(self._store.n_observations[s]),
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
        config = self.config
        return RunManifest.capture(
            kind="stream", registry=self.metrics, n_blocks=len(self._slot_of),
            quality_gates=asdict(config.classifier),
            window_rounds=config.window_rounds, hop_rounds=config.hop,
            lateness_rounds=config.lateness_rounds,
            fill_policy=config.fill_policy, **extra,
        )

    # -- internals ---------------------------------------------------------

    def _sync_counters(self) -> None:
        """Flush pending hot-path tallies into the metrics registry."""
        for name in ("ingested", "late", "invalid", "frozen"):
            pending = getattr(self, "_pending_" + name)
            if pending:
                getattr(self._m, name).inc(pending)
                setattr(self, "_pending_" + name, 0)

    def _slots(self, id_list: list, valid: np.ndarray) -> np.ndarray:
        """Slot per observation (-1 where invalid); a block's slot is
        created by its first valid observation, in arrival order."""
        get = self._slot_of.get
        slots = list(map(get, id_list))
        if None in slots:
            for j, ok in enumerate(valid.tolist()):
                block_id = id_list[j]
                if ok and get(block_id) is None:
                    self._slot_of[block_id] = self._store.add_slot()
                    self._block_ids.append(block_id)
                    self._verdicts.append(_Verdict())
                    self._m.blocks.inc()
                slots[j] = get(block_id, -1)
        return np.array(slots, dtype=np.int64)

    def _watermarks(self, slots, rounds, slack):
        """Each observation's block watermark before and after it lands —
        the batch-start watermark raised to the block's running maximum
        round (over the earlier observations, then this one too) minus
        the slack — and whether every block appears only once."""
        before, distinct = self._store.watermark[slots], True
        if len(slots) > 1:
            order = np.argsort(slots, kind="stable")
            first = np.ones(len(slots), dtype=bool)
            first[1:] = slots[order][1:] != slots[order][:-1]
            distinct = bool(first.all())
            if not distinct:
                # Running max over dense ranks offset per block, so one
                # accumulate neither crosses blocks nor overflows.
                uniq, rank = np.unique(rounds[order], return_inverse=True)
                offset = (np.cumsum(first) - 1) * len(uniq)
                running = uniq[np.maximum.accumulate(rank + offset) - offset]
                prior = np.empty(len(slots), dtype=np.int64)
                prior[order] = np.where(first, _NO_ROUND, np.roll(running, 1))
                before = np.maximum(before, prior - slack)
        return before, np.maximum(before, rounds - slack), distinct

    def _land(self, slots, rounds, times, values, after, arrivals, first,
              distinct) -> list:
        """Scatter one chunk and freeze the rounds it released.

        The observation that froze a round is the first of its block
        whose resulting watermark (``after``) reached the round.
        """
        st = self._store
        st.scatter(slots, rounds, times, values, distinct)
        touched = slots if distinct else np.unique(slots)
        watermark = st.watermark[touched]
        targets = np.maximum(watermark, st.max_round[touched] - (
            self.config.lateness_rounds + 1))
        moving = targets > watermark
        if not moving.any():
            return []

        def trigger(q_slots, q_rounds):
            # Sort queries among the chunk's (slot, watermark) entries,
            # ties first: each lands just before its answer, the first
            # entry of its slot whose watermark reached its round.
            n = len(slots)
            is_entry = np.arange(n + len(q_slots)) < n
            order = np.lexsort((is_entry, np.concatenate([after, q_rounds]),
                                np.concatenate([slots, q_slots])))
            in_order = is_entry[order]
            n_before = np.empty(len(order), dtype=np.int64)
            n_before[order] = np.cumsum(in_order) - in_order
            i = order[in_order][n_before[n:]]
            return arrivals[i], first + i + 1

        return self._advance(touched[moving], targets[moving], trigger)

    def _advance(self, segs, targets, trigger) -> list:
        """Freeze rounds ``(watermark, target]`` of each slot in ``segs``
        (inside its ring) as ``[slots × rounds]`` arrays; returns the
        phase-edge and window-close events, each keyed by
        ``trigger(slots, rounds)``: the ``(arrival index, observations
        admitted)`` of the observation that froze the round."""
        st, n, hop = self._store, self.config.window_rounds, self.config.hop
        k = np.arange(len(segs))
        watermark = st.watermark[segs]
        m = targets - watermark
        cols = np.arange(int(m.max()))
        f = (watermark + 1)[:, None] + cols
        live = cols < m[:, None]
        at = (segs * st.capacity)[:, None] + f % st.capacity
        observed = st.observed.ravel()[at] & live
        filled = np.where(observed, st.values.ravel()[at], st.last_filled[segs, None])
        if len(cols) > 1:
            # Hold: each round takes the last observed value at or
            # before it, else the slot's previously held value.
            source = np.maximum.accumulate(np.where(observed, cols, 0), axis=1)
            filled = filled[k[:, None], source]
        ring = (segs * n)[:, None] + f % n
        evicted = st.filled.ravel()[ring]
        if len(cols) > n:
            evicted[:, n:] = filled[:, :-n]
        entering_nan, evicted_nan = np.isnan(filled), np.isnan(evicted)
        # Each round is ``(sum - evicted) + entering``, unfilled rounds
        # counting as 0: one accumulate over [s, -e0, f0, -e1, f1, ...]
        # performs those float operations in that order.
        steps = np.empty((len(segs), 2 * len(cols) + 1))
        steps[:, 0] = st.window_sum[segs]
        np.negative(np.where(evicted_nan, 0.0, evicted), out=steps[:, 1::2])
        steps[:, 2::2] = np.where(entering_nan, 0.0, filled)
        sums = np.add.accumulate(steps, axis=1)[:, 2::2]
        missing = st.missing[segs, None] + np.cumsum(
            entering_nan.astype(np.int64) - evicted_nan, axis=1
        )
        last = (k, m - 1)
        st.watermark[segs] = targets
        st.last_filled[segs] = filled[last]
        st.window_sum[segs] = sums[last]
        st.missing[segs] = missing[last]
        newest = live & (cols >= (m - n)[:, None])
        st.filled.ravel()[ring[newest]] = filled[newest]
        self._pending_frozen += int(m.sum())

        primed = (missing == 0) & ~entering_nan & live
        q_segs, q_rounds, payloads = (
            self._edges(segs, f, filled, sums / n, primed)
            if primed.any() else ([], [], [])
        )
        n_edges = len(q_segs)
        first_close = st.next_close[segs] + n - 1
        for i in np.flatnonzero(targets >= first_close).tolist():
            for r in range(first_close[i], targets[i] + 1, hop):
                q_segs.append(segs[i])
                q_rounds.append(r)
        if not q_segs:
            return []
        q_segs, q_rounds = np.array(q_segs), np.array(q_rounds)
        j, admitted = (np.broadcast_to(x, q_rounds.shape).tolist()
                       for x in trigger(q_segs, q_rounds))
        kinds = [_EDGE] * n_edges + [_CLOSE] * (len(j) - n_edges)
        return list(zip(j, q_rounds.tolist(), kinds, q_segs.tolist(),
                        payloads + admitted[n_edges:]))

    def _edges(self, segs, f, filled, mean, primed):
        """Sleep/wake edges among primed frozen rounds, in round order:
        slots, rounds and ``(level, value, window mean)`` payloads.  A
        round is high (low) when its held value clears the window mean by
        more than ``edge_margin``; an edge is a level differing from the
        block's previous one, the first level only setting it."""
        st, margin = self._store, self.config.edge_margin
        level = (primed & (filled > mean + margin)).astype(np.int8) - (
            primed & (filled < mean - margin))
        leveled = level != 0
        # No round leaves its slot's stored level: no edge, nothing to set.
        if not (leveled & (level != st.level[segs, None])).any():
            return [], [], []
        # Each round's previous level: the latest leveled round before
        # it, or the slot's stored level (column 0).
        levels = np.concatenate([st.level[segs, None], level], axis=1)
        cols = np.arange(levels.shape[1])
        latest = np.maximum.accumulate(np.where(levels != 0, cols, 0), axis=1)
        k = np.arange(len(segs))[:, None]
        previous = levels[k, latest[:, :-1]]
        st.level[segs] = levels[k[:, 0], latest[:, -1]]
        i, c = np.nonzero(leveled & (previous != 0) & (level != previous))
        np.maximum.at(st.last_edge, segs[i], f[i, c])
        return segs[i].tolist(), f[i, c].tolist(), list(zip(
            level[i, c].tolist(), filled[i, c].tolist(), mean[i, c].tolist()))

    def _ingest_one(self, block_id, time_s: float, value: float, r: int) -> bool:
        """A batch of one in Python scalars, for the common case: a
        tracked block, on time, inside its ring (False, having done
        nothing, otherwise).  At a microsecond or more per numpy call the
        array path's fixed cost is several times one observation's work;
        the batch-split property tests hold both paths to one output.
        """
        st = self._store
        s = self._slot_of.get(block_id)
        if s is None or not st.watermark[s] < r < st.base[s] + st.capacity:
            return False
        c = r % st.capacity
        seen = st.observed[s, c]
        if not seen or time_s >= st.obs_time[s, c]:
            st.values[s, c], st.obs_time[s, c] = value, time_s
        st.duplicates[s, c] += seen
        st.observed[s, c] = True
        st.n_observations[s] += 1
        self._pending_ingested += 1
        self._since_close += 1
        if r > st.max_round[s]:
            st.max_round[s] = r
            for f in range(int(st.watermark[s]) + 1, r - self.config.lateness_rounds):
                self._freeze_one(s, block_id, f)
        return True

    def _freeze_one(self, s: int, block_id, f: int) -> None:
        """:meth:`_advance` for one slot and one round."""
        st, n = self._store, self.config.window_rounds
        c = f % st.capacity
        held = float(st.values[s, c] if st.observed[s, c] else st.last_filled[s])
        evicted = float(st.filled[s, f % n])
        st.filled[s, f % n] = st.last_filled[s] = held
        entering_nan, evicted_nan = held != held, evicted != evicted
        total = (float(st.window_sum[s]) - (0.0 if evicted_nan else evicted)) + (
            0.0 if entering_nan else held)
        missing = int(st.missing[s]) + entering_nan - evicted_nan
        st.window_sum[s], st.missing[s], st.watermark[s] = total, missing, f
        self._pending_frozen += 1
        events = []
        if missing == 0 and not entering_nan:
            mean, margin = total / n, self.config.edge_margin
            level = (held > mean + margin) - (held < mean - margin)
            if level and level != st.level[s]:
                if st.level[s]:
                    st.last_edge[s] = f
                    events.append((0, f, _EDGE, s, (level, held, mean)))
                st.level[s] = level
        if f == st.next_close[s] + n - 1:
            events.append((0, f, _CLOSE, s, None))
        if events:
            self._dispatch(events, [block_id])

    def _dispatch(self, events: list, id_list) -> None:
        """Publish events in the order observation-at-a-time ingest emits
        them — by triggering observation, then round, an edge before a
        close — then evict each closed slot's finished rounds."""
        events.sort()
        closed = set()
        for j, r, kind, s, payload in events:
            block_id = id_list[j]
            at = dict(block_id=block_id, round_index=r)
            if kind == _CLOSE:
                # Batch closes carry the observations their trigger
                # admitted; single observations count as they go.
                if payload is not None:
                    self._since_close += payload - self._admitted
                    self._admitted = payload
                self._close_window(s, block_id, self.config.window_rounds)
                closed.add(s)
            elif kind == _EDGE:
                level, value, mean = payload
                self.bus.publish(PhaseEdge(
                    **at, time_s=self._round_time(r),
                    edge="wake" if level > 0 else "sleep",
                    value=value, window_mean=mean,
                ))
            elif kind == _LATE:
                time_s, value, lag = payload
                self.bus.publish(LateObservation(
                    **at, time_s=float(time_s), value=float(value), lag_rounds=lag,
                ))
                self.events.warning("stream.late_drop", **at, lag_rounds=lag)
            else:
                self.events.warning(
                    "stream.invalid_observation", block_id=block_id,
                    time_s=repr(float(payload[0])), value=repr(float(payload[1])),
                )
        if closed:
            segs = np.fromiter(closed, dtype=np.int64, count=len(closed))
            self._store.evict(segs, self._store.next_close[segs])

    def _round_time(self, r: int) -> float:
        return self.config.start_s + r * self.config.round_s

    def _mean(self, s: int) -> float:
        return float(self._store.window_sum[s]) / self.config.window_rounds

    def _close_window(self, s: int, block_id, n_rounds: int,
                      partial: bool = False) -> None:
        """Classify the slot's next window; the caller evicts its ring."""
        if not (self._m.enabled or self.tracer.enabled):
            return self._close_window_impl(s, block_id, n_rounds, partial)
        with self.tracer.trace(
            "stream.close_window", block=block_id, partial=partial
        ):
            t0 = time.perf_counter()
            self._close_window_impl(s, block_id, n_rounds, partial)
            self._m.close_seconds.observe(time.perf_counter() - t0)
        self._m.ingest_rate.observe(self._since_close)
        self._since_close = 0
        self._sync_counters()

    def _close_window_impl(self, s: int, block_id, n_rounds: int,
                           partial: bool) -> None:
        st, config = self._store, self.config
        w_start = int(st.next_close[s])
        values, quality = st.materialize(
            s, w_start, n_rounds, config.fill_policy, config.max_fill_gap
        )
        try:
            report = classify_series(
                values, config.round_s, config.classifier, quality=quality
            )
        except ValueError:
            # Only reachable on a partial close too short to classify;
            # full windows are validated at config time.
            if not partial:
                raise
            return
        end = w_start + n_rounds - 1
        at = dict(block_id=block_id, round_index=end, time_s=self._round_time(end))
        self.bus.publish(WindowClosed(
            **at, window_start_round=w_start, n_rounds=n_rounds,
            report=report, quality=quality, partial=partial,
        ))
        verdict = self._verdicts[s]
        verdict.last_report = report
        st.n_closed[s] += 1
        (self._m.partial_closes if partial else self._m.closes).inc()
        self.events.debug(
            "stream.window_closed", block_id=block_id, end_round=end,
            n_rounds=n_rounds, partial=partial, label=report.label.value,
        )
        self._quality_events(verdict, at, report, quality)
        self._hysteresis(verdict, at, report)
        st.next_close[s] = end + 1 if partial else w_start + config.hop

    def _quality_events(self, state: _Verdict, at: dict,
                        report: DiurnalReport, quality: QualityReport) -> None:
        """Degradation/restoration events when the verdict's usability
        flips; ``at`` holds the close's block id, round and time."""
        log = dict(block_id=at["block_id"], end_round=at["round_index"])
        degraded_now = not report.is_classified
        if degraded_now and not state.degraded:
            state.degraded = True
            gates = self.config.classifier
            if quality.n_observed == 0:
                reason = "no observations in window"
            elif not quality.usable(max_gap_fraction=gates.max_gap_fraction,
                                    max_longest_gap=gates.max_longest_gap):
                reason = (
                    f"quality gate: {quality.gap_fraction:.1%} missing, "
                    f"longest gap {quality.longest_gap} rounds"
                )
            else:
                reason = "filled series still contains NaN"
            self.bus.publish(QualityDegraded(**at, quality=quality, reason=reason))
            self.events.warning("stream.quality_degraded", **log, reason=reason)
        elif not degraded_now and state.degraded:
            state.degraded = False
            self.bus.publish(QualityRestored(**at, quality=quality))
            self.events.info("stream.quality_restored", **log)

    def _hysteresis(self, state: _Verdict, at: dict, report: DiurnalReport) -> None:
        """Move the stable label once ``label_dwell`` closes agree."""
        label = report.label

        def publish(old: DiurnalClass | None, dwell: int) -> None:
            self._m.transitions.inc()
            self.bus.publish(ClassificationTransition(
                **at, old_label=old, new_label=label, report=report, dwell=dwell,
            ))
            self.events.info(
                "stream.label_transition", block_id=at["block_id"],
                end_round=at["round_index"],
                old_label=old.value if old is not None else None,
                new_label=label.value, dwell=dwell,
            )

        if state.stable_label is None:
            state.stable_label, state.stable_run = label, 1
            publish(None, 1)
        elif label == state.stable_label:
            state.candidate, state.candidate_count = None, 0
            state.stable_run += 1
        else:
            state.stable_run = 0
            if label == state.candidate:
                state.candidate_count += 1
            else:
                state.candidate, state.candidate_count = label, 1
            if state.candidate_count >= self.config.label_dwell:
                old = state.stable_label
                state.stable_label, state.stable_run = label, 1
                publish(old, state.candidate_count)
                state.candidate, state.candidate_count = None, 0


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
    times: np.ndarray, values: np.ndarray, window_start_round: int,
    n_rounds: int, config: StreamConfig,
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
    in_window = (idx >= window_start_round) & (idx < window_start_round + n_rounds)
    series, quality = clean_observations(
        times[in_window], values[in_window], config.round_s,
        config.start_s + window_start_round * config.round_s, n_rounds,
        policy=config.fill_policy, max_gap=config.max_fill_gap,
    )
    report = classify_series(series, config.round_s, config.classifier, quality=quality)
    return report, quality
