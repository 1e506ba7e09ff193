"""Overload resilience for the streaming ingest path.

Outage monitors see their *worst* input exactly when the signal matters
most: a routing event or a planet-scale round generator can offer the
collector far more observations per second than it can absorb.  This
module makes overload a *managed* condition with three cooperating
pieces:

**Bounded ingest queue with watermark hysteresis.**  Producers submit
observations, one or a batch at a time, into a queue of at most
``capacity`` observations, held as array chunks.  Crossing
``high_watermark`` asserts the backpressure signal; it stays asserted
until the queue drains back below ``low_watermark`` (hysteresis, so the
signal doesn't flap at the boundary).  Well-behaved producers — the
round generator via :func:`paced_replay`, the
:class:`~repro.core.supervisor.PoolRunner` dispatch loop via its
``backpressure`` hook — pause or slow production while the signal is up.

**Deterministic value-based shedding.**  If producers cannot slow down
(real packets keep arriving), the queue is never allowed past
``capacity``: an overflow triggers a shed episode that drops the
*lowest-value* queued observations until the queue is back at the low
watermark.  Value is scored in three tiers: mid-window samples of
long-stable blocks shed first (tier 0 — hold-fill reconstructs a flat
plateau almost perfectly), anything near a sleep/wake phase edge sheds
only after that (tier 1 — those samples pin the phase), and
observations for provisional, unknown, or already-degraded blocks shed
last (tier 2 — they are the only path to a first or recovered verdict).
Ties break by a CRC32 hash of ``(seed, block_id, round)``, so the shed
set is a pure function of the seed and the arrival/pump sequence —
bit-identical across runs, replayable in tests.

**Honest degradation.**  A shed observation simply never reaches the
ring, so the window it belonged to materializes with a gap: the
existing fill/quality machinery counts it, the classifier's quality
gate refuses heavily shed windows with the explicit
``insufficient-data`` verdict, and every affected close additionally
publishes a :class:`~repro.stream.events.ShedDegraded` event naming how
many observations the shedder took from that window.  Windows the
shedder did not touch keep exact bit-for-bit batch parity.

Every path into the engine is one call,
:meth:`~repro.stream.engine.StreamEngine.ingest_many`: :meth:`pump`
slices queued chunks into it, and the drop-in ``ingest_many`` (which
``ingest``, :meth:`~repro.core.pipeline.BatchResult.replay_into` and
:func:`~repro.stream.journal.replay_journal` use) hands a batch straight
to it when the queue is empty.
"""

from __future__ import annotations

import struct
import zlib
from collections import deque
from dataclasses import dataclass
from math import ceil, floor

import numpy as np

from repro.obs.events import NULL_EVENT_LOG
from repro.obs.registry import NULL_REGISTRY
from repro.stream.engine import _as_batch, _grid
from repro.stream.events import ObservationShed, ShedDegraded, WindowClosed
from repro.stream.sinks import CallbackSink, FilterSink

__all__ = [
    "AdmissionController",
    "OverloadConfig",
    "ShedRecord",
    "paced_replay",
]


@dataclass(frozen=True)
class OverloadConfig:
    """Knobs for the overload-resilience layer.

    Attributes:
        capacity: hard bound on queued (submitted but not yet ingested)
            observations; an overflow triggers a shed episode.
        high_watermark: queue fraction at which backpressure asserts.
        low_watermark: queue fraction below which backpressure releases
            (and the depth a shed episode drains back to).
        edge_guard_rounds: observations within this many rounds of a
            block's last sleep/wake edge are protected (tier 1).
        stable_closes: consecutive agreeing window closes before a block
            counts as long-stable (sheddable at tier 0).
        seed: tie-break seed; the shed set is a deterministic function
            of this seed and the arrival/pump sequence.
        shed_log_capacity: most recent shed decisions retained for
            inspection/replay comparison (the log is a bounded ring so a
            weeks-long soak cannot grow it without limit).
    """

    capacity: int = 4096
    high_watermark: float = 0.75
    low_watermark: float = 0.5
    edge_guard_rounds: int = 3
    stable_closes: int = 3
    seed: int = 0
    shed_log_capacity: int = 100_000

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("capacity must be positive")
        if not 0.0 < self.low_watermark < self.high_watermark <= 1.0:
            raise ValueError(
                "watermarks must satisfy 0 < low_watermark < "
                "high_watermark <= 1"
            )
        if self.edge_guard_rounds < 0:
            raise ValueError("edge_guard_rounds must be non-negative")
        if self.stable_closes < 1:
            raise ValueError("stable_closes must be at least 1")
        if self.shed_log_capacity < 1:
            raise ValueError("shed_log_capacity must be positive")

    @property
    def high_depth(self) -> int:
        """Absolute queue depth at which backpressure asserts."""
        return ceil(self.high_watermark * self.capacity)

    @property
    def low_depth(self) -> int:
        """Absolute depth backpressure releases at (and sheds drain to)."""
        return floor(self.low_watermark * self.capacity)


@dataclass(frozen=True)
class ShedRecord:
    """One shed decision, exactly as replayable telemetry.

    ``seq`` is the controller-wide submission sequence number; two runs
    with the same seed and arrival/pump sequence produce identical
    record lists (the determinism tests compare them wholesale).
    """

    seq: int
    block_id: int
    round_index: int
    time_s: float
    value: float
    tier: int


class _OverloadMetrics:
    """Pre-bound overload metrics (null registry by default).

    ``stream_ingest_queue_depth`` and ``stream_shed_ratio`` are the two
    gauges :func:`repro.obs.alerts.default_pool_rules` watches.
    """

    __slots__ = ("enabled", "submitted", "serviced", "shed", "episodes",
                 "engagements", "engaged", "depth", "shed_ratio")

    def __init__(self, registry) -> None:
        self.enabled = registry.enabled
        self.submitted = registry.counter("stream_submitted_total")
        self.serviced = registry.counter("stream_serviced_total")
        self.shed = tuple(
            registry.counter("stream_observations_shed_total", tier=str(t))
            for t in range(3)
        )
        self.episodes = registry.counter("stream_shed_episodes_total")
        self.engagements = registry.counter(
            "stream_backpressure_engagements_total"
        )
        self.engaged = registry.gauge("stream_backpressure_engaged")
        self.depth = registry.gauge("stream_ingest_queue_depth")
        self.shed_ratio = registry.gauge("stream_shed_ratio")


class AdmissionController:
    """Bounded, shedding, backpressure-signalling front of an engine.

    Producers call :meth:`submit` with one observation or a batch; a
    service loop calls :meth:`pump` with whatever per-cycle budget the
    hardware affords.  The queue absorbs bursts, backpressure tells
    producers to pause, and overflow sheds deterministically.  The
    drop-in :meth:`ingest`/:meth:`ingest_many`/:meth:`flush` mirror
    :class:`~repro.stream.engine.StreamEngine` for callers that expect
    an engine: with an empty queue a batch goes straight to the engine's
    ``ingest_many`` (a few integer increments per call), otherwise it
    queues behind what is already there.

    ``metrics``/``events`` attach the usual registry/structured log;
    verdict-affecting behavior (what is shed, when) never depends on
    them.
    """

    def __init__(
        self,
        engine,
        config: OverloadConfig | None = None,
        metrics=None,
        events=None,
    ) -> None:
        self.engine = engine
        self.config = config or OverloadConfig()
        self.metrics = NULL_REGISTRY if metrics is None else metrics
        self.events = NULL_EVENT_LOG if events is None else events
        self._m = _OverloadMetrics(self.metrics)
        # Chunks of (seqs, block_ids, times, values) arrays, oldest first.
        self._queue: deque = deque()
        self._depth = 0
        self._paused = False
        # Observations are numbered 1, 2, ... in submission order: the
        # ``seq`` of shed records and events.
        self.n_submitted = 0
        self.n_serviced = 0
        self.n_shed = 0
        self.n_episodes = 0
        self.n_engagements = 0
        self.max_depth = 0
        self._synced_submitted = 0
        self._synced_serviced = 0
        self._high = self.config.high_depth
        self._low = self.config.low_depth
        self._shed_log: deque = deque(maxlen=self.config.shed_log_capacity)
        # block_id -> {round -> shed count}, pruned as windows close.
        self._shed_rounds: dict[int, dict[int, int]] = {}
        self._round_cap = max(
            1024, 4 * getattr(engine.config, "window_rounds", 256)
        )
        engine.bus.subscribe(
            FilterSink(CallbackSink(self._on_close), [WindowClosed])
        )

    # -- producer side -----------------------------------------------------

    def submit(self, block_ids, times, values) -> None:
        """Enqueue observations (the decoupled producer API).

        Takes one observation or a batch (``block_ids`` broadcasts
        against ``times``/``values``, as in
        :meth:`~repro.stream.engine.StreamEngine.ingest_many`).
        Crossing the high watermark asserts backpressure; exceeding
        ``capacity`` triggers a deterministic shed episode that drains
        the queue back to the low watermark.  A batch is enqueued in
        pieces that end exactly where either happens, so engagements,
        shed sets and ``max_depth`` are those of submitting it one
        observation at a time, and the queue never holds more than
        ``capacity`` observations between calls.  The queue keeps the
        arrays it is given until they are pumped: do not modify them.
        """
        ids, times, values = _as_batch(block_ids, times, values)
        while len(times):
            # Not paused implies depth < high (a release happens at or
            # below the low watermark), so every piece is non-empty.
            limit = self.config.capacity + 1 if self._paused else self._high
            k = min(len(times), limit - self._depth)
            seqs = np.arange(self.n_submitted + 1, self.n_submitted + k + 1)
            self._queue.append((seqs, ids[:k], times[:k], values[:k]))
            ids, times, values = ids[k:], times[k:], values[k:]
            self.n_submitted += k
            self._depth += k
            self.max_depth = max(self.max_depth, self._depth)
            if self._depth >= self._high and not self._paused:
                self._engage(self._depth)
            if self._depth > self.config.capacity:
                self._shed_episode()

    def pump(self, budget: int | None = None) -> int:
        """Service up to ``budget`` queued observations into the engine.

        ``None`` drains everything, in one ``engine.ingest_many`` call.
        Releases backpressure when the drain brings the queue to or
        below the low watermark.  Returns the number of observations
        ingested.
        """
        if budget is not None and budget < 0:
            raise ValueError("budget must be non-negative")
        n = self._depth if budget is None else min(budget, self._depth)
        queue, parts, need = self._queue, [], n
        while need:
            chunk = queue.popleft()
            if len(chunk[0]) > need:
                queue.appendleft(tuple(a[need:] for a in chunk))
                chunk = tuple(a[:need] for a in chunk)
            parts.append(chunk)
            need -= len(chunk[0])
        self._depth -= n
        if parts:
            _, ids, times, values = (np.concatenate(c) for c in zip(*parts))
            self.engine.ingest_many(ids, times, values)
        self.n_serviced += n
        if self._paused and self._depth <= self._low:
            self._release(self._depth)
        if n:
            self._sync()
        return n

    def backpressure(self) -> bool:
        """The admission signal producers honor by pausing production."""
        return self._paused

    @property
    def paused(self) -> bool:
        return self._paused

    @property
    def depth(self) -> int:
        return self._depth

    # -- drop-in engine interface ------------------------------------------

    def ingest(self, block_id: int, time_s: float, value: float) -> None:
        """Synchronous drop-in for ``StreamEngine.ingest``: a batch of one."""
        self.ingest_many(block_id, (time_s,), (value,))

    def ingest_many(self, block_ids, times, values) -> None:
        """Synchronous drop-in for ``StreamEngine.ingest_many``.

        With an empty queue the batch goes straight to the engine.
        Otherwise its first observation is submitted and the queue
        drained, then the rest goes straight through: exactly what
        per-observation :meth:`ingest` calls would do.
        """
        ids, times, values = _as_batch(block_ids, times, values)
        if self._depth and len(times):
            self.submit(ids[:1], times[:1], values[:1])
            self.pump()
            ids, times, values = ids[1:], times[1:], values[1:]
        self.n_submitted += len(times)
        self.n_serviced += len(times)
        self.engine.ingest_many(ids, times, values)

    def flush(
        self, block_id: int | None = None, close_partial: bool = False
    ) -> None:
        """Drain the queue fully, then flush the wrapped engine."""
        self.pump()
        self.engine.flush(block_id=block_id, close_partial=close_partial)
        self._sync()

    # -- inspection --------------------------------------------------------

    def shed_log(self) -> list[ShedRecord]:
        """The retained shed decisions, oldest first."""
        return list(self._shed_log)

    def shed_rounds(self, block_id: int) -> dict[int, int]:
        """Outstanding shed counts per round for one block (pre-prune)."""
        return dict(self._shed_rounds.get(block_id, {}))

    @property
    def shed_ratio(self) -> float:
        return self.n_shed / self.n_submitted if self.n_submitted else 0.0

    def stats(self) -> dict:
        """Operational snapshot (what the runbook asks operators for)."""
        return {
            "n_submitted": self.n_submitted,
            "n_serviced": self.n_serviced,
            "n_shed": self.n_shed,
            "n_episodes": self.n_episodes,
            "n_engagements": self.n_engagements,
            "shed_ratio": self.shed_ratio,
            "depth": self._depth,
            "max_depth": self.max_depth,
            "paused": self._paused,
        }

    # -- internals ---------------------------------------------------------

    def _sync(self) -> None:
        """Flush batched tallies into the registry (amortized hot path)."""
        d = self.n_submitted - self._synced_submitted
        if d:
            self._m.submitted.inc(d)
            self._synced_submitted = self.n_submitted
        d = self.n_serviced - self._synced_serviced
        if d:
            self._m.serviced.inc(d)
            self._synced_serviced = self.n_serviced
        if self._m.enabled:
            self._m.depth.set(self._depth)
            self._m.shed_ratio.set(self.shed_ratio)

    def _engage(self, depth: int) -> None:
        self._paused = True
        self.n_engagements += 1
        self._m.engagements.inc()
        self._m.engaged.set(1)
        self.events.warning(
            "stream.backpressure_engaged",
            depth=depth,
            high_depth=self._high,
        )

    def _release(self, depth: int) -> None:
        self._paused = False
        self._m.engaged.set(0)
        self.events.info(
            "stream.backpressure_released",
            depth=depth,
            low_depth=self._low,
        )

    def _score(self, entry, memo: dict) -> tuple[int, int, int]:
        """(tier, tie-break hash, round) for one queued observation.

        Lower tuples shed first.  Tier is derived from *public* engine
        state only (stable run length, last phase edge, window mean),
        so the score — and therefore the shed set — is a
        deterministic function of the seed and the observation history.
        An entry the engine will drop as non-finite scores tier 0 with
        round -1: protecting it could only cost valid observations.
        """
        _, block_id, _, value, r, valid = entry
        h = zlib.crc32(struct.pack("<qqq", self.config.seed, block_id, r))
        if not valid:
            return 0, h, r
        cached = memo.get(block_id)
        if cached is None:
            engine = self.engine
            if (
                not engine.tracked(block_id)
                or engine.stable_run(block_id) < self.config.stable_closes
                # A stable run means a report exists.  Starving an
                # already-degraded block would keep it degraded forever;
                # its observations are the only path back to a verdict.
                or not engine.last_report(block_id).is_classified
            ):
                cached = (2, None, None)
            else:
                cached = (
                    0,
                    engine.last_edge_round(block_id),
                    engine.window_mean(block_id),
                )
            memo[block_id] = cached
        base_tier, edge_round, mean = cached
        tier = base_tier
        if base_tier == 0:
            if (
                edge_round is not None
                and abs(r - edge_round) <= self.config.edge_guard_rounds
            ):
                tier = 1
            elif (
                mean is not None
                and abs(value - mean) <= self.engine.config.edge_margin
            ):
                # Inside the midline dead band: this sample could be the
                # crossing that defines the next sleep/wake edge.
                tier = 1
        return tier, h, r

    def _shed_episode(self) -> None:
        seqs, ids, times, values = (
            np.concatenate(col) for col in zip(*self._queue)
        )
        valid, rounds = _grid(self.engine.config, times, values)
        entries = list(zip(*(a.tolist() for a in (
            seqs, ids, times, values, rounds, valid
        ))))
        depth_before = len(entries)
        n_drop = depth_before - self._low
        memo: dict = {}
        keys = [self._score(entry, memo) for entry in entries]
        order = sorted(range(depth_before), key=keys.__getitem__)
        keep = np.ones(depth_before, dtype=bool)
        keep[order[:n_drop]] = False
        self._depth = depth_before - n_drop
        self._queue = deque(
            [(seqs[keep], ids[keep], times[keep], values[keep])]
            if self._depth
            else []
        )
        tier_counts = [0, 0, 0]
        publish = self.engine.bus.publish
        for i in np.flatnonzero(~keep).tolist():
            seq, block_id, time_s, value, r, valid = entries[i]
            tier = keys[i][0]
            tier_counts[tier] += 1
            self.n_shed += 1
            self._shed_log.append(
                ShedRecord(
                    seq=seq,
                    block_id=block_id,
                    round_index=r,
                    time_s=time_s,
                    value=value,
                    tier=tier,
                )
            )
            if valid:  # a non-finite entry belongs to no round
                counts = self._shed_rounds.setdefault(block_id, {})
                counts[r] = counts.get(r, 0) + 1
                if len(counts) > self._round_cap:
                    # A block that never closes (no ingested observations)
                    # cannot prune via the close watcher; cap its footprint
                    # by forgetting the oldest rounds, which could only
                    # have annotated windows that are already behind us.
                    for stale in sorted(counts)[: len(counts) - self._round_cap]:
                        del counts[stale]
            publish(
                ObservationShed(
                    block_id=block_id,
                    round_index=r,
                    time_s=time_s,
                    value=value,
                    tier=tier,
                    depth=depth_before,
                    seq=seq,
                )
            )
            self._m.shed[tier].inc()
        self.n_episodes += 1
        self._m.episodes.inc()
        self.events.warning(
            "stream.shed",
            n_shed=n_drop,
            depth_before=depth_before,
            depth_after=self._depth,
            tier0=tier_counts[0],
            tier1=tier_counts[1],
            tier2=tier_counts[2],
        )
        self._sync()

    def _on_close(self, event: WindowClosed) -> None:
        rounds = self._shed_rounds.get(event.block_id)
        if not rounds:
            return
        start = event.window_start_round
        end = start + event.n_rounds
        n_shed = sum(
            count for r, count in rounds.items() if start <= r < end
        )
        if n_shed:
            self.engine.bus.publish(
                ShedDegraded(
                    block_id=event.block_id,
                    round_index=event.round_index,
                    time_s=event.time_s,
                    window_start_round=start,
                    n_rounds=event.n_rounds,
                    n_shed=n_shed,
                )
            )
            self.events.warning(
                "stream.shed_degraded",
                block_id=event.block_id,
                window_start_round=start,
                n_rounds=event.n_rounds,
                n_shed=n_shed,
                label=event.report.label.value,
            )
        # Rounds before the next window's start can never annotate a
        # future close; forget them (bounded-memory invariant).
        hop = getattr(self.engine.config, "hop", event.n_rounds)
        horizon = start + (event.n_rounds if event.partial else hop)
        for r in [r for r in rounds if r < horizon]:
            del rounds[r]
        if not rounds:
            del self._shed_rounds[event.block_id]


def paced_replay(
    stream,
    controller: AdmissionController,
    pump_every: int = 64,
    pump_budget: int | None = None,
) -> tuple[int, int]:
    """Feed ``(block_id, time_s, value)`` tuples, honoring backpressure.

    This is the producer half of the admission contract — the shape the
    round generator uses: submit observations, service the queue every
    ``pump_every`` submissions with ``pump_budget`` observations per
    cycle, and when the backpressure signal asserts, *stop producing*
    and drain until it releases.  A producer wired this way never
    triggers shedding: the queue stays at or below the high watermark
    (plus the in-flight batch) by construction.

    Returns ``(n_fed, n_pause_cycles)``.
    """
    if pump_every < 1:
        raise ValueError("pump_every must be positive")
    if pump_budget is not None and pump_budget < 1:
        raise ValueError("pump_budget must be positive")
    n_fed = 0
    n_pauses = 0
    since_pump = 0
    for block_id, time_s, value in stream:
        while controller.backpressure():
            n_pauses += 1
            controller.pump(pump_budget)
        controller.submit(block_id, time_s, value)
        n_fed += 1
        since_pump += 1
        if since_pump >= pump_every:
            controller.pump(pump_budget)
            since_pump = 0
    while controller.depth:
        controller.pump(pump_budget)
    return n_fed, n_pauses
