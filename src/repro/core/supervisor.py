"""Supervised multi-process batch measurement.

:class:`BatchRunner` survives per-block *exceptions*; a production-scale
campaign also has to survive the failures exceptions cannot express — a
worker process that dies (OOM kill, segfault in a native library) or
wedges forever in a C loop.  :class:`PoolRunner` runs the same per-block
pipeline across a pool of worker processes under a supervisor that:

* enforces a **per-block wall-clock deadline**, killing and respawning
  any worker whose heartbeat goes stale past it;
* detects **worker death** via process sentinels and re-dispatches the
  interrupted block to a fresh worker;
* **quarantines poison blocks**: a block that kills its worker
  ``max_block_failures`` times is recorded as a
  :class:`~repro.core.pipeline.BlockFailure` instead of crashing the
  pool forever;
* trips a **circuit breaker** after a burst of consecutive failures —
  the checkpoint is saved, the pool shuts down, and
  :class:`CircuitOpenError` tells the operator the environment (not one
  block) is sick;
* merges results **deterministically**: every block's randomness comes
  from the same per-index :class:`~numpy.random.SeedSequence` child the
  serial runner would use, and a re-dispatched block gets the identical
  child again, so the merged :class:`~repro.core.pipeline.BatchResult`
  is bit-identical to a serial :class:`BatchRunner` run with the same
  seed — regardless of completion order, retries, or worker deaths.

Checkpoints are shared with the serial runner (same file format, same
resume semantics), so a campaign can move between serial and pooled
execution across restarts.

**Distributed telemetry.**  When any of ``metrics``/``tracer``/``events``
is attached, each worker runs instrumented with a private
:class:`~repro.obs.distributed.WorkerTelemetry` and ships a
:class:`~repro.obs.distributed.TelemetryDelta` *with every result* over
the existing pipe — metrics since the last cut, finished span trees
(parented under the supervisor's dispatch span via a shipped
:class:`~repro.obs.tracing.TraceContext`), and buffered structured
events.  Riding the result channel makes telemetry exactly-once by
construction: a killed worker's unsent delta dies with its unsent
result, so the supervisor's :class:`~repro.obs.distributed.FleetView`
totals always equal the work it actually received; ``FleetView.apply``
is the one intake for a delta's metrics, spans, events and flight
samples, and the run manifest's stage timings come from the fleet
aggregate's histograms.  Supervisor-side,
every dispatch, completion, retry, kill, quarantine, and breaker trip
is a correlated record in the structured event log; per-worker
:class:`~repro.obs.events.FlightRecorder` black boxes are dumped to
``flight_recorder_dir`` on hung-worker kills, worker deaths, and
breaker trips (workers additionally dump their own box at armed crash
points, before ``os._exit``); and declarative
:class:`~repro.obs.alerts.AlertRule`\\ s are evaluated over the live
fleet aggregate each supervision cycle.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import uuid
from collections import deque
from dataclasses import asdict, dataclass, field
from multiprocessing import connection
from pathlib import Path
from typing import Union

import numpy as np

from repro.core.pipeline import (
    BatchConfig,
    BatchResult,
    BatchRunner,
    BlockFailure,
    BlockMeasurement,
)
from repro.core.retry import RetryPolicy
from repro.faults.crash import crashpoint, set_crash_observer
from repro.net.blocks import Block24
from repro.obs.alerts import AlertEngine
from repro.obs.distributed import FleetView, WorkerTelemetry
from repro.obs.events import NULL_EVENT_LOG, FlightRecorder
from repro.obs.export import RunManifest
from repro.obs.registry import NULL_REGISTRY
from repro.obs.tracing import NULL_TRACER
from repro.probing.rounds import RoundSchedule

__all__ = [
    "CircuitOpenError",
    "PoolConfig",
    "PoolRunner",
    "SlotSupervisor",
]


class SlotSupervisor:
    """Liveness tracking and paced respawn for long-running worker slots.

    The one supervision policy for worker slots: :class:`PoolRunner`
    builds one per run and the always-on service (``repro.serve``) one
    per runner — heartbeat staleness detection, respawn pacing under
    the shared :class:`~repro.core.retry.RetryPolicy`, streak reset
    once a replacement proves healthy — detached from any dispatch
    loop, plus a **rejoin hook**: a callback invoked after each
    successful respawn so the owner can return the recovered slot to
    service (the serve layer re-marks the shard healthy in its hash
    ring).

    The class is policy-only: it never touches processes itself.  The
    owner reports heartbeats (:meth:`beat`), asks which slots are stale
    (:meth:`stale`), asks how long to pace the next respawn of a slot
    (:meth:`respawn_delay`, which advances that slot's streak), and
    reports outcomes (:meth:`respawned`, :meth:`mark_alive`).
    """

    def __init__(
        self,
        deadline_s: float | None = None,
        backoff: RetryPolicy | None = None,
        rejoin=None,
        clock=time.monotonic,
    ) -> None:
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError("deadline_s must be positive")
        self.deadline_s = deadline_s
        self.backoff = backoff if backoff is not None else RetryPolicy()
        self.rejoin = rejoin
        self._clock = clock
        self._beats: dict = {}
        self._streaks: dict = {}
        self.n_respawns = 0

    def beat(self, slot, at: float | None = None) -> None:
        """Record a sign of life for ``slot`` (``at`` defaults to now)."""
        self._beats[slot] = self._clock() if at is None else at

    def age(self, slot) -> float:
        """Seconds since the slot's last recorded heartbeat."""
        beat = self._beats.get(slot)
        return float("inf") if beat is None else self._clock() - beat

    def stale(self, slot) -> bool:
        """Whether the slot's heartbeat has aged past the deadline."""
        return self.deadline_s is not None and self.age(slot) > self.deadline_s

    def streak(self, slot) -> int:
        """Consecutive respawns of this slot without a healthy period."""
        return self._streaks.get(slot, 0)

    def respawn_delay(self, slot) -> float:
        """Advance the slot's respawn streak; return the paced delay."""
        streak = self._streaks.get(slot, 0) + 1
        self._streaks[slot] = streak
        self.n_respawns += 1
        return self.backoff.delay_s(streak)

    def respawned(self, slot) -> None:
        """A replacement is up: restart its heartbeat, fire the rejoin hook."""
        self.beat(slot)
        if self.rejoin is not None:
            self.rejoin(slot)

    def mark_alive(self, slot) -> None:
        """The slot proved healthy; its respawn streak resets."""
        self._streaks.pop(slot, None)

    def forget(self, slot) -> None:
        """Drop all state for a retired slot."""
        self._beats.pop(slot, None)
        self._streaks.pop(slot, None)


class CircuitOpenError(RuntimeError):
    """The pool aborted after a burst of consecutive failures.

    A single bad block is isolated and retried; ``breaker_threshold``
    failures *in a row* mean something systemic (disk full, bad deploy,
    poisoned dataset) and continuing would burn the whole campaign.
    Completed work is already checkpointed when this raises; fix the
    environment and rerun to resume.
    """

    def __init__(self, n_consecutive: int, checkpoint_path) -> None:
        where = (
            f"; completed blocks are checkpointed at {checkpoint_path}"
            if checkpoint_path is not None
            else ""
        )
        super().__init__(
            f"circuit breaker open after {n_consecutive} consecutive "
            f"block failures{where}"
        )
        self.n_consecutive = n_consecutive
        self.checkpoint_path = checkpoint_path


@dataclass(frozen=True)
class PoolConfig:
    """Supervision policy for a pooled batch run.

    Attributes:
        batch: the serial resilience policy (measurement, retries,
            checkpointing) each worker applies per block.
        n_workers: worker processes.
        block_deadline_s: wall-clock budget per dispatched block;
            a worker whose heartbeat goes stale past it is killed and
            respawned.  ``None`` disables deadlines.
        max_block_failures: worker deaths tolerated per block before it
            is quarantined as a :class:`BlockFailure` (in-worker
            exceptions are already retried by the per-block pipeline;
            this bounds *environment* failures).
        breaker_threshold: consecutive failed blocks that trip
            :class:`CircuitOpenError`; ``None`` disables the breaker.
        heartbeat_interval_s: how often idle workers refresh their
            heartbeat; also the supervisor's poll granularity.
        respawn_backoff: pacing for consecutive respawns of the same
            worker slot (a crash-looping environment should not fork as
            fast as the kernel allows).  The streak resets when the
            slot's worker completes a task; the default zero-delay
            policy respawns instantly (legacy behavior).
        mp_context: multiprocessing start method.  ``"fork"`` (default)
            inherits test doubles and armed crash points; ``"spawn"``
            requires everything dispatched to be importable.
        flight_recorder_dir: where flight-recorder black boxes are
            dumped on worker kills, quarantines, crash points, and
            breaker trips; ``None`` disables dumping (recorders still
            run in memory when telemetry is attached).
        flight_recorder_capacity: events retained per worker's ring.
    """

    batch: BatchConfig = field(default_factory=BatchConfig)
    n_workers: int = 2
    block_deadline_s: float | None = None
    max_block_failures: int = 2
    breaker_threshold: int | None = 5
    heartbeat_interval_s: float = 0.05
    respawn_backoff: RetryPolicy = field(default_factory=RetryPolicy)
    mp_context: str = "fork"
    flight_recorder_dir: str | Path | None = None
    flight_recorder_capacity: int = 256

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ValueError("n_workers must be at least 1")
        if self.block_deadline_s is not None and self.block_deadline_s <= 0:
            raise ValueError("block_deadline_s must be positive")
        if self.max_block_failures < 1:
            raise ValueError("max_block_failures must be at least 1")
        if self.breaker_threshold is not None and self.breaker_threshold < 1:
            raise ValueError("breaker_threshold must be at least 1")
        if self.heartbeat_interval_s <= 0:
            raise ValueError("heartbeat_interval_s must be positive")
        if self.flight_recorder_capacity < 1:
            raise ValueError("flight_recorder_capacity must be at least 1")


def _worker_main(
    conn,
    heartbeat,
    worker_id,
    batch_config,
    schedule,
    telemetry=False,
    flight_dir=None,
) -> None:
    """Worker loop: recv ``(index, block, child, ctx)``, send
    ``(index, result, delta)``.

    Reuses :meth:`BatchRunner._measure_one` verbatim, so retry
    semantics and RNG substream derivation are *identical* to serial
    execution.  The heartbeat slot is refreshed at every task boundary
    and while idle; a worker wedged inside a block stops refreshing and
    the supervisor's deadline reaps it.

    With ``telemetry``, the worker measures under a private
    :class:`WorkerTelemetry` and cuts one delta per completed task,
    shipped in the same message as the result.  The cut happens *after*
    the ``pool.worker.task_done`` crash point: a worker killed there
    loses result and telemetry together, never one without the other.
    With ``flight_dir``, a crash-point firing dumps the worker's own
    black box before the process dies.
    """
    telem = None
    if telemetry or flight_dir is not None:
        recorder = (
            FlightRecorder() if flight_dir is not None else None
        )
        telem = WorkerTelemetry(worker_id, recorder=recorder)
        if recorder is not None:
            def _on_crash(point: str, action: str) -> None:
                recorder.dump(
                    Path(flight_dir)
                    / f"flight-w{worker_id}-p{os.getpid()}-crash.json",
                    reason=f"crashpoint:{point}",
                    worker_id=worker_id,
                    action=action,
                )

            set_crash_observer(_on_crash)
        runner = BatchRunner(
            batch_config, telem.registry, telem.tracer, events=telem.events
        )
    else:
        runner = BatchRunner(batch_config)
    fault_plan = runner._fault_plan()
    try:
        while True:
            heartbeat[worker_id] = time.monotonic()
            if not conn.poll(0.05):
                continue
            task = conn.recv()
            if task is None:
                return
            index, block, child, tctx = task
            heartbeat[worker_id] = time.monotonic()
            crashpoint("pool.worker.task_start")
            if telem is not None:
                telem.registry.counter("pool_worker_tasks_total").inc()
                with telem.tracer.trace(
                    "worker.measure_block",
                    parent_context=tctx,
                    index=index,
                    worker_id=worker_id,
                    block_id=int(getattr(block, "block_id", -1)),
                ):
                    result = runner._measure_one(
                        block, index, schedule, child, fault_plan
                    )
            else:
                result = runner._measure_one(
                    block, index, schedule, child, fault_plan
                )
            crashpoint("pool.worker.task_done")
            delta = telem.cut_delta() if telem is not None else None
            conn.send((index, result, delta))
            heartbeat[worker_id] = time.monotonic()
    except (EOFError, OSError, KeyboardInterrupt):
        return
    finally:
        conn.close()


@dataclass
class _Worker:
    """Supervisor-side handle for one worker process."""

    worker_id: int
    process: multiprocessing.Process
    conn: connection.Connection
    task: tuple | None = None
    span: object = None  # detached pool.dispatch span while a task is out


class _PoolMetrics:
    """Pre-bound pool supervision metrics (null registry by default)."""

    __slots__ = ("dispatched", "hung", "crashed", "quarantined",
                 "breaker_trips", "workers", "deltas", "failure_ratio",
                 "heartbeat_age", "dispatch_pauses")

    def __init__(self, registry) -> None:
        self.dispatched = registry.counter("pool_tasks_dispatched_total")
        self.dispatch_pauses = registry.counter("pool_dispatch_pauses_total")
        self.hung = registry.counter("pool_worker_restarts_total",
                                     reason="hung")
        self.crashed = registry.counter("pool_worker_restarts_total",
                                        reason="crashed")
        self.quarantined = registry.counter("pool_blocks_quarantined_total")
        self.breaker_trips = registry.counter("pool_breaker_trips_total")
        self.workers = registry.gauge("pool_workers")
        self.deltas = registry.counter("pool_telemetry_deltas_total")
        self.failure_ratio = registry.gauge("pool_block_failure_ratio")
        self.heartbeat_age = registry.gauge("pool_heartbeat_age_seconds")


class PoolRunner:
    """Run a batch across supervised worker processes.

    Drop-in alternative to :class:`BatchRunner.run` — same arguments,
    same :class:`BatchResult`, bit-identical results for the same seed —
    that additionally survives hung and dying workers.  See the module
    docstring for the supervision policy and the distributed-telemetry
    data flow.

    ``events`` is a :class:`repro.obs.EventLogger` (every supervision
    decision and every worker-shipped record lands in it, correlated by
    ``run_id``/``worker_id``/``trace_id``); ``alert_rules`` is an
    iterable of :class:`repro.obs.AlertRule` evaluated against the live
    fleet aggregate each supervision cycle.  After a run, ``fleet``
    holds the per-worker and aggregate metric view, ``alerts`` the rule
    engine with its firing state, and ``recorders`` the per-worker
    flight recorders.

    ``backpressure`` is an optional zero-argument callable (typically
    :meth:`repro.stream.overload.AdmissionController.backpressure` of a
    downstream consumer): while it returns true the dispatch loop stops
    handing new blocks to idle workers — in-flight blocks still
    complete — so an overloaded consumer slows the producer instead of
    forcing it to shed.  Pause/resume transitions are logged and counted
    (``pool_dispatch_pauses_total``, ``stats["dispatch_pauses"]``).
    """

    def __init__(
        self,
        config: PoolConfig | None = None,
        metrics=None,
        tracer=None,
        events=None,
        alert_rules=None,
        backpressure=None,
    ) -> None:
        self.config = config or PoolConfig()
        self.metrics = NULL_REGISTRY if metrics is None else metrics
        self.tracer = NULL_TRACER if tracer is None else tracer
        events = NULL_EVENT_LOG if events is None else events
        if events.enabled and self.tracer.enabled:
            events = events.bind(tracer=self.tracer)
        self.events = events
        self.backpressure = backpressure
        self._alert_rules = tuple(alert_rules) if alert_rules else ()
        self.alerts: AlertEngine | None = None
        self.fleet = FleetView()
        self.recorders: dict[int, FlightRecorder] = {}
        self.run_id: str | None = None
        self._m = _PoolMetrics(self.metrics)
        self._telemetry = bool(
            self.metrics.enabled or self.tracer.enabled or events.enabled
        )
        self._last_stats: dict = {}
        # Checkpoint IO and outcome counting are delegated to a serial
        # runner so the two execution modes share one format and one
        # metric family.
        self._serial = BatchRunner(
            self.config.batch, metrics, tracer, events=events
        )

    def run(
        self,
        blocks: list[Block24],
        schedule: RoundSchedule,
        seed: int = 0,
    ) -> BatchResult:
        self.run_id = uuid.uuid4().hex[:12]
        self.fleet = FleetView()
        self.recorders = {}
        events = self.events.bind(run_id=self.run_id)
        self._serial.events = events
        self.alerts = (
            AlertEngine(self._alert_rules, events=events, metrics=self.metrics)
            if self._alert_rules
            else None
        )
        self._last_stats = {
            "respawns_hung": 0,
            "respawns_crashed": 0,
            "blocks_quarantined": 0,
            "breaker_trips": 0,
            "alerts_fired": 0,
            "flight_dumps": 0,
            "dispatch_pauses": 0,
        }
        try:
            with self.tracer.trace(
                "pool.run",
                n_blocks=len(blocks),
                seed=seed,
                n_workers=self.config.n_workers,
            ) as root:
                events.info(
                    "run.start",
                    kind="pool",
                    n_blocks=len(blocks),
                    seed=seed,
                    n_workers=self.config.n_workers,
                )
                result = self._run(blocks, schedule, seed, root, events)
                events.info("run.end", summary=result.summary())
        except BaseException as error:
            events.error(
                "run.aborted",
                error_type=type(error).__name__,
                message=str(error),
            )
            raise
        result.manifest = self._manifest(seed, len(blocks))
        return result

    def _manifest(self, seed: int, n_blocks: int) -> RunManifest:
        fault_plan = self._serial._fault_plan()
        return RunManifest.capture(
            kind="pool",
            registry=self.fleet.aggregate(self.metrics),
            seed=seed,
            n_blocks=n_blocks,
            fault_plan=(
                fault_plan.describe()
                if fault_plan is not None
                else "clean (no faults)"
            ),
            quality_gates=asdict(self.config.batch.measurement.classifier),
            max_retries=self.config.batch.max_retries,
            checkpoint_path=(
                str(self.config.batch.checkpoint_path)
                if self.config.batch.checkpoint_path is not None
                else None
            ),
            fill_policy=self.config.batch.measurement.fill_policy,
            n_workers=self.config.n_workers,
            block_deadline_s=self.config.block_deadline_s,
            max_block_failures=self.config.max_block_failures,
            breaker_threshold=self.config.breaker_threshold,
            run_id=self.run_id,
            pool_stats=dict(self._last_stats),
            telemetry={
                "n_deltas": self.fleet.n_deltas,
                "workers_heard": len(self.fleet.worker_ids()),
                "events_logged": getattr(self.events, "n_records", 0),
                "alerts_fired": (
                    self.alerts.n_fired if self.alerts is not None else 0
                ),
            },
        )

    def _run(
        self,
        blocks: list[Block24],
        schedule: RoundSchedule,
        seed: int,
        root,
        events,
    ) -> BatchResult:
        children = np.random.SeedSequence(seed).spawn(len(blocks))
        completed = self._serial._load_checkpoint(schedule, seed, len(blocks))
        n_resumed = len(completed)
        if n_resumed:
            self._serial._m.resumed.inc(n_resumed)
            events.info("run.resumed", n_resumed=n_resumed)

        pending = deque(
            (index, blocks[index], children[index])
            for index in range(len(blocks))
            if index not in completed
        )
        if pending:
            self._supervise(
                pending, completed, blocks, schedule, seed, root, events
            )
        results = [completed[i] for i in range(len(blocks))]
        return BatchResult(results=results, n_resumed=n_resumed)

    def _supervise(
        self,
        pending: deque,
        completed: dict[int, Union[BlockMeasurement, BlockFailure]],
        blocks: list[Block24],
        schedule: RoundSchedule,
        seed: int,
        root,
        events,
    ) -> None:
        config = self.config
        ctx = multiprocessing.get_context(config.mp_context)
        heartbeat = ctx.Array("d", config.n_workers, lock=False)
        fr_dir = (
            Path(config.flight_recorder_dir)
            if config.flight_recorder_dir is not None
            else None
        )
        if fr_dir is not None:
            fr_dir.mkdir(parents=True, exist_ok=True)
        workers = [
            self._spawn(ctx, wid, heartbeat, schedule)
            for wid in range(config.n_workers)
        ]
        self._m.workers.set(len(workers))
        fleet = self.fleet
        alerts = self.alerts
        stats = self._last_stats
        recorders = self.recorders
        env_failures: dict[int, int] = {}
        slots = SlotSupervisor(config.block_deadline_s, config.respawn_backoff)
        bp_active = False
        state = {
            "consecutive": 0,
            "pending_since_flush": 0,
            "n_done": 0,
            "n_failed": 0,
        }
        n_blocks = len(blocks)
        # Per-worker bound loggers tee into that worker's flight
        # recorder, which outlives respawns: the black box is about the
        # worker *slot*, and a replacement's history continues it.
        wlogs: dict[int, object] = {}

        def recorder(wid: int) -> FlightRecorder:
            rec = recorders.get(wid)
            if rec is None:
                rec = recorders[wid] = FlightRecorder(
                    capacity=config.flight_recorder_capacity
                )
            return rec

        def wlog(wid: int):
            logger = wlogs.get(wid)
            if logger is None:
                if events.enabled or fr_dir is not None:
                    logger = events.bind(ring=recorder(wid), worker_id=wid)
                else:
                    logger = events  # fully dark: no ring, no recorder
                wlogs[wid] = logger
            return logger

        def dump_flight(wid: int, reason: str, **extra) -> None:
            if fr_dir is None or wid not in recorders:
                return
            stats["flight_dumps"] += 1
            path = fr_dir / f"flight-w{wid}-{stats['flight_dumps']:03d}.json"
            out = recorders[wid].dump(
                path,
                reason=reason,
                run_id=self.run_id,
                worker_id=wid,
                **extra,
            )
            events.info(
                "flight.dumped", worker_id=wid, reason=reason, path=str(out)
            )

        def span_fields(span) -> dict:
            if span is None:
                return {}
            return {"trace_id": span.trace_id, "span_id": span.span_id}

        def evaluate_alerts() -> None:
            if alerts is None:
                return
            alerts.evaluate(fleet.aggregate(self.metrics))
            stats["alerts_fired"] = alerts.n_fired

        def record(index, outcome) -> None:
            completed[index] = outcome
            self._serial._count_outcome(outcome)
            crashpoint("pool.block_done")
            state["n_done"] += 1
            if isinstance(outcome, BlockFailure):
                state["consecutive"] += 1
                state["n_failed"] += 1
            else:
                state["consecutive"] = 0
            self._m.failure_ratio.set(state["n_failed"] / state["n_done"])
            state["pending_since_flush"] += 1
            if (
                config.batch.checkpoint_path is not None
                and state["pending_since_flush"]
                >= config.batch.checkpoint_every
            ):
                self._serial._save_checkpoint(
                    completed, schedule, seed, n_blocks
                )
                state["pending_since_flush"] = 0
                crashpoint("pool.checkpointed")

        def reap(worker: _Worker, reason: str) -> _Worker:
            """Kill/bury one worker, requeue or quarantine its block."""
            (self._m.hung if reason == "hung" else self._m.crashed).inc()
            stats[
                "respawns_hung" if reason == "hung" else "respawns_crashed"
            ] += 1
            wid = worker.worker_id
            index = worker.task[0] if worker.task is not None else None
            wlog(wid).warning(
                f"worker.{reason}",
                pid=worker.process.pid,
                index=index,
                **span_fields(worker.span),
            )
            if worker.process.is_alive():
                worker.process.terminate()
            worker.process.join(timeout=5.0)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(timeout=5.0)
            try:
                worker.conn.close()
            except OSError:
                pass
            if worker.task is not None:
                index, block, child = worker.task
                if worker.span is not None:
                    worker.span.attrs["outcome"] = reason
                self.tracer.end(worker.span, parent=root)
                worker.span = None
                env_failures[index] = env_failures.get(index, 0) + 1
                if env_failures[index] >= config.max_block_failures:
                    self._m.quarantined.inc()
                    stats["blocks_quarantined"] += 1
                    wlog(wid).error(
                        "block.quarantined",
                        index=index,
                        block_id=int(getattr(block, "block_id", -1)),
                        failures=env_failures[index],
                    )
                    record(
                        index,
                        BlockFailure(
                            block_id=int(getattr(block, "block_id", -1)),
                            index=index,
                            error_type="WorkerLost",
                            message=(
                                f"worker {reason} "
                                f"{env_failures[index]} time(s); "
                                f"block quarantined as poison"
                            ),
                            attempts=env_failures[index],
                        ),
                    )
                else:
                    # Same pickled child ⇒ the retry is bit-identical
                    # to what an undisturbed worker would have produced.
                    pending.appendleft(worker.task)
                    wlog(wid).info(
                        "task.requeued",
                        index=index,
                        failures=env_failures[index],
                    )
            dump_flight(wid, reason=f"worker {reason}", index=index)
            delay = slots.respawn_delay(wid)
            if delay > 0:
                # Pace consecutive respawns of the same slot: a sick
                # environment (OOM storm, bad deploy) otherwise turns
                # the supervisor into a fork bomb.
                wlog(wid).warning("worker.respawn_backoff",
                                  streak=slots.streak(wid), delay_s=delay)
                time.sleep(delay)
            replacement = self._spawn(ctx, wid, heartbeat, schedule)
            workers[wid] = replacement
            wlog(wid).info("worker.respawned", pid=replacement.process.pid)
            evaluate_alerts()
            return replacement

        try:
            while len(completed) < n_blocks:
                if (
                    config.breaker_threshold is not None
                    and state["consecutive"] >= config.breaker_threshold
                ):
                    self._m.breaker_trips.inc()
                    stats["breaker_trips"] += 1
                    events.error(
                        "breaker.open",
                        consecutive=state["consecutive"],
                        checkpoint_path=(
                            str(config.batch.checkpoint_path)
                            if config.batch.checkpoint_path is not None
                            else None
                        ),
                    )
                    evaluate_alerts()
                    for wid in sorted(recorders):
                        dump_flight(wid, reason="breaker open")
                    if (
                        config.batch.checkpoint_path is not None
                        and state["pending_since_flush"]
                    ):
                        self._serial._save_checkpoint(
                            completed, schedule, seed, n_blocks
                        )
                        state["pending_since_flush"] = 0
                    raise CircuitOpenError(
                        state["consecutive"], config.batch.checkpoint_path
                    )

                paused = bool(
                    self.backpressure is not None
                    and pending
                    and self.backpressure()
                )
                if paused and not bp_active:
                    self._m.dispatch_pauses.inc()
                    stats["dispatch_pauses"] += 1
                    events.warning(
                        "pool.dispatch_paused", queued=len(pending)
                    )
                elif bp_active and not paused:
                    events.info("pool.dispatch_resumed", queued=len(pending))
                bp_active = paused
                for worker in workers:
                    if worker.task is None and pending and not paused:
                        task = pending.popleft()
                        index = task[0]
                        span = self.tracer.begin(
                            "pool.dispatch",
                            index=index,
                            worker_id=worker.worker_id,
                            parent=root,
                        )
                        tctx = span.context if span is not None else None
                        try:
                            worker.conn.send((*task, tctx))
                        except (OSError, ValueError):
                            worker.task = task  # requeued by reap
                            worker.span = span
                            reap(worker, "crashed")
                            continue
                        worker.task = task
                        worker.span = span
                        heartbeat[worker.worker_id] = time.monotonic()
                        self._m.dispatched.inc()
                        wlog(worker.worker_id).debug(
                            "task.dispatched",
                            index=index,
                            **span_fields(span),
                        )

                handles: dict[object, tuple[_Worker, str]] = {}
                for worker in workers:
                    if worker.task is not None:
                        handles[worker.conn] = (worker, "conn")
                    handles[worker.process.sentinel] = (worker, "sentinel")
                ready = connection.wait(
                    list(handles), timeout=config.heartbeat_interval_s
                )
                replaced: set[int] = set()
                for handle in ready:
                    worker, kind = handles[handle]
                    if worker.worker_id in replaced:
                        continue
                    if kind == "conn":
                        try:
                            index, outcome, delta = worker.conn.recv()
                        except (EOFError, OSError):
                            reap(worker, "crashed")
                            replaced.add(worker.worker_id)
                            continue
                        span = worker.span
                        worker.task = None
                        worker.span = None
                        slots.mark_alive(worker.worker_id)
                        if delta is not None and fleet.apply(
                            delta, self.tracer, events,
                            recorder(delta.worker_id), parent=span,
                        ):
                            self._m.deltas.inc()
                        if span is not None:
                            span.attrs["outcome"] = "completed"
                        self.tracer.end(span, parent=root)
                        wlog(worker.worker_id).debug(
                            "task.completed",
                            index=index,
                            **span_fields(span),
                        )
                        if isinstance(outcome, BlockFailure):
                            wlog(worker.worker_id).warning(
                                "block.failed",
                                index=index,
                                block_id=outcome.block_id,
                                error_type=outcome.error_type,
                                message=outcome.message,
                                attempts=outcome.attempts,
                                **span_fields(span),
                            )
                        record(index, outcome)
                        evaluate_alerts()
                    else:  # sentinel: the process died
                        reap(worker, "crashed")
                        replaced.add(worker.worker_id)

                busy = [worker for worker in workers if worker.task is not None]
                for worker in busy:
                    slots.beat(worker.worker_id, at=heartbeat[worker.worker_id])
                self._m.heartbeat_age.set(
                    max((slots.age(w.worker_id) for w in busy), default=0.0)
                )
                for worker in busy:
                    if slots.stale(worker.worker_id):
                        reap(worker, "hung")

            if (
                config.batch.checkpoint_path is not None
                and state["pending_since_flush"]
            ):
                self._serial._save_checkpoint(
                    completed, schedule, seed, n_blocks
                )
            evaluate_alerts()
        finally:
            for worker in workers:
                try:
                    worker.conn.send(None)
                except (OSError, ValueError):
                    pass
            for worker in workers:
                worker.process.join(timeout=2.0)
                if worker.process.is_alive():
                    worker.process.terminate()
                    worker.process.join(timeout=5.0)
                try:
                    worker.conn.close()
                except OSError:
                    pass
            self._m.workers.set(0)
            self._m.heartbeat_age.set(0.0)

    def _spawn(self, ctx, worker_id: int, heartbeat, schedule) -> _Worker:
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        heartbeat[worker_id] = time.monotonic()
        process = ctx.Process(
            target=_worker_main,
            args=(
                child_conn,
                heartbeat,
                worker_id,
                self.config.batch,
                schedule,
                self._telemetry,
                (
                    str(self.config.flight_recorder_dir)
                    if self.config.flight_recorder_dir is not None
                    else None
                ),
            ),
            daemon=True,
            name=f"pool-worker-{worker_id}",
        )
        process.start()
        child_conn.close()  # parent must not hold the child's end open
        return _Worker(
            worker_id=worker_id, process=process, conn=parent_conn
        )
