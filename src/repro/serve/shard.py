"""The shard worker: one process owning a slice of the block space.

Each shard runs the full streaming stack for the blocks the hash ring
assigns it: a :class:`~repro.stream.engine.StreamEngine` behind an
:class:`~repro.stream.overload.AdmissionController`, fed write-ahead
through a per-shard :class:`~repro.stream.journal.StreamJournal`.  The
ordering is the durability contract: an observation batch is **framed
into the journal before it is offered to the admission queue**, so a
shard killed at any instant recovers by replaying its journal into a
fresh engine.  Live batches and the replay take the same path into
the engine, ``StreamEngine.ingest_many`` (through ``submit``/``pump``
live, through the unloaded controller's ``ingest_many`` on replay), so
the recovered engine state is bit-identical to an uninterrupted run
over the same admitted observations.

The runner assigns every observation copy a sequence number from the
*destination* shard's stream and ships it with the batch, at every
replication factor; the worker masks any seq at or below its journal
high-water before journaling, so a retried or re-forwarded batch
(hinted handoff, a retro-hinted tail of a half-acked RPC) is
idempotent — duplicates are dropped exactly where the durability
record lives.  Each worker also keeps bounded in-memory **hint
queues**: observation copies owed to a dead peer shard, stored here
because this worker is the first live replica in that observation's
chain.  The supervisor drains them with ``peek_hints`` /
``ack_hints`` (destructive only after the forward succeeded) when the
peer rejoins.

The worker speaks a small pickled request/response protocol over the
supervisor pipe (``ingest`` / ``query_block`` / ``phase_map`` /
``store_hints`` / ``peek_hints`` / ``ack_hints`` /
``stats`` / ``flush`` / ``drain`` / ``stop``), refreshes a shared
heartbeat slot every loop so the supervisor's staleness deadline can
reap a wedged shard, and ships a
:class:`~repro.obs.distributed.TelemetryDelta` with every reply — the
same ride-the-result-channel idiom the pool uses, so fleet metric
totals always equal the work the supervisor actually heard about.

Graceful drain ordering (the clean-stop contract): ``drain`` first
pumps the admission queue dry, then flushes the engine (closing every
due window), then flushes **and fsyncs** the journal — only after the
reply does the supervisor send ``stop``, so a clean shutdown can never
leave a torn journal tail or a half-admitted queue behind.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import asdict, dataclass, field
from math import isnan

import numpy as np

from repro.core.classify import DiurnalClass, DiurnalReport
from repro.faults.crash import crashpoint
from repro.obs.distributed import WorkerTelemetry
from repro.obs.tracing import NULL_TRACER, TraceContext
from repro.stream.engine import ProvisionalEstimate, StreamConfig, StreamEngine
from repro.stream.journal import StreamJournal, replay_journal
from repro.stream.overload import AdmissionController, OverloadConfig

__all__ = [
    "ShardClient",
    "ShardConfig",
    "ShardDownError",
    "ShardTimeoutError",
    "snapshot_to_dict",
]


class ShardDownError(RuntimeError):
    """The shard's worker process is dead or its pipe is closed."""


class ShardTimeoutError(RuntimeError):
    """The shard did not answer a request within the deadline."""


@dataclass(frozen=True)
class ShardConfig:
    """Per-shard streaming stack configuration (picklable).

    Attributes:
        stream: engine grid/window/classifier knobs, shared by every
            shard so verdicts are placement-independent.
        overload: admission-queue bounds and shed policy.
        journal_sync_every: observations between journal fsyncs
            (``None`` fsyncs only on flush/drain).
        pump_budget: queued observations serviced per ingest request
            and per idle heartbeat cycle; offered load beyond this rate
            accumulates in the admission queue and eventually asserts
            backpressure.
        heartbeat_interval_s: worker loop poll granularity (and the
            rate the shared heartbeat slot refreshes at).
        hint_capacity: total hinted observations this worker will hold
            for dead peers before refusing further stores (the runner
            marks the starved peer stale — degradation is explicit,
            never silent memory growth).
        telemetry: run the shard instrumented and ship deltas.
    """

    stream: StreamConfig
    overload: OverloadConfig = field(default_factory=OverloadConfig)
    journal_sync_every: int | None = 256
    pump_budget: int = 2048
    heartbeat_interval_s: float = 0.05
    hint_capacity: int = 65536
    telemetry: bool = True

    def __post_init__(self) -> None:
        if self.journal_sync_every is not None and self.journal_sync_every < 1:
            raise ValueError("journal_sync_every must be positive")
        if self.pump_budget < 1:
            raise ValueError("pump_budget must be positive")
        if self.heartbeat_interval_s <= 0:
            raise ValueError("heartbeat_interval_s must be positive")
        if self.hint_capacity < 1:
            raise ValueError("hint_capacity must be positive")


def _clean_float(value) -> float | None:
    """JSON-safe float: NaN becomes None (JSON has no NaN literal)."""
    value = float(value)
    return None if isnan(value) else value


def _report_to_dict(report: DiurnalReport | None) -> dict | None:
    if report is None:
        return None
    out = asdict(report)
    out["label"] = report.label.value
    for key in (
        "diurnal_amplitude",
        "dominant_cycles_per_day",
        "strongest_other",
        "strongest_harmonic",
        "phase",
    ):
        out[key] = _clean_float(out[key])
    return out


def snapshot_to_dict(snapshot: dict | None) -> dict | None:
    """Flatten :meth:`StreamEngine.snapshot` output for JSON transport.

    Engine-native objects (:class:`DiurnalClass`,
    :class:`DiurnalReport`, :class:`ProvisionalEstimate`) become plain
    dicts/strings; NaN floats become ``null`` so the payload is valid
    strict JSON.
    """
    if snapshot is None:
        return None
    out = dict(snapshot)
    label = out.get("stable_label")
    if isinstance(label, DiurnalClass):
        out["stable_label"] = label.value
    out["last_report"] = _report_to_dict(out.get("last_report"))
    prov = out.get("provisional")
    if isinstance(prov, ProvisionalEstimate):
        prov_dict = asdict(prov)
        for key in (
            "mean",
            "diurnal_amplitude",
            "diurnal_phase",
            "strongest_harmonic",
        ):
            prov_dict[key] = _clean_float(prov_dict[key])
        out["provisional"] = prov_dict
    return out


# -- worker process ----------------------------------------------------------


def _shard_main(
    conn,
    heartbeat,
    shard_id: int,
    config: ShardConfig,
    journal_path: str,
) -> None:
    """Worker loop: recover from the journal, then serve requests.

    Startup is recovery: open the journal (one read and one scan of
    the file, torn tail truncated), replay the intact frames that scan
    found through the admission controller into a fresh engine, and
    only then report ``("ready", info)`` — a shard is never in the ring
    with partial state.  ``info["recovery_s"]`` is the wall time of
    that recovery, measured here in the worker.
    """
    t_start = time.perf_counter()
    telem = WorkerTelemetry(shard_id) if config.telemetry else None
    registry = telem.registry if telem is not None else None
    events = telem.events if telem is not None else None
    engine = StreamEngine(config.stream, metrics=registry, events=events)
    controller = AdmissionController(
        engine, config.overload, metrics=registry, events=events
    )
    journal = StreamJournal(
        journal_path,
        sync_every=config.journal_sync_every,
        metrics=registry,
    )
    n_replayed = replay_journal(journal, controller)
    recovery_s = time.perf_counter() - t_start
    # Hinted handoff: observation copies owed to dead peer shards,
    # keyed by the peer's shard id, each entry (seq, block, time,
    # value) in the peer's own sequence stream.  Memory-resident by
    # design — the copy is already durable in *this* shard's journal;
    # the hint only shortens the peer's catch-up (see DESIGN.md for
    # the double-failure caveat).
    hints: dict[int, list[tuple[int, int, float, float]]] = {}
    hint_gauge = (
        registry.gauge("shard_hint_backlog") if registry is not None else None
    )

    def _hint_backlog() -> int:
        return sum(len(bucket) for bucket in hints.values())

    def _set_hint_gauge() -> None:
        if hint_gauge is not None:
            hint_gauge.set(_hint_backlog())

    conn.send(
        (
            "ready",
            {
                "shard_id": shard_id,
                "pid": os.getpid(),
                "n_replayed": n_replayed,
                "recovered_records": journal.recovery.n_records,
                "truncated_bytes": journal.recovery.truncated_bytes,
                "last_seq": journal.next_seq - 1,
                "recovery_s": recovery_s,
            },
        )
    )

    def _stats() -> dict:
        stats = controller.stats()
        stats.update(
            shard_id=shard_id,
            pid=os.getpid(),
            n_blocks=len(engine.blocks()),
            n_invalid=engine.n_invalid,
            journal_last_seq=journal.next_seq - 1,
            n_replayed=n_replayed,
            hint_backlog=_hint_backlog(),
        )
        return stats

    tracer = telem.tracer if telem is not None else NULL_TRACER

    def _handle(op: str, args: tuple):
        if op == "ingest":
            block_ids, times, values, seqs, trace_ctx = args
            parent = (
                TraceContext(**trace_ctx) if trace_ctx is not None else None
            )
            # Idempotence mask: anything at or below the journal
            # high-water is already durable here (a half-acked RPC the
            # runner retro-hinted, or a hint replayed twice).  Dropping
            # it *before* the write-ahead keeps replay and the live
            # engine in exact agreement.
            keep = seqs > journal.next_seq - 1
            n_duplicates = int(len(seqs) - keep.sum())
            if n_duplicates:
                block_ids = block_ids[keep]
                times = times[keep]
                values = values[keep]
                seqs = seqs[keep]
            # The shard-side leaf of the request span tree: the ingest
            # work (journal write-ahead + admission + pump) under the
            # supervisor's shard.rpc span.  The span (and the event it
            # stamps) ships home on this reply's telemetry delta.
            with tracer.trace(
                "engine.ingest",
                parent_context=parent,
                shard_id=shard_id,
                n=int(len(times)),
            ):
                # Write-ahead: the batch must reach the OS before
                # admission (settle), or a SIGKILL loses acked
                # observations from the user-space buffer; fsync stays
                # on the sync_every cadence.
                journal.append_many(block_ids, times, values, seqs=seqs)
                journal.settle()
                crashpoint("serve.shard.journaled")
                controller.submit(block_ids, times, values)
                controller.pump(config.pump_budget)
                if parent is not None and events is not None:
                    # One correlated record per traced ingest RPC: the
                    # event-log line whose span id resolves to the
                    # engine.ingest node of the request's span tree.
                    events.info(
                        "shard.ingest",
                        n=int(len(times)),
                        depth=controller.depth,
                        last_seq=journal.next_seq - 1,
                    )
            return {
                "accepted": int(len(times)),
                "n_duplicates": n_duplicates,
                "depth": controller.depth,
                "paused": controller.backpressure(),
                "n_shed": controller.n_shed,
                "last_seq": journal.next_seq - 1,
            }
        if op == "store_hints":
            target, h_ids, h_times, h_values, h_seqs = args
            bucket = hints.setdefault(int(target), [])
            room = config.hint_capacity - _hint_backlog()
            incoming = list(zip(
                map(int, h_seqs), map(int, h_ids),
                map(float, h_times), map(float, h_values),
            ))
            stored = incoming[: max(0, room)]
            if stored:
                # Stores usually arrive in seq order per target;
                # concurrent writes can finish out of assignment order,
                # so re-sort only when a store actually did.
                out_of_order = bool(bucket) and bucket[-1][0] > stored[0][0]
                bucket.extend(stored)
                if out_of_order:
                    bucket.sort()
            _set_hint_gauge()
            return {
                "stored": len(stored),
                "dropped": len(incoming) - len(stored),
                "backlog": _hint_backlog(),
            }
        if op == "peek_hints":
            target, max_n = args
            bucket = hints.get(int(target), [])
            batch = bucket[: int(max_n)]
            return {
                "seqs": [h[0] for h in batch],
                "block_ids": [h[1] for h in batch],
                "times": [h[2] for h in batch],
                "values": [h[3] for h in batch],
                "remaining": len(bucket) - len(batch),
            }
        if op == "ack_hints":
            target, upto_seq = args
            bucket = hints.get(int(target))
            acked = 0
            if bucket:
                kept = [h for h in bucket if h[0] > int(upto_seq)]
                acked = len(bucket) - len(kept)
                if kept:
                    hints[int(target)] = kept
                else:
                    del hints[int(target)]
                _set_hint_gauge()
            return {"acked": acked, "backlog": _hint_backlog()}
        if op == "query_block":
            (block_id,) = args
            snapshot = snapshot_to_dict(engine.snapshot(block_id))
            if snapshot is not None:
                snapshot["shard_id"] = shard_id
            return snapshot
        if op == "phase_map":
            return engine.phase_map()
        if op == "stats":
            return _stats()
        if op == "flush":
            (close_partial,) = args
            controller.flush(close_partial=close_partial)
            journal.flush()
            return _stats()
        if op == "drain":
            # Clean-stop ordering: queue dry -> windows closed ->
            # journal flushed and fsynced.  Only then is it safe for
            # the supervisor to send "stop".
            controller.pump()
            engine.flush()
            journal.flush()
            crashpoint("serve.shard.drained")
            return _stats()
        raise ValueError(f"unknown shard op {op!r}")

    try:
        while True:
            heartbeat[shard_id] = time.monotonic()
            if not conn.poll(config.heartbeat_interval_s):
                if controller.depth:
                    controller.pump(config.pump_budget)
                continue
            message = conn.recv()
            if message is None or message[0] == "stop":
                journal.close()
                return
            op, args = message[0], message[1:]
            try:
                payload = _handle(op, args)
            except Exception as error:  # surfaced supervisor-side
                conn.send(("err", type(error).__name__, str(error), None))
                continue
            delta = telem.cut_delta() if telem is not None else None
            conn.send(("ok", payload, delta))
    except (EOFError, OSError, KeyboardInterrupt):
        return
    finally:
        conn.close()


# -- supervisor-side handle --------------------------------------------------


class ShardClient:
    """Synchronous RPC handle for one shard worker process.

    One request is in flight per shard at a time (the pipe is a serial
    channel); concurrent callers — asyncio handlers offloaded to the
    executor pool, the supervision thread — serialize on the client
    lock.  A dead or closed pipe raises :class:`ShardDownError`; a
    worker that does not answer within ``timeout_s`` raises
    :class:`ShardTimeoutError` (the supervisor's staleness deadline
    will reap it).  ``on_delta`` receives every shipped telemetry
    delta (the runner feeds them to its
    :class:`~repro.obs.distributed.FleetView`).
    """

    def __init__(
        self,
        shard_id: int,
        process,
        conn,
        timeout_s: float = 30.0,
        on_delta=None,
    ) -> None:
        self.shard_id = shard_id
        self.process = process
        self.conn = conn
        self.timeout_s = timeout_s
        self.on_delta = on_delta
        self.ready_info: dict | None = None
        self._lock = threading.Lock()

    def wait_ready(self, timeout_s: float | None = None) -> dict:
        """Block until the worker finishes journal recovery."""
        timeout = self.timeout_s if timeout_s is None else timeout_s
        with self._lock:
            try:
                if not self.conn.poll(timeout):
                    raise ShardTimeoutError(
                        f"shard {self.shard_id} not ready after {timeout}s"
                    )
                kind, info = self.conn.recv()
            except (EOFError, OSError) as error:
                raise ShardDownError(
                    f"shard {self.shard_id} died during recovery"
                ) from error
        if kind != "ready":
            raise ShardDownError(
                f"shard {self.shard_id} sent {kind!r} before ready"
            )
        self.ready_info = info
        return info

    def request(self, op: str, *args):
        with self._lock:
            try:
                self.conn.send((op, *args))
                if not self.conn.poll(self.timeout_s):
                    raise ShardTimeoutError(
                        f"shard {self.shard_id} did not answer {op!r} "
                        f"within {self.timeout_s}s"
                    )
                reply = self.conn.recv()
            except (EOFError, OSError, BrokenPipeError) as error:
                raise ShardDownError(
                    f"shard {self.shard_id} is down (pipe error on {op!r})"
                ) from error
        if reply[0] == "err":
            _, error_type, message, _ = reply
            raise RuntimeError(
                f"shard {self.shard_id} failed {op!r}: "
                f"{error_type}: {message}"
            )
        _, payload, delta = reply
        if delta is not None and self.on_delta is not None:
            self.on_delta(delta)
        return payload

    # Typed wrappers -- one per protocol op.

    def ingest(
        self, block_ids, times, values, seqs, trace_context=None
    ) -> dict:
        """Ship one observation batch; ``trace_context`` (a
        :meth:`TraceContext.to_dict` payload or None) parents the
        shard-side ``engine.ingest`` span under the caller's span.
        ``seqs`` carries the runner-assigned destination-stream
        sequence numbers; the worker masks any at or below its journal
        high-water, making re-sends idempotent."""
        return self.request(
            "ingest",
            np.ascontiguousarray(block_ids, dtype=np.int64),
            np.ascontiguousarray(times, dtype=np.float64),
            np.ascontiguousarray(values, dtype=np.float64),
            np.ascontiguousarray(seqs, dtype=np.int64),
            trace_context,
        )

    def store_hints(self, target: int, block_ids, times, values, seqs) -> dict:
        """Park observation copies owed to dead shard ``target`` here."""
        return self.request(
            "store_hints", int(target),
            list(block_ids), list(times), list(values), list(seqs),
        )

    def peek_hints(self, target: int, max_n: int = 4096) -> dict:
        """Read (without removing) up to ``max_n`` hints for ``target``."""
        return self.request("peek_hints", int(target), int(max_n))

    def ack_hints(self, target: int, upto_seq: int) -> dict:
        """Drop hints for ``target`` up to ``upto_seq`` (forward done)."""
        return self.request("ack_hints", int(target), int(upto_seq))

    def query_block(self, block_id: int) -> dict | None:
        return self.request("query_block", int(block_id))

    def phase_map(self) -> dict:
        return self.request("phase_map")

    def stats(self) -> dict:
        return self.request("stats")

    def flush(self, close_partial: bool = False) -> dict:
        return self.request("flush", bool(close_partial))

    def drain(self) -> dict:
        return self.request("drain")

    def stop(self, join_timeout_s: float = 5.0) -> None:
        """Ask the worker to exit; escalate to terminate if it won't."""
        with self._lock:
            try:
                self.conn.send(("stop",))
            except (OSError, ValueError, BrokenPipeError):
                pass
        self.process.join(timeout=join_timeout_s)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=join_timeout_s)
        try:
            self.conn.close()
        except OSError:
            pass

    def kill(self) -> None:
        """Hard-kill the worker (the chaos path: no drain, no flush)."""
        if self.process.is_alive():
            self.process.kill()
        self.process.join(timeout=5.0)
        try:
            self.conn.close()
        except OSError:
            pass

    @property
    def alive(self) -> bool:
        return self.process.is_alive()

    @property
    def pid(self) -> int | None:
        return self.process.pid
