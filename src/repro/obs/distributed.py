"""Cross-process telemetry: worker deltas, supervisor fleet view.

Worker processes run the measurement pipeline dark unless their
telemetry crosses the process boundary.  This module is that bridge,
built on three primitives from the registry/tracing layers:

* ``MetricsRegistry.state()`` / :func:`~repro.obs.registry.diff_states`
  / ``MetricsRegistry.merge()`` — exact, plain-data metric transfer;
* :class:`~repro.obs.tracing.TraceContext` — the picklable carrier that
  parents worker spans under the supervisor's dispatch span;
* :class:`~repro.obs.events.EventLogger` ring buffers — worker events
  buffered in memory and shipped with results.

The flow: each worker holds a :class:`WorkerTelemetry` (a real
registry, tracer, and buffering event logger).  After every task it
:meth:`~WorkerTelemetry.cut_delta`\\ s — metrics since the last cut,
newly finished span trees, buffered events — and ships the
:class:`TelemetryDelta` over the existing result channel.  Because a
delta rides *with* its result, telemetry is exactly-once by
construction: a killed worker's unsent delta dies with it, exactly as
its unsent result does, so the supervisor's fleet totals always equal
the sum of work it actually received.

Supervisor-side, a :class:`FleetView` is the one intake for deltas:
:meth:`~FleetView.apply` merges the metrics into that worker's registry,
grafts the span trees into the supervisor's tracer, forwards the events
to its log, and tees events plus a metric sample into the worker's
flight recorder.  :meth:`~FleetView.aggregate` combines the per-worker
registries — counters and histograms sum, gauges sum (a fleet level is
the sum of per-worker levels), EWMA meters combine count-weighted.
Deltas are sequence-guarded per worker incarnation, so a re-applied
delta is a no-op.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field

from repro.obs.events import NULL_EVENT_LOG, EventLogger
from repro.obs.registry import MetricsRegistry, _state_key, diff_states
from repro.obs.tracing import NULL_TRACER, Tracer

__all__ = [
    "FleetView",
    "TelemetryDelta",
    "WorkerTelemetry",
    "aggregate_registries",
]


@dataclass
class TelemetryDelta:
    """One worker's telemetry since its previous shipment (picklable).

    ``seq`` increases per cut within one worker incarnation; ``pid``
    distinguishes incarnations (a respawned worker restarts at seq 1
    under a new pid, so the supervisor's replay guard never confuses
    the two).
    """

    worker_id: int
    seq: int
    pid: int
    metrics: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    events: list = field(default_factory=list)

    @property
    def is_empty(self) -> bool:
        return not (self.metrics or self.spans or self.events)


class WorkerTelemetry:
    """Everything a worker process records locally, plus delta cutting.

    Hands the worker a real :class:`MetricsRegistry`, a real
    :class:`Tracer`, and an :class:`EventLogger` that buffers records
    in memory (no file: the supervisor owns the log).  One
    :meth:`cut_delta` per completed task keeps shipments small and
    aligned with the exactly-once result channel; the supervisor hands
    each delta to :meth:`FleetView.apply`.

    ``recorder`` optionally tees every record into a worker-local
    :class:`~repro.obs.events.FlightRecorder` as well, so a worker that
    dies at a crash point can dump its own black box on the way down —
    including the records a cut would only have shipped later.
    """

    def __init__(self, worker_id: int, recorder=None) -> None:
        self.worker_id = worker_id
        self.registry = MetricsRegistry()
        self.tracer = Tracer()
        self.recorder = recorder
        self._buffer: list[dict] = []
        self.events = EventLogger(
            ring=self._buffer,
            tracer=self.tracer,
            worker_id=worker_id,
        )
        if recorder is not None:
            self.events = self.events.bind(ring=recorder)
        self._last_state: list[dict] = []
        self._seq = 0

    def cut_delta(self) -> TelemetryDelta:
        """Package everything recorded since the last cut.

        Finished span trees are *drained* from the worker tracer, not
        copied: once a tree ships with a result it lives supervisor-
        side, and draining keeps a long-lived worker (an always-on
        shard cuts a delta per RPC, forever) from shipping it twice.
        """
        state = self.registry.state()
        metrics = diff_states(state, self._last_state)
        self._last_state = state
        spans = [s.to_dict() for s in self.tracer.drain_roots()]
        events = list(self._buffer)
        self._buffer.clear()
        self._seq += 1
        return TelemetryDelta(
            worker_id=self.worker_id,
            seq=self._seq,
            pid=os.getpid(),
            metrics=metrics,
            spans=spans,
            events=events,
        )


def aggregate_registries(registries) -> MetricsRegistry:
    """Combine registries into a fresh fleet-level registry.

    Counters and histograms add exactly; gauges add (fleet level = sum
    of member levels); EWMA meters combine count-weighted, which is the
    only well-defined merge for independently smoothed series (exact
    for the count, approximate for the levels — documented, not
    hidden).
    """
    out = MetricsRegistry()
    meter_acc: dict[tuple, dict] = {}
    for registry in registries:
        for entry in registry.state():
            kind = entry["kind"]
            if kind in ("counter", "histogram"):
                out.merge([entry])
            elif kind == "gauge":
                out.gauge(entry["name"], **entry["labels"]).inc(entry["value"])
            elif kind == "meter":
                acc = meter_acc.setdefault(
                    _state_key(entry),
                    {"entry": entry, "short": 0.0, "long": 0.0,
                     "count": 0, "last": 0.0},
                )
                count = entry["count"]
                acc["short"] += entry["short"] * count
                acc["long"] += entry["long"] * count
                acc["count"] += count
                if count:
                    acc["last"] = entry["last"]
    for acc in meter_acc.values():
        entry, count = acc["entry"], acc["count"]
        meter = out.meter(
            entry["name"],
            alpha_short=entry["alpha_short"],
            alpha_long=entry["alpha_long"],
            **entry["labels"],
        )
        with meter._lock:
            meter._short = acc["short"] / count if count else 0.0
            meter._long = acc["long"] / count if count else 0.0
            meter._count = count
            meter._last = acc["last"]
    return out


class FleetView:
    """Supervisor-side live view and the one intake for worker deltas.

    :meth:`apply` takes all of a delta's work (sequence-guarded per
    worker incarnation); :meth:`aggregate` combines every worker
    registry — plus any extra registries, e.g. the supervisor's own —
    into one fleet registry on demand.  Both hold the view's lock, so
    deltas may arrive on any thread.
    """

    def __init__(self) -> None:
        self._workers: dict[int, MetricsRegistry] = {}
        self._applied: dict[tuple[int, int], int] = {}
        self._lock = threading.Lock()
        self.n_deltas = 0
        self.n_replayed = 0

    def apply(
        self,
        delta: TelemetryDelta,
        tracer=NULL_TRACER,
        events=NULL_EVENT_LOG,
        flight=None,
        parent=None,
    ) -> bool:
        """Take one delta; returns False for an already-applied seq.

        Merges the metrics into the worker's registry, grafts the span
        trees into ``tracer`` under ``parent`` (as roots when ``None``),
        forwards the events to ``events``, and, given a ``flight``
        recorder, copies the events plus one ``{worker_id, seq, pid,
        metrics}`` sample into it.
        """
        incarnation = (delta.worker_id, delta.pid)
        with self._lock:
            if delta.seq <= self._applied.get(incarnation, 0):
                self.n_replayed += 1
                return False
            self._applied[incarnation] = delta.seq
            registry = self._workers.get(delta.worker_id)
            if registry is None:
                registry = self._workers[delta.worker_id] = MetricsRegistry()
            registry.merge(delta.metrics)
            self.n_deltas += 1
        for span_data in delta.spans:
            tracer.graft(span_data, parent=parent)
        for record in delta.events:
            events.emit(record)
        if flight is not None:
            for record in delta.events:
                flight.append(record)
            if delta.metrics:
                flight.sample({
                    "worker_id": delta.worker_id,
                    "seq": delta.seq,
                    "pid": delta.pid,
                    "metrics": delta.metrics,
                })
        return True

    def worker_ids(self) -> list[int]:
        return sorted(self._workers)

    def worker(self, worker_id: int) -> MetricsRegistry:
        """That worker's accumulated registry (KeyError if never heard)."""
        return self._workers[worker_id]

    def aggregate(self, *extra_registries) -> MetricsRegistry:
        """Fleet-level registry: every worker plus ``extra_registries``."""
        with self._lock:
            members = [self._workers[w] for w in sorted(self._workers)]
            return aggregate_registries([*members, *extra_registries])

    def snapshot(self) -> dict:
        """JSON-ready per-worker and aggregate metric views."""
        return {
            "n_deltas": self.n_deltas,
            "workers": {
                str(wid): self._workers[wid].snapshot()
                for wid in self.worker_ids()
            },
            "aggregate": self.aggregate().snapshot(),
        }
