"""Typed events emitted by the streaming diurnal engine.

Every event names the block it concerns and the absolute round/time at
which it was produced.  Events are plain frozen dataclasses so sinks can
persist them, tests can compare them, and downstream consumers can match
on type without parsing strings.

The :class:`EventBus` is deliberately tiny: synchronous fan-out to
registered sinks, with per-type counters for cheap observability.  Sinks
live in :mod:`repro.stream.sinks`; anything with an ``emit(event)``
method qualifies.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.core.classify import DiurnalClass, DiurnalReport
    from repro.core.timeseries import QualityReport

__all__ = [
    "ClassificationTransition",
    "EventBus",
    "LateObservation",
    "ObservationShed",
    "PhaseEdge",
    "QualityDegraded",
    "QualityRestored",
    "ShedDegraded",
    "StreamEvent",
    "WindowClosed",
]


@dataclass(frozen=True)
class StreamEvent:
    """Base event: which block, at which absolute round and time."""

    block_id: int
    round_index: int
    time_s: float

    @property
    def kind(self) -> str:
        return type(self).__name__

    def payload(self) -> dict:
        """The subclass-specific fields, for generic sinks (CSV, logs)."""
        base = {f.name for f in fields(StreamEvent)}
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in base
        }


@dataclass(frozen=True)
class WindowClosed(StreamEvent):
    """A hop window closed with an exact (batch-parity) verdict.

    ``window_start_round`` is the absolute round of the window's first
    slot; ``n_rounds`` its length (shorter than the configured window only
    for a forced partial close).  ``report`` is bit-identical to running
    :func:`repro.core.classify.classify_series` on the same window.
    """

    window_start_round: int
    n_rounds: int
    report: "DiurnalReport"
    quality: "QualityReport"
    partial: bool = False


@dataclass(frozen=True)
class ClassificationTransition(StreamEvent):
    """The hysteresis-stable label changed.

    ``old_label`` is ``None`` for the first verdict a block receives.
    ``dwell`` is how many consecutive closes confirmed the new label
    before the transition fired.
    """

    old_label: "DiurnalClass | None"
    new_label: "DiurnalClass"
    report: "DiurnalReport"
    dwell: int


@dataclass(frozen=True)
class PhaseEdge(StreamEvent):
    """The block crossed its rolling daily midline: a sleep or wake edge.

    ``kind`` is ``"sleep"`` (availability fell below mean − margin) or
    ``"wake"`` (rose above mean + margin); ``value`` and ``window_mean``
    are the crossing sample and the trailing-window mean that defined the
    band.
    """

    edge: str
    value: float
    window_mean: float


@dataclass(frozen=True)
class QualityDegraded(StreamEvent):
    """A closed window failed the quality gate (insufficient data)."""

    quality: "QualityReport"
    reason: str


@dataclass(frozen=True)
class QualityRestored(StreamEvent):
    """Quality recovered: a close produced a classifiable window again."""

    quality: "QualityReport"


@dataclass(frozen=True)
class LateObservation(StreamEvent):
    """An observation arrived behind the watermark and was dropped.

    ``lag_rounds`` is how far behind the frozen frontier it landed
    (negative ``round_index`` means before the grid origin entirely).
    """

    value: float
    lag_rounds: int


@dataclass(frozen=True)
class ObservationShed(StreamEvent):
    """The overload shedder dropped this observation before ingestion.

    ``tier`` is the value class the shedder assigned (0 = mid-window
    sample of a long-stable block, 1 = near a phase edge, 2 =
    provisional/unknown block — higher tiers are only shed when the
    queue holds nothing cheaper); ``depth`` is the queue depth at the
    moment the shed episode triggered; ``seq`` is the submission
    sequence number, which makes shed sets comparable across runs.
    """

    value: float
    tier: int
    depth: int
    seq: int


@dataclass(frozen=True)
class ShedDegraded(StreamEvent):
    """A window closed whose observations were partially shed.

    Published immediately after the corresponding :class:`WindowClosed`
    so consumers can tell a verdict degraded by deliberate load-shedding
    from one degraded by upstream data loss: ``n_shed`` observations
    that would have landed in ``[window_start_round,
    window_start_round + n_rounds)`` were dropped by the overload
    shedder, and the close's quality report already accounts for the
    resulting gaps (heavily shed windows fail the quality gate and
    close as ``insufficient-data`` rather than silently wrong).
    """

    window_start_round: int
    n_rounds: int
    n_shed: int


class EventBus:
    """Synchronous fan-out of stream events to registered sinks."""

    def __init__(self, sinks=()) -> None:
        self._sinks = list(sinks)
        self.counts: dict[str, int] = {}
        self.n_published = 0

    def subscribe(self, sink) -> None:
        self._sinks.append(sink)

    def publish(self, event: StreamEvent) -> None:
        self.n_published += 1
        kind = event.kind
        self.counts[kind] = self.counts.get(kind, 0) + 1
        for sink in self._sinks:
            sink.emit(event)

    def close(self) -> None:
        for sink in self._sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()
