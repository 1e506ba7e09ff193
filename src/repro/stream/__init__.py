"""Streaming diurnal engine: live verdicts from incremental ingestion.

``engine``
    :class:`StreamEngine` — one ingest path, ``ingest_many`` (a scalar
    ``ingest`` is a batch of one): each batch is array work over every
    block it touches — late drops, one scatter, and a freeze of all
    released rounds at once — feeding a running trailing-window mean for
    sleep/wake edges, hop-window closes with batch-parity verdicts, label
    hysteresis, event emission, and an exact provisional spectrum
    computed when it is read.
``window``
    ``RoundStore`` — dense per-block ring slots with the batch path's
    duplicate/gap-fill/quality semantics; :class:`RoundWindow` is a
    one-slot store.
``events`` / ``sinks``
    Typed events, the synchronous :class:`EventBus`, and pluggable
    sinks (list, counting, callback, filter, CSV).
``journal``
    :class:`StreamJournal` — a CRC-framed write-ahead log for
    observations, with torn-tail recovery on open and idempotent
    sequence-numbered replay through ``ingest_many``
    (:func:`replay_journal`).
``overload``
    :class:`AdmissionController` — bounded ingest queue of array chunks
    (``submit`` takes one observation or a batch, ``pump`` slices chunks
    into the engine's ``ingest_many``) with watermark
    hysteresis, a backpressure signal for producers, and deterministic
    priority load-shedding under sustained overload
    (:func:`paced_replay` is the backpressure-honoring producer loop).

The correctness anchor is *batch parity*: every window-close report is
bit-identical to :func:`repro.core.classify.classify_series` over the
same window (:func:`batch_window_report` is the oracle).
"""

from repro.stream.engine import (
    ProvisionalEstimate,
    StreamConfig,
    StreamEngine,
    batch_window_report,
)
from repro.stream.events import (
    ClassificationTransition,
    EventBus,
    LateObservation,
    ObservationShed,
    PhaseEdge,
    QualityDegraded,
    QualityRestored,
    ShedDegraded,
    StreamEvent,
    WindowClosed,
)
from repro.stream.journal import (
    JournalRecord,
    RecoveryReport,
    StreamJournal,
    read_journal,
    replay_journal,
)
from repro.stream.overload import (
    AdmissionController,
    OverloadConfig,
    ShedRecord,
    paced_replay,
)
from repro.stream.sinks import (
    CallbackSink,
    CountingSink,
    CsvSink,
    EventSink,
    FilterSink,
    ListSink,
)
from repro.stream.window import RoundWindow

__all__ = [
    "AdmissionController",
    "CallbackSink",
    "ClassificationTransition",
    "CountingSink",
    "CsvSink",
    "EventBus",
    "EventSink",
    "FilterSink",
    "JournalRecord",
    "LateObservation",
    "ListSink",
    "ObservationShed",
    "OverloadConfig",
    "PhaseEdge",
    "ProvisionalEstimate",
    "QualityDegraded",
    "QualityRestored",
    "RecoveryReport",
    "RoundWindow",
    "ShedDegraded",
    "ShedRecord",
    "StreamConfig",
    "StreamEngine",
    "StreamEvent",
    "StreamJournal",
    "WindowClosed",
    "batch_window_report",
    "paced_replay",
    "read_journal",
    "replay_journal",
]
