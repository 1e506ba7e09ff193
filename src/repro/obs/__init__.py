"""Observability: metrics, tracing, events, and fleet telemetry.

``registry``
    :class:`MetricsRegistry` — thread-safe counters, gauges,
    fixed-bucket histograms, and EWMA rate meters (paper gain
    conventions), plus plain-data ``state()``/``merge()`` and
    :func:`diff_states` for cross-process transfer.
    :data:`NULL_REGISTRY` is the allocation-free default every hot path
    binds when observability is off.
``tracing``
    :class:`Tracer` — nested wall-time span trees per pipeline stage
    (``with tracer.trace("classify", block=...)``), with
    :class:`TraceContext` carriers for cross-process parenting and
    detached ``begin``/``end`` spans for async dispatch windows;
    :data:`NULL_TRACER` is the no-op default.  Spans carry trees and
    ids; stage timing numbers come from the registry's histograms.
``events``
    :class:`EventLogger` — leveled JSON-lines structured logging with
    bound correlation fields and automatic trace stamping;
    :class:`FlightRecorder` — the bounded black box dumped on crashes;
    :data:`NULL_EVENT_LOG` is the no-op default.
``distributed``
    :class:`WorkerTelemetry` / :class:`TelemetryDelta` /
    :class:`FleetView` — worker-side delta cutting and the
    supervisor-side intake (``FleetView.apply``: metrics, spans, events,
    flight samples) behind the live fleet registry, exactly-once over
    the result channel.
``alerts``
    :class:`AlertRule` / :class:`AlertEngine` — declarative threshold
    and EWMA-drift rules over any registry, emitting typed alert events
    into the same log; :func:`default_pool_rules` for the supervised
    pool.
``history``
    :class:`HistoryConfig` / :class:`MetricsHistory` — the bounded
    time-series store behind the service: fixed-capacity raw rings
    with 1-min/15-min min/max/mean/last rollups, windowed queries
    (``range``/``rate``/``quantile_over_time``/``window_aggregate``),
    and bit-identical JSONL save/load across drain/restart.
``incidents``
    :class:`IncidentConfig` / :class:`IncidentRecorder` — alert-fired
    forensic capture: an atomic ``incidents/<ts>-<rule>/`` bundle of
    history windows, event-ring tail, flight-recorder snapshots,
    metric values, trace ids, and (optionally) a short CPU profile,
    deduplicated per firing episode.
``export``
    :func:`prometheus_text`, :func:`json_snapshot` /
    :func:`write_json_snapshot`, :class:`RunManifest` — the per-run
    record of seeds, fault plans, quality gates, stage timings (from
    the ``*_seconds`` histograms), and final metrics — and
    :func:`sparkline_svg`, the server-rendered dashboard primitive.
``profiler``
    :class:`SamplingProfiler` / :func:`profile_for` — a thread-based
    wall-clock stack sampler emitting flamegraph-ready collapsed
    stacks, cheap enough (<5% gate) to leave reachable in production
    (``GET /debug/profile`` on the service API).
``instrument``
    :func:`install_metrics` / :func:`uninstall_metrics` — process-wide
    wiring of the module-level instruments in ``repro.core.classify``,
    ``repro.core.timeseries``, and ``repro.datasets.io``.

The contract instrumentation must honour everywhere: metrics, spans,
and events *observe* the pipeline, they never influence it — an
instrumented run is bit-identical to an uninstrumented one
(``tests/test_obs_parity.py``, ``tests/test_pool_telemetry.py``), and
the null defaults keep uninstrumented hot paths free of locks and
allocations (``benchmarks/test_abl_obs_overhead.py``).
"""

from repro.obs.alerts import (
    AlertEngine,
    AlertEvent,
    AlertRule,
    default_pool_rules,
    default_service_rules,
)
from repro.obs.distributed import (
    FleetView,
    TelemetryDelta,
    WorkerTelemetry,
    aggregate_registries,
)
from repro.obs.events import (
    EventLogger,
    FlightRecorder,
    LEVELS,
    NULL_EVENT_LOG,
    NullEventLogger,
    read_event_log,
)
from repro.obs.export import (
    RunManifest,
    json_snapshot,
    prometheus_text,
    sparkline_svg,
    write_json_snapshot,
)
from repro.obs.history import HistoryConfig, MetricsHistory
from repro.obs.incidents import IncidentConfig, IncidentRecorder
from repro.obs.instrument import install_metrics, uninstall_metrics
from repro.obs.profiler import SamplingProfiler, profile_for
from repro.obs.registry import (
    Counter,
    EwmaMeter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
    diff_states,
    escape_label_value,
    histogram_quantile,
    quantile_from_counts,
)
from repro.obs.tracing import (
    NULL_TRACER,
    NullTracer,
    Span,
    TraceContext,
    Tracer,
    format_traceparent,
    new_span_id,
    new_trace_id,
    parse_traceparent,
)

__all__ = [
    "AlertEngine",
    "AlertEvent",
    "AlertRule",
    "Counter",
    "EventLogger",
    "EwmaMeter",
    "FleetView",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "HistoryConfig",
    "IncidentConfig",
    "IncidentRecorder",
    "LEVELS",
    "MetricsHistory",
    "MetricsRegistry",
    "NULL_EVENT_LOG",
    "NULL_REGISTRY",
    "NULL_TRACER",
    "NullEventLogger",
    "NullRegistry",
    "NullTracer",
    "RunManifest",
    "SamplingProfiler",
    "Span",
    "TelemetryDelta",
    "TraceContext",
    "Tracer",
    "WorkerTelemetry",
    "aggregate_registries",
    "default_pool_rules",
    "default_service_rules",
    "diff_states",
    "escape_label_value",
    "format_traceparent",
    "histogram_quantile",
    "install_metrics",
    "json_snapshot",
    "new_span_id",
    "new_trace_id",
    "parse_traceparent",
    "profile_for",
    "prometheus_text",
    "quantile_from_counts",
    "read_event_log",
    "sparkline_svg",
    "uninstall_metrics",
    "write_json_snapshot",
]
