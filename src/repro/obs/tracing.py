"""Lightweight span tracing for pipeline stages.

``with tracer.trace("classify", block=7):`` records the wall time of one
stage as a :class:`Span`.  Spans nest: a span opened while another is
active on the same thread becomes its child, so one batch run yields a
tree (``batch.run`` → ``batch.block`` → ...).  The span stack is
thread-local — concurrent runs interleave without mixing trees.

The tracer keeps trees, not statistics: the finished root spans, of
which it retains the newest ``max_roots``.  Stage timing has one source,
the registry's ``*_seconds`` histograms, which
:class:`repro.obs.export.RunManifest` summarises; a span's duration
lives on the span.

Spans also carry identity for *distributed* correlation: every span gets
a process-unique ``span_id`` and inherits (or mints) a ``trace_id``.  A
:class:`TraceContext` is the picklable carrier that crosses a process
boundary: the supervisor opens a dispatch span, ships its context to the
worker, and the worker opens its spans with ``parent_context=ctx`` — the
worker's roots then name the supervisor's span as their parent, and
:meth:`Tracer.graft` reattaches the serialized worker tree under the
dispatch span when the result comes home.  Detached spans
(:meth:`Tracer.begin` / :meth:`Tracer.end`) cover the supervisor's
asynchronous dispatch window, which no ``with`` block can span.

:class:`NullTracer` is the default everywhere: ``trace`` hands back a
shared reusable no-op context manager, so untraced hot paths pay one
call and no allocation.

For *request* tracing across an HTTP boundary, the module also speaks
the W3C Trace Context wire grammar: :func:`parse_traceparent` accepts
an incoming ``traceparent`` header as a :class:`TraceContext`,
:func:`format_traceparent` renders one back out, and
:func:`new_trace_id` / :func:`new_span_id` mint wire-conformant hex
identifiers for request root spans (internal child spans keep the
cheaper pid-prefixed ids — only the ids that cross the HTTP boundary
need the W3C shape).
"""

from __future__ import annotations

import itertools
import os
import threading
import time
import uuid
from dataclasses import dataclass, field

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "TraceContext",
    "Tracer",
    "format_traceparent",
    "new_span_id",
    "new_trace_id",
    "parse_traceparent",
]

_span_counter = itertools.count(1)


def _new_id() -> str:
    """A process-unique span id (pid-prefixed so forks never collide)."""
    return f"{os.getpid():x}-{next(_span_counter):x}"


def new_trace_id() -> str:
    """A random 32-hex-digit trace id (the W3C ``trace-id`` field)."""
    return uuid.uuid4().hex


def new_span_id() -> str:
    """A random 16-hex-digit span id (the W3C ``parent-id`` field)."""
    return uuid.uuid4().hex[:16]


_HEX = set("0123456789abcdef")


def _is_hex(value: str) -> bool:
    return bool(value) and all(c in _HEX for c in value)


def parse_traceparent(header: str | None) -> TraceContext | None:
    """Parse a W3C ``traceparent`` header into a :class:`TraceContext`.

    Grammar (version 00): ``00-<32 hex trace-id>-<16 hex parent-id>-
    <2 hex flags>``.  Unknown future versions are accepted as long as
    the first four fields parse (per spec); anything malformed — wrong
    lengths, non-hex digits, all-zero ids, the forbidden version
    ``ff`` — returns ``None`` so the caller mints a fresh trace
    instead of propagating garbage.
    """
    if not header:
        return None
    parts = header.strip().lower().split("-")
    if len(parts) < 4:
        return None
    version, trace_id, span_id, flags = parts[0], parts[1], parts[2], parts[3]
    if len(version) != 2 or not _is_hex(version) or version == "ff":
        return None
    if version == "00" and len(parts) != 4:
        return None
    if len(trace_id) != 32 or not _is_hex(trace_id):
        return None
    if len(span_id) != 16 or not _is_hex(span_id):
        return None
    if len(flags) != 2 or not _is_hex(flags):
        return None
    if trace_id == "0" * 32 or span_id == "0" * 16:
        return None
    return TraceContext(trace_id=trace_id, span_id=span_id)


def _wire_id(value: str, width: int) -> str:
    """Coerce an id to ``width`` lowercase hex digits for the wire.

    Request ids minted by :func:`new_trace_id`/:func:`new_span_id`
    pass through untouched; an internal pid-prefixed id (which
    contains ``-``) is defensively normalized so a caller can never
    emit a header other parsers reject.
    """
    cleaned = "".join(c for c in value.lower() if c in _HEX)
    if not cleaned:
        cleaned = "1"
    return cleaned[-width:].rjust(width, "0")


def format_traceparent(context: TraceContext, sampled: bool = True) -> str:
    """Render a :class:`TraceContext` as a W3C ``traceparent`` value."""
    return (
        f"00-{_wire_id(context.trace_id, 32)}"
        f"-{_wire_id(context.span_id, 16)}"
        f"-{'01' if sampled else '00'}"
    )


@dataclass(frozen=True)
class TraceContext:
    """The picklable identity of one live span, for cross-process parenting."""

    trace_id: str
    span_id: str

    def to_dict(self) -> dict:
        return {"trace_id": self.trace_id, "span_id": self.span_id}


@dataclass
class Span:
    """One timed stage: name, attributes, duration, children.

    ``trace_id`` groups every span of one logical operation across
    processes; ``span_id`` is unique per span; ``parent_span_id`` is set
    for children (including remote children whose parent lives in
    another process).
    """

    name: str
    attrs: dict
    start_s: float = 0.0
    duration_s: float = 0.0
    children: list = field(default_factory=list)
    trace_id: str = ""
    span_id: str = ""
    parent_span_id: str | None = None

    @property
    def self_s(self) -> float:
        """Time spent in this span minus its direct children."""
        return self.duration_s - sum(c.duration_s for c in self.children)

    @property
    def context(self) -> TraceContext:
        """This span's identity as a shippable :class:`TraceContext`."""
        return TraceContext(trace_id=self.trace_id, span_id=self.span_id)

    def walk(self):
        """Yield this span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "attrs": self.attrs,
            "duration_s": self.duration_s,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_span_id": self.parent_span_id,
            "children": [c.to_dict() for c in self.children],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        """Rebuild a span tree serialized by :meth:`to_dict`."""
        return cls(
            name=data["name"],
            attrs=dict(data.get("attrs", {})),
            duration_s=float(data.get("duration_s", 0.0)),
            trace_id=data.get("trace_id", ""),
            span_id=data.get("span_id", ""),
            parent_span_id=data.get("parent_span_id"),
            children=[cls.from_dict(c) for c in data.get("children", [])],
        )


class _SpanContext:
    """Context manager for one live span (one per trace() call)."""

    __slots__ = ("_tracer", "span", "_t0")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span
        self._t0 = 0.0

    def __enter__(self) -> Span:
        self._tracer._push(self.span)
        self._t0 = time.perf_counter()
        self.span.start_s = self._t0
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.span.duration_s = time.perf_counter() - self._t0
        self._tracer._pop(self.span)
        return False


class Tracer:
    """Collects nested wall-time span trees, keeping the newest roots.

    Once ``max_roots`` finished roots are held, each new root evicts the
    oldest and counts it in ``n_dropped_roots``: a long-lived process
    that nobody drains keeps its recent traces resolvable.
    """

    enabled = True

    def __init__(self, max_roots: int = 1000) -> None:
        if max_roots < 1:
            raise ValueError("max_roots must be positive")
        self.max_roots = max_roots
        self.roots: list[Span] = []
        self.n_dropped_roots = 0
        self._local = threading.local()
        self._lock = threading.Lock()

    def trace(
        self,
        name: str,
        parent_context: TraceContext | None = None,
        **attrs,
    ) -> _SpanContext:
        span = Span(name=name, attrs=attrs)
        if parent_context is not None:
            span.trace_id = parent_context.trace_id
            span.parent_span_id = parent_context.span_id
        return _SpanContext(self, span)

    def current_context(self) -> TraceContext | None:
        """The innermost active span's context on this thread, if any."""
        stack = getattr(self._local, "stack", None)
        if not stack:
            return None
        return stack[-1].context

    def begin(
        self,
        name: str,
        parent: Span | None = None,
        parent_context: TraceContext | None = None,
        trace_id: str | None = None,
        span_id: str | None = None,
        **attrs,
    ) -> Span:
        """Start a detached span (not on the thread-local stack).

        For operations whose start and end happen in different stack
        frames — e.g. the supervisor's dispatch window, opened when a
        task is sent and closed when its result (or corpse) comes back.
        Finish it with :meth:`end`.

        ``trace_id``/``span_id`` override the minted identifiers —
        the HTTP layer passes W3C-shaped ids here so the span named in
        a ``traceparent`` response header is the span in the tree.
        """
        span = Span(name=name, attrs=attrs)
        span.span_id = span_id if span_id else _new_id()
        if parent is not None:
            span.trace_id = parent.trace_id
            span.parent_span_id = parent.span_id
        elif parent_context is not None:
            span.trace_id = parent_context.trace_id
            span.parent_span_id = parent_context.span_id
        if trace_id:
            span.trace_id = trace_id
        if not span.trace_id:
            span.trace_id = span.span_id
        span.start_s = time.perf_counter()
        return span

    def end(self, span: Span | None, parent: Span | None = None) -> None:
        """Finish a detached span, attaching it under ``parent`` (or as
        a root).  ``None`` is accepted (and ignored) so callers can hold
        a null tracer's span without branching."""
        if span is None:
            return
        span.duration_s = time.perf_counter() - span.start_s
        self._record(span, parent)

    def graft(self, span_data, parent: Span | None = None) -> Span:
        """Attach a remote (serialized) span tree under a local parent.

        ``span_data`` is a :class:`Span` or a :meth:`Span.to_dict`
        payload shipped from another process.
        """
        span = (
            span_data
            if isinstance(span_data, Span)
            else Span.from_dict(span_data)
        )
        self._record(span, parent)
        return span

    def resolve(self, span_id: str) -> Span | None:
        """Find a finished span by id (depth-first over the root trees)."""
        with self._lock:
            roots = list(self.roots)
        for root in roots:
            for span in root.walk():
                if span.span_id == span_id:
                    return span
        return None

    def trace_spans(self, trace_id: str) -> list[Span]:
        """Every finished span belonging to one trace, across roots.

        A distributed request lands as several root trees (the local
        request span plus grafted remote trees whose true parent
        finished later); this gathers them so a caller can stitch the
        full tree back together by ``parent_span_id``.
        """
        with self._lock:
            roots = list(self.roots)
        return [
            span
            for root in roots
            for span in root.walk()
            if span.trace_id == trace_id
        ]

    def drain_roots(self) -> list[Span]:
        """Remove and return every finished root span.

        Long-lived processes (shard workers) ship their spans with
        every reply; draining hands each finished tree over exactly
        once, so no tree ships twice.
        """
        with self._lock:
            roots = self.roots
            self.roots = []
        return roots

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, span: Span) -> None:
        stack = self._stack()
        if not span.span_id:
            span.span_id = _new_id()
        if not span.trace_id:
            if stack:
                span.trace_id = stack[-1].trace_id
                span.parent_span_id = stack[-1].span_id
            else:
                span.trace_id = span.span_id
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        # Exits are LIFO by construction (context managers unwind in
        # order), but a generator-held span could exit late; search from
        # the top so the common case is O(1).
        for i in range(len(stack) - 1, -1, -1):
            if stack[i] is span:
                del stack[i]
                break
        parent = stack[-1] if stack else None
        self._record(span, parent)

    def _record(self, span: Span, parent: Span | None) -> None:
        with self._lock:
            if parent is not None:
                parent.children.append(span)
                return
            if len(self.roots) >= self.max_roots:
                del self.roots[0]
                self.n_dropped_roots += 1
            self.roots.append(span)


class _NullSpanContext:
    """Reusable, stateless no-op span context."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN_CONTEXT = _NullSpanContext()


class NullTracer:
    """Tracing off: one shared no-op context for every trace call."""

    enabled = False
    roots: list = []

    def trace(
        self, name: str, parent_context=None, **attrs
    ) -> _NullSpanContext:
        return _NULL_SPAN_CONTEXT

    def current_context(self) -> None:
        return None

    def begin(self, name: str, parent=None, parent_context=None,
              **attrs) -> None:
        return None

    def end(self, span, parent=None) -> None:
        pass

    def graft(self, span_data, parent=None) -> None:
        return None

    def resolve(self, span_id: str) -> None:
        return None

    def trace_spans(self, trace_id: str) -> list:
        return []

    def drain_roots(self) -> list:
        return []


NULL_TRACER = NullTracer()
