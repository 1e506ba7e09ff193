"""Tests for repro.obs.tracing: span nesting and per-stage aggregates."""

import threading

import pytest

from repro.obs.export import RunManifest
from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import NULL_TRACER, NullTracer, Span, Tracer


class TestSpanTree:
    def test_root_span_recorded(self):
        tracer = Tracer()
        with tracer.trace("load", path="x") as span:
            pass
        assert tracer.roots == [span]
        assert span.name == "load"
        assert span.attrs == {"path": "x"}
        assert span.duration_s >= 0.0
        assert span.children == []

    def test_nesting_builds_tree(self):
        tracer = Tracer()
        with tracer.trace("outer"):
            with tracer.trace("inner"):
                with tracer.trace("leaf"):
                    pass
            with tracer.trace("inner2"):
                pass
        (root,) = tracer.roots
        assert [c.name for c in root.children] == ["inner", "inner2"]
        assert [c.name for c in root.children[0].children] == ["leaf"]

    def test_children_time_bounded_by_parent(self):
        tracer = Tracer()
        with tracer.trace("outer"):
            with tracer.trace("inner"):
                pass
        (root,) = tracer.roots
        inner = root.children[0]
        assert inner.duration_s <= root.duration_s
        assert root.self_s == pytest.approx(
            root.duration_s - inner.duration_s
        )

    def test_walk_depth_first(self):
        tracer = Tracer()
        with tracer.trace("a"):
            with tracer.trace("b"):
                with tracer.trace("c"):
                    pass
            with tracer.trace("d"):
                pass
        (root,) = tracer.roots
        assert [s.name for s in root.walk()] == ["a", "b", "c", "d"]

    def test_to_dict_roundtrips_structure(self):
        tracer = Tracer()
        with tracer.trace("a", k=1):
            with tracer.trace("b"):
                pass
        d = tracer.roots[0].to_dict()
        assert d["name"] == "a"
        assert d["attrs"] == {"k": 1}
        assert d["children"][0]["name"] == "b"

    def test_exception_still_closes_span(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.trace("boom"):
                raise RuntimeError("x")
        assert [s.name for s in tracer.roots] == ["boom"]


class TestStageTimings:
    """Stage timings are read from ``*_seconds`` histograms, not spans."""

    @staticmethod
    def timings(registry):
        return RunManifest.capture(kind="x", registry=registry).stage_timings

    def test_aggregates(self):
        reg = MetricsRegistry()
        for stage, value in (("b", 0.25), ("a", 0.5), ("a", 0.5), ("a", 2.0)):
            reg.histogram(
                "stage_seconds", buckets=(0.5, 1.0), stage=stage
            ).observe(value)
        timings = self.timings(reg)
        a = timings['stage_seconds{stage="a"}']
        assert a["count"] == 3
        assert a["total_s"] == 3.0
        assert a["mean_s"] == 1.0
        # Rank 2.97 of 3 lands in +Inf: clamped to the top finite bound.
        assert a["p99_s"] == 1.0
        b = timings['stage_seconds{stage="b"}']
        assert (b["count"], b["total_s"], b["mean_s"]) == (1, 0.25, 0.25)
        assert b["p99_s"] == pytest.approx(0.495)
        assert "max_s" not in a

    def test_sorted_by_name(self):
        reg = MetricsRegistry()
        reg.histogram("stage_seconds", buckets=(1.0,), stage="b").observe(0.5)
        reg.histogram("stage_seconds", buckets=(1.0,), stage="a").observe(0.5)
        reg.histogram("close_seconds", buckets=(1.0,)).observe(0.5)
        reg.histogram("idle_seconds", buckets=(1.0,))  # never observed
        reg.histogram("batch_size", buckets=(10.0,)).observe(3.0)
        reg.counter("uptime_seconds").inc(5)
        assert list(self.timings(reg)) == [
            "close_seconds",
            'stage_seconds{stage="a"}',
            'stage_seconds{stage="b"}',
        ]

    def test_nested_spans_counted_per_stage(self):
        reg = MetricsRegistry()
        tracer = Tracer()

        def stage(name):
            return reg.histogram("stage_seconds", buckets=(1.0,), stage=name)

        with tracer.trace("outer") as outer:
            for _ in range(2):
                with tracer.trace("inner") as inner:
                    pass
                stage("inner").observe(inner.duration_s)
        stage("outer").observe(outer.duration_s)
        assert [c.name for c in tracer.roots[0].children] == ["inner"] * 2
        timings = self.timings(reg)
        assert timings['stage_seconds{stage="outer"}']["count"] == 1
        assert timings['stage_seconds{stage="inner"}']["count"] == 2
        assert (timings['stage_seconds{stage="inner"}']["total_s"]
                <= timings['stage_seconds{stage="outer"}']["total_s"])


class TestBounds:
    def test_max_roots_drops_overflow(self):
        tracer = Tracer(max_roots=2)
        for i in range(5):
            with tracer.trace(f"s{i}"):
                pass
        # The newest roots are kept; each eviction of an older one counts.
        assert [s.name for s in tracer.roots] == ["s3", "s4"]
        assert tracer.n_dropped_roots == 3

    def test_bad_max_roots_rejected(self):
        with pytest.raises(ValueError, match="max_roots"):
            Tracer(max_roots=0)


class TestThreadIsolation:
    def test_threads_build_separate_trees(self):
        tracer = Tracer()
        barrier = threading.Barrier(2)

        def worker(name):
            with tracer.trace(name):
                barrier.wait()  # both spans open simultaneously
                with tracer.trace(f"{name}.child"):
                    pass

        threads = [
            threading.Thread(target=worker, args=(f"t{i}",)) for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(s.name for s in tracer.roots) == ["t0", "t1"]
        for root in tracer.roots:
            assert [c.name for c in root.children] == [f"{root.name}.child"]


class TestNullTracer:
    def test_shared_noop_context(self):
        tracer = NullTracer()
        assert not tracer.enabled
        ctx_a = tracer.trace("a", k=1)
        ctx_b = tracer.trace("b")
        assert ctx_a is ctx_b
        with ctx_a as span:
            assert span is None
        assert tracer.roots == []

    def test_module_singleton(self):
        assert isinstance(NULL_TRACER, NullTracer)


def test_span_defaults():
    span = Span(name="x", attrs={})
    assert span.duration_s == 0.0
    assert span.self_s == 0.0
    assert list(span.walk()) == [span]


class TestTraceparent:
    def test_round_trip(self):
        from repro.obs.tracing import (
            TraceContext,
            format_traceparent,
            parse_traceparent,
        )
        ctx = TraceContext(trace_id="ab" * 16, span_id="cd" * 8)
        header = format_traceparent(ctx)
        assert header == f"00-{'ab' * 16}-{'cd' * 8}-01"
        parsed = parse_traceparent(header)
        assert parsed == ctx

    def test_unsampled_flag(self):
        from repro.obs.tracing import TraceContext, format_traceparent
        ctx = TraceContext(trace_id="ab" * 16, span_id="cd" * 8)
        assert format_traceparent(ctx, sampled=False).endswith("-00")

    def test_minted_ids_are_wire_shaped(self):
        from repro.obs.tracing import new_span_id, new_trace_id
        trace_id, span_id = new_trace_id(), new_span_id()
        assert len(trace_id) == 32 and len(span_id) == 16
        int(trace_id, 16) and int(span_id, 16)  # hex-parseable
        assert new_trace_id() != trace_id  # random, not counters

    @pytest.mark.parametrize(
        "header",
        [
            None,
            "",
            "not-a-traceparent",
            "00-short-span-01",
            f"00-{'g' * 32}-{'a' * 16}-01",  # non-hex trace id
            f"00-{'0' * 32}-{'a' * 16}-01",  # all-zero trace id
            f"00-{'a' * 32}-{'0' * 16}-01",  # all-zero span id
            f"ff-{'a' * 32}-{'b' * 16}-01",  # forbidden version
            f"00-{'a' * 32}-{'b' * 16}-01-extra",  # v00 with extras
            f"0-{'a' * 32}-{'b' * 16}-01",  # short version
            f"00-{'a' * 32}-{'b' * 16}-1",  # short flags
        ],
    )
    def test_malformed_headers_rejected(self, header):
        from repro.obs.tracing import parse_traceparent
        assert parse_traceparent(header) is None

    def test_future_version_with_extra_fields_accepted(self):
        from repro.obs.tracing import parse_traceparent
        header = f"01-{'a' * 32}-{'b' * 16}-01-future-stuff"
        ctx = parse_traceparent(header)
        assert ctx is not None and ctx.trace_id == "a" * 32

    def test_internal_ids_normalized_on_the_wire(self):
        # Internal span ids are pid-prefixed ("1a2b-3") and would be
        # rejected by other parsers verbatim; format_traceparent must
        # always emit a parseable header.
        from repro.obs.tracing import (
            TraceContext,
            format_traceparent,
            parse_traceparent,
        )
        ctx = TraceContext(trace_id="1a2b-3", span_id="ZZ")
        header = format_traceparent(ctx)
        assert parse_traceparent(header) is not None


class TestExplicitIds:
    def test_begin_honours_wire_ids(self):
        from repro.obs.tracing import new_span_id, new_trace_id
        tracer = Tracer()
        trace_id, span_id = new_trace_id(), new_span_id()
        span = tracer.begin("http.request", trace_id=trace_id,
                            span_id=span_id, route="/x")
        tracer.end(span)
        assert span.trace_id == trace_id
        assert span.span_id == span_id
        assert tracer.resolve(span_id) is span

    def test_begin_explicit_trace_id_overrides_parent_inheritance(self):
        from repro.obs.tracing import TraceContext
        tracer = Tracer()
        parent = TraceContext(trace_id="a" * 32, span_id="b" * 16)
        span = tracer.begin("s", parent_context=parent, trace_id="c" * 32)
        assert span.trace_id == "c" * 32
        assert span.parent_span_id == "b" * 16

    def test_trace_spans_gathers_across_roots(self):
        tracer = Tracer()
        a = tracer.begin("a", trace_id="t1" * 16)
        tracer.end(a)
        b = tracer.begin("b", trace_id="t1" * 16)
        tracer.end(b)
        other = tracer.begin("c", trace_id="t2" * 16)
        tracer.end(other)
        names = sorted(s.name for s in tracer.trace_spans("t1" * 16))
        assert names == ["a", "b"]

    def test_drain_roots_empties_and_preserves(self):
        tracer = Tracer(max_roots=2)
        for i in range(4):
            with tracer.trace(f"s{i}"):
                pass
        drained = tracer.drain_roots()
        assert [s.name for s in drained] == ["s2", "s3"]
        assert tracer.roots == []
        # The budget is free again: new roots are kept, not dropped.
        with tracer.trace("s4"):
            pass
        assert [s.name for s in tracer.roots] == ["s4"]

    def test_null_tracer_new_surface(self):
        assert NULL_TRACER.trace_spans("x") == []
        assert NULL_TRACER.drain_roots() == []
        assert NULL_TRACER.begin("s", trace_id="a", span_id="b") is None


class TestTraceparentProperties:
    """Property-based (hypothesis): the wire format is total.

    ``format_traceparent`` must never raise and must always emit a
    grammar-conformant header, whatever garbage lives in the context;
    for well-formed ids the format/parse pair is an exact identity.
    """

    def test_parse_format_identity_on_valid_ids(self):
        import re

        from hypothesis import given, settings
        from hypothesis import strategies as st

        from repro.obs.tracing import (
            TraceContext,
            format_traceparent,
            parse_traceparent,
        )

        hex_id = st.from_regex(re.compile(r"[0-9a-f]+"), fullmatch=True)
        valid_trace = hex_id.map(lambda s: s[-32:].rjust(32, "0")).filter(
            lambda s: s != "0" * 32
        )
        valid_span = hex_id.map(lambda s: s[-16:].rjust(16, "0")).filter(
            lambda s: s != "0" * 16
        )

        @given(trace_id=valid_trace, span_id=valid_span,
               sampled=st.booleans())
        @settings(max_examples=200, deadline=None)
        def check(trace_id, span_id, sampled):
            ctx = TraceContext(trace_id=trace_id, span_id=span_id)
            header = format_traceparent(ctx, sampled=sampled)
            assert parse_traceparent(header) == ctx

        check()

    def test_format_is_total_and_grammar_conformant(self):
        import re

        from hypothesis import given, settings
        from hypothesis import strategies as st

        from repro.obs.tracing import (
            TraceContext,
            format_traceparent,
            parse_traceparent,
        )

        wire = re.compile(r"^00-[0-9a-f]{32}-[0-9a-f]{16}-0[01]$")

        @given(trace_id=st.text(max_size=64), span_id=st.text(max_size=64))
        @settings(max_examples=300, deadline=None)
        def check(trace_id, span_id):
            ctx = TraceContext(trace_id=trace_id, span_id=span_id)
            header = format_traceparent(ctx)  # must never raise
            assert wire.match(header)
            parsed = parse_traceparent(header)
            # The only legal rejection of a normalized header is an
            # all-zero id (the spec forbids it); anything else parses.
            _, norm_trace, norm_span, _ = header.split("-")
            if norm_trace != "0" * 32 and norm_span != "0" * 16:
                assert parsed == TraceContext(
                    trace_id=norm_trace, span_id=norm_span
                )
            else:
                assert parsed is None

        check()
