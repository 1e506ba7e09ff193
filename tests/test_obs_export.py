"""Tests for repro.obs.export: Prometheus text, JSON snapshots, manifests."""

import json
import re

import pytest

from repro.obs.export import (
    RunManifest,
    json_snapshot,
    prometheus_text,
    write_json_snapshot,
)
from repro.obs.registry import (
    MetricsRegistry,
    NULL_REGISTRY,
    escape_label_value,
)


def populated_registry():
    reg = MetricsRegistry()
    reg.counter("events_total", kind="close").inc(3)
    reg.counter("events_total", kind="late").inc(1)
    reg.gauge("depth").set(2.5)
    h = reg.histogram("latency_seconds", buckets=(0.1, 1.0))
    # Dyadic values keep the sum exactly representable (stable repr).
    h.observe(0.0625)
    h.observe(0.5)
    h.observe(5.0)
    m = reg.meter("ingest_rate")
    m.observe(10.0)
    return reg


class TestPrometheusText:
    def test_counters_and_gauges(self):
        text = prometheus_text(populated_registry())
        assert "# TYPE events_total counter" in text
        assert 'events_total{kind="close"} 3' in text
        assert 'events_total{kind="late"} 1' in text
        assert "# TYPE depth gauge" in text
        assert "depth 2.5" in text

    def test_histogram_exposition(self):
        text = prometheus_text(populated_registry())
        assert "# TYPE latency_seconds histogram" in text
        assert 'latency_seconds_bucket{le="0.1"} 1' in text
        assert 'latency_seconds_bucket{le="1"} 2' in text
        assert 'latency_seconds_bucket{le="+Inf"} 3' in text
        assert "latency_seconds_sum 5.5625" in text
        assert "latency_seconds_count 3" in text

    def test_meter_decomposes_into_gauges(self):
        text = prometheus_text(populated_registry())
        assert "# TYPE ingest_rate_rate_short gauge" in text
        assert "ingest_rate_rate_short 10" in text
        assert "ingest_rate_rate_long 10" in text
        assert "# TYPE ingest_rate_updates_total counter" in text
        assert "ingest_rate_updates_total 1" in text

    def test_type_line_emitted_once_per_name(self):
        text = prometheus_text(populated_registry())
        assert text.count("# TYPE events_total counter") == 1

    def test_empty_registry(self):
        assert prometheus_text(MetricsRegistry()) == ""
        assert prometheus_text(NULL_REGISTRY) == ""

    def test_ends_with_newline(self):
        assert prometheus_text(populated_registry()).endswith("\n")


class TestJsonSnapshot:
    def test_metrics_only(self):
        snap = json_snapshot(populated_registry())
        assert set(snap) == {"metrics"}
        assert snap["metrics"]["gauges"]["depth"] == 2.5

    def test_write_roundtrip(self, tmp_path):
        path = tmp_path / "nested" / "snap.json"
        out = write_json_snapshot(path, populated_registry())
        assert out == path
        data = json.loads(path.read_text())
        assert data["metrics"]["counters"]['events_total{kind="close"}'] == 3

    def test_json_serializable(self):
        # Histograms include an +Inf edge; the snapshot must still be
        # valid JSON (edges are stringified keys).
        json.dumps(json_snapshot(populated_registry()))


class TestRunManifest:
    def test_capture(self):
        reg = populated_registry()
        manifest = RunManifest.capture(
            kind="batch",
            registry=reg,
            seed=42,
            n_blocks=7,
            fault_plan="ProbeLoss(5.0%)",
            quality_gates={"max_gap_fraction": 0.5},
            dataset="synthetic",
        )
        assert manifest.kind == "batch"
        assert manifest.seed == 42
        assert manifest.n_blocks == 7
        assert manifest.fault_plan == "ProbeLoss(5.0%)"
        assert manifest.quality_gates == {"max_gap_fraction": 0.5}
        latency = manifest.stage_timings["latency_seconds"]
        assert latency["count"] == 3
        assert latency["total_s"] == 5.5625
        assert manifest.metrics["gauges"]["depth"] == 2.5
        assert manifest.extra == {"dataset": "synthetic"}
        assert manifest.created_unix > 0

    def test_capture_without_registry_or_tracer(self):
        manifest = RunManifest.capture(kind="stream")
        assert manifest.metrics == {}
        assert manifest.stage_timings == {}

    def test_save_load_roundtrip(self, tmp_path):
        manifest = RunManifest.capture(
            kind="batch",
            registry=populated_registry(),
            seed=1,
            n_blocks=3,
            fault_plan="clean (no faults)",
        )
        path = tmp_path / "run" / "manifest.json"
        manifest.save(path)
        loaded = RunManifest.load(path)
        assert loaded == manifest

    def test_to_json_is_deterministic(self):
        a = RunManifest(kind="x", seed=1, created_unix=5.0)
        b = RunManifest(kind="x", seed=1, created_unix=5.0)
        assert a.to_json() == b.to_json()
        assert json.loads(a.to_json())["kind"] == "x"


def test_format_values():
    reg = MetricsRegistry()
    reg.gauge("g_int").set(3.0)
    reg.gauge("g_float").set(3.25)
    text = prometheus_text(reg)
    assert "g_int 3\n" in text  # integral floats render as ints
    assert "g_float 3.25" in text


def test_histogram_labels_merge_with_le():
    reg = MetricsRegistry()
    reg.histogram("lat", buckets=(1.0,), path="x").observe(0.5)
    text = prometheus_text(reg)
    assert 'lat_bucket{le="1",path="x"} 1' in text
    assert 'lat_sum{path="x"}' in text


def test_negative_infinity_format():
    reg = MetricsRegistry()
    reg.gauge("g").set(float("-inf"))
    assert "g -Inf" in prometheus_text(reg)


# One exposition line: name, optional {label="value",...}, space, value.
# Label values may contain anything except raw ", \, or newline — those
# must appear escaped (\" \\ \n), which is what the value charclass and
# escape alternation below encode.
_SAMPLE_LINE = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*'
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\["\\n])*"'
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\["\\n])*")*\})?'
    r' -?(\d+(\.\d+)?([eE][+-]?\d+)?|Inf|NaN)$'
)


class TestLabelEscaping:
    def test_escape_label_value(self):
        assert escape_label_value('a\\b"c\nd') == 'a\\\\b\\"c\\nd'
        assert escape_label_value("plain") == "plain"
        assert escape_label_value(7) == "7"  # coerced like label storage

    def test_nasty_values_render_one_parseable_line_each(self):
        reg = MetricsRegistry()
        nasty = {
            "backslash": "C:\\temp\\probe",
            "quote": 'block "A"',
            "newline": "line one\nline two",
            "all-three": '\\"\n',
        }
        for name, value in nasty.items():
            reg.counter("nasty_total", kind=name, path=value).inc()
        text = prometheus_text(reg)
        sample_lines = [
            line for line in text.splitlines()
            if line and not line.startswith("#")
        ]
        assert len(sample_lines) == len(nasty)  # no line got split
        for line in sample_lines:
            assert _SAMPLE_LINE.match(line), line

    def test_grammar_lint_full_exposition(self):
        reg = populated_registry()
        reg.counter("escaped_total", path='a\\b"c\nd').inc(2)
        for line in prometheus_text(reg).splitlines():
            if not line:
                continue
            if line.startswith("#"):
                assert re.match(
                    r"^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* "
                    r"(counter|gauge|histogram)$",
                    line,
                ), line
            else:
                assert _SAMPLE_LINE.match(line), line

    def test_escaping_round_trips(self):
        # Unescaping the rendered value must recover the original, i.e.
        # escaping is injective — two different raw values can never
        # collide into the same exposition bytes.
        raw = 'a\\b"c\nd\\\\e'
        rendered = escape_label_value(raw)
        assert (
            rendered
            .replace("\\\\", "\x00")
            .replace('\\"', '"')
            .replace("\\n", "\n")
            .replace("\x00", "\\")
        ) == raw


def test_load_rejects_unknown_fields(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"kind": "x", "bogus": 1}))
    with pytest.raises(TypeError):
        RunManifest.load(path)
