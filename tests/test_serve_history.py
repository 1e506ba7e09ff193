"""Service-level telemetry history + incident capture (ISSUE 10).

The acceptance properties from the issue:

* a shard killed during ingest produces **exactly one** deduplicated
  incident bundle per fired rule, whose manifest trace ids and event
  records resolve against the service event log;
* drained history survives a restart **bit-identically** (same
  config, load-then-save reproduces the drained file byte for byte);
* ``GET /metrics/history`` and ``GET /dashboard`` serve from the live
  store, and both 404 cleanly when history is disabled.
"""

import json
import os
import shutil
import time
from pathlib import Path

import pytest

from repro.obs import MetricsRegistry
from repro.obs.alerts import AlertRule
from repro.obs.events import EventLogger, read_event_log
from repro.obs.history import HistoryConfig, MetricsHistory
from repro.obs.incidents import IncidentConfig
from repro.obs.tracing import Tracer
from repro.serve import ServiceRunner

from tests.test_serve_api import make_harness
from tests.test_serve_service import WINDOW, interleaved, service_config

RESPAWN_RULE = AlertRule(
    name="respawn-seen",
    metric="service_shard_respawns_total",
    op=">",
    threshold=0,
    level="critical",
    description="a shard respawned",
)


def bundles_in(root):
    if not root.exists():
        return []
    return sorted(p for p in root.iterdir() if p.is_dir()
                  and not p.name.startswith("."))


@pytest.mark.watchdog(180)
def test_kill_during_ingest_captures_one_bundle_per_rule(tmp_path):
    incident_dir = tmp_path / "incidents"
    event_log = tmp_path / "events.jsonl"
    config = service_config(
        tmp_path,
        history=HistoryConfig(sample_min_interval_s=0.0),
        incidents=IncidentConfig(dir=incident_dir, min_interval_s=0.0),
    )
    runner = ServiceRunner(
        config,
        metrics=MetricsRegistry(),
        events=EventLogger(sink=str(event_log)),
        alert_rules=[RESPAWN_RULE],
        tracer=Tracer(),
    )
    try:
        runner.start()
        runner.ingest(interleaved(WINDOW))
        victim = runner.owner(0)
        runner.kill_shard(victim)
        assert runner.wait_healthy(timeout_s=60.0), "shard never rejoined"
        runner.ingest(interleaved(6, start_round=WINDOW))
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline and not bundles_in(incident_dir):
            time.sleep(0.05)
        # The rule stays breached (the respawn counter never goes
        # back down) — give the supervision loop a few more cycles to
        # prove the dedup latch holds, then require exactly one.
        time.sleep(0.5)
        bundles = bundles_in(incident_dir)
        assert len(bundles) == 1, [b.name for b in bundles]
        [bundle] = bundles
        assert bundle.name.endswith("-respawn-seen")

        manifest = json.loads((bundle / "manifest.json").read_text())
        assert manifest["rule"] == "respawn-seen"
        assert manifest["level"] == "critical"
        assert manifest["value"] >= 1.0
        assert manifest["n_events"] > 0

        # Every record and trace id in the bundle resolves against
        # the service event log — the bundle is a correlated excerpt,
        # not a side channel.
        log_records = read_event_log(event_log)
        log_pairs = {(r["ts"], r["event"]) for r in log_records}
        log_traces = {r["trace_id"] for r in log_records
                      if r.get("trace_id")}
        bundle_records = [
            json.loads(line) for line in
            (bundle / "events.jsonl").read_text().splitlines()
        ]
        assert bundle_records
        for record in bundle_records:
            assert (record["ts"], record["event"]) in log_pairs
        assert manifest["trace_ids"]
        assert set(manifest["trace_ids"]) <= log_traces

        # The history windows in the bundle lead with the firing
        # rule's own metric and carry real points.
        windows = [
            json.loads(line) for line in
            (bundle / "history.jsonl").read_text().splitlines()
        ]
        assert windows[0]["series"].startswith(
            "service_shard_respawns_total"
        )
        assert all(w["points"] for w in windows)

        # The capture itself is in the event log too.
        assert any(r["event"] == "incident.captured" for r in log_records)

        # CI keeps the bundle as a build artifact when asked — the
        # evidence a green chaos run produced, not just failures.
        keep = os.environ.get("REPRO_KEEP_INCIDENT_DIR")
        if keep:
            shutil.copytree(bundle, Path(keep) / bundle.name,
                            dirs_exist_ok=True)
    finally:
        runner.stop(drain=False)


@pytest.mark.watchdog(120)
def test_incident_flight_samples_name_their_delta(tmp_path):
    incident_dir = tmp_path / "incidents"
    config = service_config(
        tmp_path,
        history=HistoryConfig(sample_min_interval_s=0.0),
        incidents=IncidentConfig(dir=incident_dir, min_interval_s=0.0),
    )
    rule = AlertRule(
        name="ingest-seen", metric="stream_submitted_total", op=">",
        threshold=0,
    )
    runner = ServiceRunner(
        config, metrics=MetricsRegistry(), alert_rules=[rule]
    )
    try:
        runner.start()
        runner.ingest(interleaved(WINDOW))
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline and not bundles_in(incident_dir):
            time.sleep(0.05)
        [bundle] = bundles_in(incident_dir)
        flights = sorted((bundle / "flight").glob("worker-*.json"))
        assert flights
        for path in flights:
            worker_id = int(path.stem.split("-")[1])
            samples = json.loads(path.read_text())["metric_samples"]
            assert samples
            for sample in samples:
                assert sample["worker_id"] == worker_id
                assert sample["seq"] >= 1
                assert sample["pid"] > 0
                assert sample["metrics"]
    finally:
        runner.stop(drain=False)


@pytest.mark.watchdog(180)
def test_history_survives_drain_restart_bit_identically(tmp_path):
    # A huge sample interval freezes the store between explicit
    # samples, so the restarted runner's supervision loop cannot
    # perturb what it loaded before we compare.
    history_config = HistoryConfig(sample_min_interval_s=1e9)
    config = service_config(tmp_path, history=history_config)
    runner = ServiceRunner(config, metrics=MetricsRegistry())
    runner.start()
    try:
        runner.ingest(interleaved(WINDOW))
        for i in range(5):
            runner.history.sample(
                runner.fleet_registry(), time.time() + i * 0.01, force=True
            )
    finally:
        report = runner.stop(drain=True)
    drained_path = report["history_path"]
    assert drained_path == str(config.history_path)
    drained = config.history_path.read_bytes()
    assert runner.history.n_samples >= 6  # forced samples + drain capture

    restarted = ServiceRunner(config, metrics=MetricsRegistry())
    restarted.start()
    try:
        assert restarted.history.n_samples == runner.history.n_samples
        resaved = restarted.history.save(tmp_path / "resaved.jsonl")
        assert resaved.read_bytes() == drained
    finally:
        restarted.stop(drain=False)


@pytest.mark.watchdog(180)
def test_corrupt_history_file_starts_fresh(tmp_path):
    config = service_config(tmp_path)
    config.history_path.parent.mkdir(parents=True, exist_ok=True)
    config.history_path.write_text("not json\n")
    runner = ServiceRunner(config, metrics=MetricsRegistry())
    try:
        runner.start()  # must not raise
        assert isinstance(runner.history, MetricsHistory)
        assert runner.history.n_samples == 0
    finally:
        runner.stop(drain=False)


@pytest.mark.watchdog(180)
class TestHistoryApi:
    def test_history_endpoint_serves_catalog_and_windows(self, tmp_path):
        harness = make_harness(
            tmp_path,
            history=HistoryConfig(sample_min_interval_s=0.0),
        )
        try:
            harness.runner.ingest(interleaved(WINDOW))
            deadline = time.monotonic() + 10.0
            while (time.monotonic() < deadline
                   and harness.runner.history.n_samples < 2):
                time.sleep(0.05)
            status, catalog, _ = harness.request("GET", "/metrics/history")
            assert status == 200
            names = {s["name"] for s in catalog["series"]}
            assert "service_ingest_observations_total" in names
            assert "service_shard_healthy" in names

            status, payload, _ = harness.request(
                "GET",
                "/metrics/history"
                "?series=service_ingest_observations_total"
                "&window=600&step=1",
            )
            assert status == 200
            assert payload["window"] == 600.0
            [series] = payload["series"]
            points = series["points"]
            assert points
            assert all(
                set(p) == {"t", "min", "max", "mean", "last", "count"}
                for p in points
            )

            status, _, _ = harness.request(
                "GET", "/metrics/history?window=0"
            )
            assert status == 400
        finally:
            harness.close()

    def test_dashboard_serves_sparklines(self, tmp_path):
        harness = make_harness(
            tmp_path,
            history=HistoryConfig(sample_min_interval_s=0.0),
        )
        try:
            harness.runner.ingest(interleaved(WINDOW))
            deadline = time.monotonic() + 10.0
            while (time.monotonic() < deadline
                   and harness.runner.history.n_samples < 3):
                time.sleep(0.05)
            status, body, headers = harness.request("GET", "/dashboard")
            assert status == 200
            assert "text/html" in headers["Content-Type"]
            html = body.decode() if isinstance(body, bytes) else body
            assert "<svg" in html and "<polyline" in html
            assert "Ingest rate" in html and "Shed ratio" in html
            # Shard status is never conveyed by color alone.
            assert "healthy" in html
        finally:
            harness.close()

    def test_disabled_history_404s(self, tmp_path):
        harness = make_harness(tmp_path, history=None)
        try:
            status, _, _ = harness.request("GET", "/metrics/history")
            assert status == 404
            status, _, _ = harness.request("GET", "/dashboard")
            assert status == 404
        finally:
            harness.close()

    def test_healthz_reports_replication_fields(self, tmp_path):
        harness = make_harness(tmp_path, replication=2)
        try:
            status, payload, _ = harness.request("GET", "/healthz")
            assert status == 200
            assert payload["replication"] == 2
            assert payload["replicas_syncing"] == 0
            assert payload["stale"] == 0
        finally:
            harness.close()
