"""Distributed telemetry for the supervised pool (acceptance tests).

The contract under test, end to end:

* fleet metrics are **exactly-once**: a chaos run with a worker kill and
  respawn yields supervisor-side aggregate counters equal to the sum of
  serial per-block expectations — the killed attempt's telemetry died
  with its unsent result;
* every supervision decision is a **correlated record** in the
  structured event log (``run_id`` on everything, ``trace_id``/
  ``span_id`` resolvable to a supervisor span);
* failures ship their own evidence: **flight recorder dumps** appear on
  worker deaths, quarantines, and breaker trips — including the dying
  worker's own crash-point dump, written before ``os._exit``;
* declarative **alert rules** over the live fleet aggregate fire as
  typed events in the same log.
"""

import json

import pytest

from repro.core import (
    BatchConfig,
    BatchRunner,
    CircuitOpenError,
    PoolConfig,
    PoolRunner,
)
from repro.faults import crash
from repro.obs import (
    EventLogger,
    MetricsRegistry,
    Tracer,
    default_pool_rules,
    read_event_log,
)
from tests.test_batch_runner import AlwaysBroken, make_blocks
from tests.test_supervisor import (
    SCHEDULE,
    DiesInWorker,
    assert_results_identical,
)


def instrumented_pool(tmp_path, **pool_kwargs):
    registry = MetricsRegistry()
    tracer = Tracer()
    events = EventLogger(tmp_path / "events.jsonl", level="debug")
    runner = PoolRunner(
        PoolConfig(
            flight_recorder_dir=tmp_path / "flight",
            **pool_kwargs,
        ),
        metrics=registry,
        tracer=tracer,
        events=events,
        alert_rules=default_pool_rules(),
    )
    return runner, registry, tracer, events


def fleet_counters(runner):
    return runner.fleet.aggregate().snapshot()["counters"]


class TestChaosTelemetry:
    """One worker killed mid-run: the load-bearing acceptance scenario."""

    N_BLOCKS = 5

    @pytest.fixture()
    def chaos_run(self, tmp_path):
        blocks = make_blocks(self.N_BLOCKS)
        serial = BatchRunner(BatchConfig()).run(blocks, SCHEDULE, seed=11)
        runner, registry, tracer, events = instrumented_pool(
            tmp_path, n_workers=2, max_block_failures=3
        )
        # The second task a worker picks up kills it at task_start (the
        # marker makes the death one-shot across respawns).  Nothing was
        # measured yet at that point, so the retry is the block's first
        # real attempt and fleet totals stay equal to the serial run's.
        crash.arm(
            "pool.worker.task_start",
            hits=2,
            action="exit",
            marker=tmp_path / "killed-once",
        )
        try:
            pooled = runner.run(blocks, SCHEDULE, seed=11)
        finally:
            crash.disarm()
            events.close()
        assert (tmp_path / "killed-once").exists()  # the kill happened
        records = read_event_log(tmp_path / "events.jsonl")
        return serial, pooled, runner, registry, tracer, records, tmp_path

    @pytest.mark.watchdog(120)
    def test_results_metrics_events_and_dumps(self, chaos_run):
        serial, pooled, runner, registry, tracer, records, tmp_path = (
            chaos_run
        )

        # -- results: bit-identical to serial despite the death
        assert not pooled.failures
        assert_results_identical(serial, pooled)

        # -- exactly-once fleet counters: the killed dispatch shipped no
        # delta, so aggregate attempts equal the serial expectation of
        # one attempt per block, exactly.
        counters = fleet_counters(runner)
        assert counters["batch_attempts_total"] == self.N_BLOCKS
        assert counters["pool_worker_tasks_total"] == self.N_BLOCKS
        assert counters.get("batch_retries_total", 0) == 0
        assert runner.fleet.n_deltas == self.N_BLOCKS
        assert runner.fleet.n_replayed == 0

        # -- supervision surfaced in the supervisor's own registry
        # (outcome counting is supervisor-side, shared with the serial
        # runner, so it sees exactly one outcome per block)
        snap = registry.snapshot()["counters"]
        assert snap['batch_blocks_total{outcome="measured"}'] == self.N_BLOCKS
        assert snap['pool_worker_restarts_total{reason="crashed"}'] == 1
        assert snap["pool_tasks_dispatched_total"] == self.N_BLOCKS + 1
        assert snap["pool_telemetry_deltas_total"] == self.N_BLOCKS
        assert runner._last_stats["respawns_crashed"] == 1
        assert runner._last_stats["blocks_quarantined"] == 0

        # -- the event log tells the whole story, in order, correlated
        assert all(r["run_id"] == runner.run_id for r in records)
        names = [r["event"] for r in records]
        assert names[0] == "run.start" and names[-1] == "run.end"
        death = names.index("worker.crashed")
        assert "task.requeued" in names[death:]
        assert "flight.dumped" in names[death:]
        assert "worker.respawned" in names[death:]
        crashed = next(r for r in records if r["event"] == "worker.crashed")
        assert crashed["worker_id"] in (0, 1)

        # -- every span-stamped record resolves to a supervisor span
        stamped = [r for r in records if "span_id" in r]
        assert stamped, "no trace-correlated records"
        for record in stamped:
            span = tracer.resolve(record["span_id"])
            assert span is not None, record
            assert span.trace_id == record["trace_id"]
        # The requeued dispatch's span records its outcome.
        assert crashed["span_id"] is not None
        assert tracer.resolve(crashed["span_id"]).attrs["outcome"] == (
            "crashed"
        )

        # -- worker time reached the manifest's stage timings through
        # the fleet aggregate (the N_BLOCKS + 1 dispatches are counted
        # by pool_tasks_dispatched_total above)
        timings = pooled.manifest.stage_timings
        assert timings["batch_block_seconds"]["count"] == self.N_BLOCKS

        # -- flight recorders: the supervisor dumped the dead worker's
        # box, and the dying worker dumped its own on the way down.
        flight_dir = tmp_path / "flight"
        supervisor_dumps = sorted(flight_dir.glob("flight-w?-0*.json"))
        assert len(supervisor_dumps) == 1
        dump = json.loads(supervisor_dumps[0].read_text())
        assert dump["reason"] == "worker crashed"
        assert dump["run_id"] == runner.run_id
        assert any(e["event"] == "task.dispatched" for e in dump["events"])
        self_dumps = list(flight_dir.glob("flight-w*-p*-crash.json"))
        assert len(self_dumps) == 1
        self_dump = json.loads(self_dumps[0].read_text())
        assert self_dump["reason"] == "crashpoint:pool.worker.task_start"

        # -- a healthy death-and-recovery fires no alerts
        assert runner.alerts.n_fired == 0
        assert runner.alerts.firing() == []

        # -- and the manifest carries the whole telemetry summary
        extra = pooled.manifest.extra
        assert extra["run_id"] == runner.run_id
        assert extra["pool_stats"]["respawns_crashed"] == 1
        assert extra["telemetry"]["n_deltas"] == self.N_BLOCKS
        assert extra["telemetry"]["workers_heard"] == 2
        assert extra["telemetry"]["alerts_fired"] == 0
        assert extra["telemetry"]["events_logged"] > 0


class TestCleanRunTelemetry:
    @pytest.mark.watchdog(120)
    def test_fleet_counters_match_instrumented_serial(self, tmp_path):
        blocks = make_blocks(4)
        serial_registry = MetricsRegistry()
        BatchRunner(BatchConfig(), serial_registry).run(
            blocks, SCHEDULE, seed=3
        )
        runner, registry, _, events = instrumented_pool(tmp_path, n_workers=2)
        runner.run(blocks, SCHEDULE, seed=3)
        events.close()

        want = serial_registry.snapshot()["counters"]
        # Attempts live worker-side, outcome counts supervisor-side; the
        # fleet aggregate plus the supervisor's registry is the pooled
        # equivalent of the serial registry.
        got = runner.fleet.aggregate(registry).snapshot()["counters"]
        for key, value in want.items():
            if key.startswith("batch_"):
                assert got.get(key, 0) == value, key

    @pytest.mark.watchdog(120)
    def test_manifest_carries_worker_stage_timings(self):
        blocks = make_blocks(4)
        runner = PoolRunner(PoolConfig(n_workers=2), metrics=MetricsRegistry())
        result = runner.run(blocks, SCHEDULE, seed=3)
        # Blocks are timed worker-side; the manifest reads the fleet
        # aggregate, so every block's timing is there.
        block = result.manifest.stage_timings["batch_block_seconds"]
        assert block["count"] == len(blocks)
        fleet = runner.fleet.aggregate().snapshot()["histograms"]
        assert block["total_s"] == fleet["batch_block_seconds"]["sum"]
        assert result.manifest.metrics["counters"][
            "pool_tasks_dispatched_total"
        ] == len(blocks)

    @pytest.mark.watchdog(120)
    def test_telemetry_does_not_change_results(self, tmp_path):
        blocks = make_blocks(4)
        dark = PoolRunner(PoolConfig(n_workers=2)).run(
            blocks, SCHEDULE, seed=5
        )
        runner, _, _, events = instrumented_pool(tmp_path, n_workers=2)
        lit = runner.run(blocks, SCHEDULE, seed=5)
        events.close()
        assert_results_identical(dark, lit)


class TestQuarantineAlerts:
    @pytest.mark.watchdog(120)
    def test_quarantine_fires_critical_alert(self, tmp_path):
        blocks = make_blocks(2) + [DiesInWorker()]
        runner, registry, _, events = instrumented_pool(
            tmp_path, n_workers=2, max_block_failures=1
        )
        result = runner.run(blocks, SCHEDULE, seed=2)
        events.close()

        [failure] = result.failures
        assert failure.error_type == "WorkerLost"
        records = read_event_log(tmp_path / "events.jsonl")
        quarantined = next(
            r for r in records if r["event"] == "block.quarantined"
        )
        assert quarantined["block_id"] == 888
        fired = next(r for r in records if r["event"] == "alert.fired")
        assert fired["rule"] == "pool-block-quarantined"
        assert fired["level"] == "error"  # critical alerts log at error
        assert "pool-block-quarantined" in runner.alerts.firing()
        assert (
            registry.counter(
                "alerts_fired_total",
                rule="pool-block-quarantined",
                level="critical",
            ).value
            == 1
        )
        assert result.manifest.extra["telemetry"]["alerts_fired"] >= 1
        # The quarantine also dumped that worker's flight recorder.
        dumps = list((tmp_path / "flight").glob("flight-w?-0*.json"))
        assert dumps


class TestBreakerTelemetry:
    @pytest.mark.watchdog(120)
    def test_breaker_trip_dumps_and_alerts(self, tmp_path):
        blocks = make_blocks(1) + [AlwaysBroken() for _ in range(4)]
        runner, _, _, events = instrumented_pool(
            tmp_path,
            batch=BatchConfig(checkpoint_path=tmp_path / "ck.npz"),
            n_workers=1,  # deterministic completion order
            breaker_threshold=3,
        )
        with pytest.raises(CircuitOpenError):
            runner.run(blocks, SCHEDULE, seed=2)
        events.close()

        records = read_event_log(tmp_path / "events.jsonl")
        names = [r["event"] for r in records]
        assert "breaker.open" in names
        assert names[-1] == "run.aborted"
        aborted = records[-1]
        assert aborted["error_type"] == "CircuitOpenError"
        open_record = next(r for r in records if r["event"] == "breaker.open")
        assert open_record["consecutive"] == 3
        assert open_record["checkpoint_path"].endswith("ck.npz")

        fired = {
            r["rule"] for r in records if r["event"] == "alert.fired"
        }
        assert "pool-breaker-tripped" in fired

        dumps = [
            json.loads(p.read_text())
            for p in (tmp_path / "flight").glob("flight-w?-0*.json")
        ]
        assert any(d["reason"] == "breaker open" for d in dumps)
        # Per-block failure records from the worker made it into the box.
        assert any(
            e["event"] == "block.failed"
            for d in dumps
            for e in d["events"]
        )


class TestDarkPoolStaysDark:
    @pytest.mark.watchdog(120)
    def test_no_telemetry_no_files_no_deltas(self, tmp_path):
        runner = PoolRunner(PoolConfig(n_workers=2))
        runner.run(make_blocks(3), SCHEDULE, seed=1)
        assert runner.fleet.n_deltas == 0
        assert runner.fleet.worker_ids() == []
        assert runner.recorders == {}
        assert list(tmp_path.iterdir()) == []
