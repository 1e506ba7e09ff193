"""Cross-process telemetry primitives (repro.obs.distributed)."""

import os
import sys
import threading

import pytest

from repro.obs.distributed import (
    FleetView,
    TelemetryDelta,
    WorkerTelemetry,
    aggregate_registries,
)
from repro.obs.events import EventLogger, FlightRecorder
from repro.obs.registry import MetricsRegistry, diff_states
from repro.obs.tracing import TraceContext, Tracer


def populate(reg, n=1):
    reg.counter("tasks_total").inc(n)
    reg.counter("tasks_total", outcome="failed").inc(2 * n)
    reg.gauge("depth").set(float(n))
    reg.histogram("lat", buckets=(1.0, 10.0)).observe(0.5)
    reg.meter("rate").observe(float(n))


class TestStateTransfer:
    def test_merge_of_diff_reproduces_state(self):
        source = MetricsRegistry()
        populate(source)
        before = source.state()
        populate(source, n=3)  # more activity after the first cut

        mirror = MetricsRegistry()
        mirror.merge(before)
        mirror.merge(diff_states(source.state(), before))
        assert mirror.state() == source.state()

    def test_diff_of_unchanged_state_is_empty(self):
        reg = MetricsRegistry()
        populate(reg)
        state = reg.state()
        assert diff_states(state, state) == []


class TestWorkerTelemetry:
    def test_cut_delta_ships_increments(self):
        telem = WorkerTelemetry(worker_id=3)
        telem.registry.counter("tasks_total").inc(2)
        first = telem.cut_delta()
        assert first.worker_id == 3
        assert first.seq == 1
        assert first.pid == os.getpid()
        [entry] = first.metrics
        assert entry["name"] == "tasks_total" and entry["value"] == 2

        telem.registry.counter("tasks_total").inc(5)
        second = telem.cut_delta()
        assert second.seq == 2
        assert second.metrics[0]["value"] == 5  # increment, not total

    def test_quiet_cut_is_empty(self):
        telem = WorkerTelemetry(worker_id=0)
        telem.registry.counter("x").inc()
        assert not telem.cut_delta().is_empty
        assert telem.cut_delta().is_empty

    def test_events_carry_worker_id_and_trace(self):
        telem = WorkerTelemetry(worker_id=7)
        with telem.tracer.trace("worker.measure_block") as span:
            telem.events.warning("block.retry", attempt=1)
        delta = telem.cut_delta()
        [record] = delta.events
        assert record["worker_id"] == 7
        assert record["trace_id"] == span.trace_id
        assert record["span_id"] == span.span_id
        # The finished span tree ships in the same delta.
        assert [s["name"] for s in delta.spans] == ["worker.measure_block"]
        # Events are drained by the cut, spans ship once.
        assert telem.cut_delta().is_empty

    def test_recorder_tees_records(self):
        recorder = FlightRecorder()
        telem = WorkerTelemetry(worker_id=1, recorder=recorder)
        telem.events.debug("chatter")
        assert recorder.snapshot()["events"][0]["event"] == "chatter"
        # The cut still ships the same record: tee, not redirect.
        assert telem.cut_delta().events[0]["event"] == "chatter"

    def test_worker_spans_parent_under_shipped_context(self):
        supervisor = Tracer()
        dispatch = supervisor.begin("pool.dispatch")
        ctx = TraceContext(dispatch.trace_id, dispatch.span_id)

        telem = WorkerTelemetry(worker_id=0)
        with telem.tracer.trace("worker.measure_block", parent_context=ctx):
            telem.registry.histogram(
                "batch_block_seconds", buckets=(1.0,)
            ).observe(0.25)
        delta = telem.cut_delta()
        [shipped] = delta.spans
        assert shipped["trace_id"] == dispatch.trace_id
        assert shipped["parent_span_id"] == dispatch.span_id

        fleet = FleetView()
        assert fleet.apply(delta, supervisor, parent=dispatch)
        supervisor.end(dispatch)
        # The remote tree is grafted under the dispatch span and
        # resolvable through the local root...
        [grafted] = dispatch.children
        assert grafted.span_id == shipped["span_id"]
        assert supervisor.resolve(grafted.span_id) is grafted
        # ...and the worker's timing histogram arrived with it.
        hist = fleet.aggregate().snapshot()["histograms"]["batch_block_seconds"]
        assert (hist["count"], hist["sum"]) == (1, 0.25)


class TestFleetView:
    def delta(self, seq=1, pid=100, worker_id=0, n=1):
        reg = MetricsRegistry()
        reg.counter("tasks_total").inc(n)
        return TelemetryDelta(
            worker_id=worker_id, seq=seq, pid=pid, metrics=reg.state()
        )

    def value(self, registry, name):
        return registry.counter(name).value

    def test_apply_accumulates_per_worker(self):
        fleet = FleetView()
        assert fleet.apply(self.delta(seq=1, n=2))
        assert fleet.apply(self.delta(seq=2, n=3))
        assert fleet.apply(self.delta(seq=1, worker_id=1, n=10))
        assert self.value(fleet.worker(0), "tasks_total") == 5
        assert self.value(fleet.worker(1), "tasks_total") == 10
        assert self.value(fleet.aggregate(), "tasks_total") == 15
        assert fleet.worker_ids() == [0, 1]
        assert fleet.n_deltas == 3

    def test_replayed_delta_is_a_noop(self):
        fleet = FleetView()
        delta = self.delta(seq=1, n=4)
        assert fleet.apply(delta)
        assert not fleet.apply(delta)
        assert self.value(fleet.worker(0), "tasks_total") == 4
        assert fleet.n_replayed == 1

    def test_new_incarnation_restarts_sequence(self):
        fleet = FleetView()
        assert fleet.apply(self.delta(seq=1, pid=100))
        assert fleet.apply(self.delta(seq=2, pid=100))
        # The respawned worker (new pid) legitimately starts at seq 1.
        assert fleet.apply(self.delta(seq=1, pid=200))
        assert self.value(fleet.worker(0), "tasks_total") == 3

    def test_apply_forwards_events_and_fills_flight(self):
        telem = WorkerTelemetry(worker_id=3)
        with telem.tracer.trace("worker.measure_block"):
            telem.events.info("block.done", index=4)
        telem.registry.counter("tasks_total").inc()
        delta = telem.cut_delta()
        tracer, flight, ring = Tracer(), FlightRecorder(), []
        events = EventLogger(ring=ring)
        fleet = FleetView()
        assert fleet.apply(delta, tracer, events, flight)
        assert [s.name for s in tracer.roots] == ["worker.measure_block"]
        assert [r["event"] for r in ring] == ["block.done"]
        snap = flight.snapshot()
        assert [e["event"] for e in snap["events"]] == ["block.done"]
        [sample] = snap["metric_samples"]
        assert (sample["worker_id"], sample["seq"], sample["pid"]) == (
            3, delta.seq, delta.pid
        )
        assert sample["metrics"] == delta.metrics
        # A replayed delta touches nothing.
        assert not fleet.apply(delta, tracer, events, flight)
        assert len(tracer.roots) == len(ring) == 1
        assert flight.snapshot()["n_samples_total"] == 1

    @pytest.mark.watchdog(60)
    def test_concurrent_apply_and_aggregate_lose_nothing(self):
        # Shard replies arrive on one dispatch thread per shard while the
        # supervision thread aggregates; the view's lock keeps every
        # increment, and seq guards see each incarnation's seqs in order.
        fleet = FleetView()
        n_threads, n_deltas = 8, 200
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def feed(worker_id):
                for seq in range(1, n_deltas + 1):
                    assert fleet.apply(self.delta(seq=seq, worker_id=worker_id))
                    if seq % 50 == 0:
                        fleet.aggregate()

            threads = [
                threading.Thread(target=feed, args=(w,))
                for w in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(old)
        assert fleet.n_deltas == n_threads * n_deltas
        total = self.value(fleet.aggregate(), "tasks_total")
        assert total == n_threads * n_deltas

    def test_unknown_worker_raises(self):
        with pytest.raises(KeyError):
            FleetView().worker(5)

    def test_aggregate_includes_extra_registries(self):
        fleet = FleetView()
        fleet.apply(self.delta(n=2))
        own = MetricsRegistry()
        own.counter("tasks_total").inc(7)
        assert self.value(fleet.aggregate(own), "tasks_total") == 9

    def test_snapshot_shape(self):
        fleet = FleetView()
        fleet.apply(self.delta(n=2))
        snap = fleet.snapshot()
        assert snap["n_deltas"] == 1
        assert snap["workers"]["0"]["counters"]["tasks_total"] == 2
        assert snap["aggregate"]["counters"]["tasks_total"] == 2


class TestAggregateRegistries:
    def test_counters_and_histograms_add_exactly(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        populate(a, n=1)
        populate(b, n=2)
        agg = aggregate_registries([a, b]).snapshot()
        assert agg["counters"]["tasks_total"] == 3
        assert agg["counters"]['tasks_total{outcome="failed"}'] == 6
        assert agg["histograms"]["lat"]["count"] == 2
        assert agg["histograms"]["lat"]["sum"] == 1.0

    def test_gauges_sum_across_members(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("depth").set(1.5)
        b.gauge("depth").set(2.0)
        agg = aggregate_registries([a, b])
        assert agg.gauge("depth").value == 3.5

    def test_meters_combine_count_weighted(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for _ in range(3):
            a.meter("rate").observe(10.0)
        b.meter("rate").observe(40.0)
        merged = aggregate_registries([a, b]).meter("rate")
        assert merged.count == 4
        # 3 observations at level 10 and 1 at level 40, count-weighted.
        assert merged.rate_short == pytest.approx(
            (3 * a.meter("rate").rate_short + 1 * b.meter("rate").rate_short)
            / 4
        )

    def test_aggregation_does_not_mutate_members(self):
        a = MetricsRegistry()
        populate(a)
        before = a.state()
        aggregate_registries([a, a])
        assert a.state() == before
