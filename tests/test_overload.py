"""Tests for the overload-resilience layer (repro.stream.overload).

The load-bearing properties: the ingest queue is bounded by
``capacity`` no matter what producers do, backpressure asserts/releases
with watermark hysteresis, the shed set is a deterministic function of
the seed and the arrival/pump sequence, shed priorities protect
edge-adjacent and provisional observations over mid-plateau samples of
long-stable blocks, and every close still matches the batch oracle over
the observations that actually survived admission.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.classify import reports_equal
from repro.obs import MetricsRegistry
from repro.stream import (
    AdmissionController,
    ListSink,
    ObservationShed,
    OverloadConfig,
    ShedDegraded,
    StreamConfig,
    StreamEngine,
    WindowClosed,
    batch_window_report,
    paced_replay,
)
from tests.test_stream_engine import (
    DAY,
    ROUND,
    arrival_sequences,
    diurnal_stream,
    split_config,
)


def make_pair(capacity=64, seed=1, window_days=2.0, **overload_kwargs):
    config = StreamConfig.for_days(window_days, label_dwell=1)
    sink = ListSink()
    engine = StreamEngine(config, sinks=[sink])
    controller = AdmissionController(
        engine, OverloadConfig(capacity=capacity, seed=seed, **overload_kwargs)
    )
    return engine, controller, sink


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(capacity=0), "capacity"),
            (dict(low_watermark=0.9, high_watermark=0.5), "watermarks"),
            (dict(low_watermark=0.0), "watermarks"),
            (dict(high_watermark=1.5), "watermarks"),
            (dict(edge_guard_rounds=-1), "edge_guard_rounds"),
            (dict(stable_closes=0), "stable_closes"),
            (dict(shed_log_capacity=0), "shed_log_capacity"),
        ],
    )
    def test_rejects_bad_values(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            OverloadConfig(**kwargs)

    def test_watermark_depths(self):
        config = OverloadConfig(
            capacity=100, high_watermark=0.75, low_watermark=0.5
        )
        assert config.high_depth == 75
        assert config.low_depth == 50


class TestDropInParity:
    def test_unloaded_controller_is_transparent(self):
        """Fast-path ingestion must be bit-identical to a bare engine."""
        times, values = diurnal_stream(6, seed=3)
        config = StreamConfig.for_days(2.0, label_dwell=1)

        bare_sink = ListSink()
        bare = StreamEngine(config, sinks=[bare_sink])
        bare.ingest_many(0, times, values)
        bare.flush()

        wrapped_sink = ListSink()
        wrapped = StreamEngine(config, sinks=[wrapped_sink])
        controller = AdmissionController(wrapped)
        controller.ingest_many(0, times, values)
        controller.flush()

        assert controller.n_shed == 0
        assert not controller.paused
        want = bare_sink.of_type(WindowClosed)
        got = wrapped_sink.of_type(WindowClosed)
        assert len(want) == len(got) > 0
        for a, b in zip(want, got):
            assert reports_equal(a.report, b.report)
            assert a.quality == b.quality

    def test_flush_drains_queue_first(self):
        engine, controller, sink = make_pair(capacity=512)
        times, values = diurnal_stream(3, seed=4)
        for t, v in zip(times, values):
            controller.submit(0, t, v)
        assert controller.depth == len(times)
        controller.flush()
        assert controller.depth == 0
        assert controller.n_shed == 0
        assert sink.of_type(WindowClosed)


class TestBackpressureHysteresis:
    def test_engages_at_high_releases_at_low(self):
        _, controller, _ = make_pair(
            capacity=100, high_watermark=0.8, low_watermark=0.4
        )
        for i in range(79):
            controller.submit(0, i * ROUND, 0.5)
        assert not controller.backpressure()
        controller.submit(0, 79 * ROUND, 0.5)  # depth hits 80 == high
        assert controller.backpressure()
        # Draining to just above low keeps the signal asserted.
        controller.pump(39)  # depth 41 > 40
        assert controller.backpressure()
        controller.pump(1)  # depth 40 == low -> release
        assert not controller.backpressure()

    def test_engagement_is_counted_once_per_episode(self):
        registry = MetricsRegistry()
        config = StreamConfig.for_days(2.0)
        controller = AdmissionController(
            StreamEngine(config),
            OverloadConfig(capacity=10, high_watermark=0.8, low_watermark=0.5),
            metrics=registry,
        )
        for i in range(9):
            controller.submit(0, i * ROUND, 0.5)
        assert controller.n_engagements == 1
        controller.submit(0, 9 * ROUND, 0.5)
        assert controller.n_engagements == 1  # still the same episode
        controller.pump()
        for i in range(10):
            controller.submit(0, (10 + i) * ROUND, 0.5)
        assert controller.n_engagements == 2
        value = registry.counter(
            "stream_backpressure_engagements_total"
        ).value
        assert value == 2


class TestShedding:
    def test_queue_never_exceeds_capacity(self):
        _, controller, _ = make_pair(capacity=32)
        for i in range(1000):
            controller.submit(0, i * ROUND, 0.5)
            assert controller.depth <= 32
        assert controller.n_shed > 0
        assert controller.n_shed + controller.depth == 1000

    def test_shed_drains_to_low_watermark(self):
        _, controller, _ = make_pair(
            capacity=100, high_watermark=0.8, low_watermark=0.5
        )
        for i in range(101):
            controller.submit(0, i * ROUND, 0.5)
        assert controller.depth == 50
        assert controller.n_shed == 51
        assert controller.n_episodes == 1

    def test_shed_events_and_log_agree(self):
        engine, controller, sink = make_pair(capacity=32)
        for i in range(200):
            controller.submit(0, i * ROUND, 0.5)
        shed_events = sink.of_type(ObservationShed)
        log = controller.shed_log()
        assert len(shed_events) == controller.n_shed == len(log)
        assert [e.seq for e in shed_events] == [r.seq for r in log]
        assert all(e.depth == 33 for e in shed_events)

    def test_metrics_ride_the_registry(self):
        registry = MetricsRegistry()
        config = StreamConfig.for_days(2.0)
        controller = AdmissionController(
            StreamEngine(config),
            OverloadConfig(capacity=32),
            metrics=registry,
        )
        for i in range(100):
            controller.submit(0, i * ROUND, 0.5)
        controller.pump()
        shed = sum(
            registry.counter(
                "stream_observations_shed_total", tier=str(t)
            ).value
            for t in range(3)
        )
        assert shed == controller.n_shed > 0
        assert registry.gauge("stream_ingest_queue_depth").value == 0
        ratio = registry.gauge("stream_shed_ratio").value
        assert ratio == pytest.approx(controller.shed_ratio)
        assert registry.counter("stream_shed_episodes_total").value == (
            controller.n_episodes
        )


def prime_stable_block(controller, block_id, n_days=6, seed=5):
    """Feed a clean diurnal history so the block is long-stable."""
    times, values = diurnal_stream(n_days, seed=seed)
    controller.ingest_many(block_id, times, values)
    return times, values


class TestShedPriorities:
    def test_stable_plateau_sheds_before_unknown_block(self):
        engine, controller, sink = make_pair(
            capacity=40, stable_closes=2, low_watermark=0.5
        )
        times, values = prime_stable_block(controller, 0)
        assert engine.stable_run(0) >= 2
        t0 = times[-1] + ROUND
        # Interleave: stable-block plateau samples (far from the mean,
        # far from the last edge) vs samples of a block the engine has
        # never seen.  Overflow must take the former first.
        edge = engine.last_edge_round(0)
        for i in range(41):
            t = t0 + i * ROUND
            r = int((t - engine.config.start_s) / engine.config.round_s)
            if edge is not None and abs(r - edge) <= 10:
                t += 20 * ROUND  # stay clear of the edge guard
            if i % 2 == 0:
                controller.submit(0, t, 0.9)  # plateau, tier 0
            else:
                controller.submit(999, t, 0.9)  # unknown block, tier 2
        assert controller.n_shed > 0
        shed_blocks = {r.block_id for r in controller.shed_log()}
        assert shed_blocks == {0}

    def test_edge_adjacent_samples_survive_plateau_samples(self):
        engine, controller, sink = make_pair(
            capacity=20, stable_closes=2, edge_guard_rounds=3
        )
        prime_stable_block(controller, 0)
        edge = engine.last_edge_round(0)
        assert edge is not None
        start_s = engine.config.start_s
        # 10 samples pinned on the last edge (tier 1) + 11 plateau
        # samples far from it (tier 0): the overflow should consume
        # plateau samples only.
        for i in range(10):
            controller.submit(0, start_s + edge * ROUND, 0.9)
        plateau_round = edge + 50
        for i in range(11):
            controller.submit(0, start_s + plateau_round * ROUND, 0.9)
        assert controller.n_shed == 11
        assert all(
            r.round_index == plateau_round and r.tier == 0
            for r in controller.shed_log()
        )

    def test_shed_ties_break_deterministically_by_seed(self):
        def shed_set(seed):
            _, controller, _ = make_pair(capacity=16, seed=seed)
            for i in range(64):
                controller.submit(i % 8, i * ROUND, 0.5)
            return tuple(controller.shed_log())

        assert shed_set(1) == shed_set(1)
        assert shed_set(1) != shed_set(2)


def storm_scenario(capacity=64, low_watermark=0.25, seed=9):
    """History → unserviced storm on one aligned window → clean recovery.

    Returns ``(engine, controller, sink, kept_times, kept_values,
    storm_start_round)`` where the kept arrays are exactly the
    observations that survived admission (submission order, shed
    removed) — the post-shed oracle input.
    """
    engine, controller, sink = make_pair(
        capacity=capacity, low_watermark=low_watermark, seed=seed
    )
    window = engine.config.window_rounds
    rng = np.random.default_rng(11)

    def series(rounds):
        t = rounds * ROUND
        return t, 0.5 + 0.4 * np.sin(2 * np.pi * t / DAY) + (
            0.02 * rng.standard_normal(len(rounds))
        )

    history_t, history_v = series(np.arange(3 * window))
    controller.ingest_many(0, history_t, history_v)
    storm_rounds = 3 * window + np.arange(window)
    storm_t, storm_v = series(storm_rounds)
    for t, v in zip(storm_t, storm_v):
        controller.submit(0, t, v)
    controller.pump()
    recovery_t, recovery_v = series(4 * window + np.arange(2 * window))
    controller.ingest_many(0, recovery_t, recovery_v)
    controller.flush()

    all_t = np.concatenate([history_t, storm_t, recovery_t])
    all_v = np.concatenate([history_v, storm_v, recovery_v])
    shed_seqs = {r.seq for r in controller.shed_log()}
    kept = [i for i in range(len(all_t)) if (i + 1) not in shed_seqs]
    return (
        engine,
        controller,
        sink,
        all_t[kept],
        all_v[kept],
        3 * window,
    )


class TestDegradedCloses:
    def test_heavy_shed_closes_window_as_insufficient(self):
        engine, controller, sink, kept_t, kept_v, storm_start = (
            storm_scenario()
        )
        window = engine.config.window_rounds
        assert controller.n_shed > window / 2

        closes = sink.of_type(WindowClosed)
        assert len(closes) >= 5
        # Every close (degraded or not) matches the batch oracle over
        # the post-shed observation set.
        for event in closes:
            want_report, want_quality = batch_window_report(
                kept_t,
                kept_v,
                event.window_start_round,
                event.n_rounds,
                engine.config,
            )
            assert reports_equal(event.report, want_report)
            assert event.quality == want_quality
        by_start = {e.window_start_round: e for e in closes}
        # The storm window closed explicitly degraded, not silently
        # wrong; the windows around it stayed classified.
        assert not by_start[storm_start].report.is_classified
        assert by_start[storm_start - window].report.is_classified
        assert by_start[storm_start + window].report.is_classified

    def test_recovery_windows_regain_full_parity(self):
        """After the storm, closes are exact parity vs the raw stream."""
        engine, controller, sink, kept_t, kept_v, storm_start = (
            storm_scenario()
        )
        window = engine.config.window_rounds
        recovered = [
            e
            for e in sink.of_type(WindowClosed)
            if e.window_start_round >= storm_start + window
        ]
        assert recovered
        # No shed round overlaps these windows, so the post-shed oracle
        # and the full-stream oracle agree — and both match the close.
        shed_rounds = {r.round_index for r in controller.shed_log()}
        for event in recovered:
            span = range(
                event.window_start_round,
                event.window_start_round + event.n_rounds,
            )
            assert not shed_rounds.intersection(span)
            assert event.report.is_classified

    def test_shed_degraded_event_names_the_window(self):
        engine, controller, sink, _, _, storm_start = storm_scenario()
        shed_total = controller.n_shed
        assert shed_total > 0
        degraded = sink.of_type(ShedDegraded)
        assert degraded
        close_starts = {
            e.window_start_round for e in sink.of_type(WindowClosed)
        }
        total = 0
        for event in degraded:
            assert event.window_start_round in close_starts
            assert 0 < event.n_shed <= event.n_rounds
            total += event.n_shed
        # Tumbling windows: every shed round lands in exactly one close.
        assert total == shed_total
        assert {e.window_start_round for e in degraded} == {storm_start}

    def test_shed_round_tracking_is_pruned_after_close(self):
        engine, controller, _, _, _, _ = storm_scenario()
        assert controller.shed_rounds(0) == {}


class TestPacedReplay:
    def test_honors_backpressure_and_never_sheds(self):
        engine, controller, sink = make_pair(capacity=48)
        times, values = diurnal_stream(6, seed=7)
        stream = ((0, t, v) for t, v in zip(times, values))
        n_fed, n_pauses = paced_replay(
            stream, controller, pump_every=16, pump_budget=8
        )
        assert n_fed == len(times)
        assert n_pauses > 0  # the producer really did yield
        assert controller.n_shed == 0
        assert controller.depth == 0
        # And the engine's verdicts are exact batch parity.
        closes = sink.of_type(WindowClosed)
        assert closes
        for event in closes:
            want_report, _ = batch_window_report(
                times, values, event.window_start_round, event.n_rounds,
                engine.config,
            )
            assert reports_equal(event.report, want_report)

    def test_rejects_bad_budgets(self):
        _, controller, _ = make_pair()
        with pytest.raises(ValueError, match="pump_every"):
            paced_replay(iter([]), controller, pump_every=0)
        with pytest.raises(ValueError, match="pump_budget"):
            paced_replay(iter([]), controller, pump_budget=0)


class TestDeterminism:
    """Satellite: seeded shed decisions are bit-identical across runs."""

    @staticmethod
    def run_once(seed, arrivals, pump_plan):
        config = StreamConfig.for_days(1.0, label_dwell=1)
        sink = ListSink()
        engine = StreamEngine(config, sinks=[sink])
        controller = AdmissionController(
            engine,
            OverloadConfig(capacity=16, seed=seed),
        )
        pump_iter = iter(pump_plan)
        for i, (block_id, value) in enumerate(arrivals):
            controller.submit(block_id, i * ROUND, value)
            budget = next(pump_iter, 0)
            if budget:
                controller.pump(budget)
        return controller, sink

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        arrivals=st.lists(
            st.tuples(
                st.integers(0, 3),
                st.floats(0.0, 1.0, allow_nan=False),
            ),
            min_size=1,
            max_size=120,
        ),
        pump_plan=st.lists(st.integers(0, 4), max_size=120),
    )
    def test_same_seed_same_arrivals_same_sheds(
        self, seed, arrivals, pump_plan
    ):
        a, _ = self.run_once(seed, arrivals, pump_plan)
        b, _ = self.run_once(seed, arrivals, pump_plan)
        assert a.shed_log() == b.shed_log()
        assert a.n_shed == b.n_shed
        assert a.depth == b.depth

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        arrivals=st.lists(
            st.tuples(
                st.integers(0, 3),
                st.floats(0.0, 1.0, allow_nan=False),
            ),
            min_size=1,
            max_size=120,
        ),
        pump_plan=st.lists(st.integers(0, 4), max_size=120),
    )
    def test_nothing_sheds_below_the_watermarks(
        self, seed, arrivals, pump_plan
    ):
        controller, sink = self.run_once(seed, arrivals, pump_plan)
        capacity = controller.config.capacity
        if controller.max_depth <= capacity:
            assert controller.n_shed == 0
        # Shed episodes only ever trigger with the queue past capacity —
        # in particular, never while depth sits below the low watermark.
        for event in sink.of_type(ObservationShed):
            assert event.depth == capacity + 1
            assert event.depth > controller.config.low_depth


class TestNonFiniteShedding:
    def test_non_finite_observation_is_shed_before_valid_ones(self):
        """The engine drops a NaN-time observation anyway: shedding it
        first costs nothing, protecting it costs a valid observation."""
        engine, controller, _ = make_pair(capacity=8, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for i in range(8):
                controller.submit(1, i * ROUND, 0.5)
            controller.submit(2, float("nan"), 0.5)
        log = controller.shed_log()
        assert len(log) == 5
        (bad,) = [r for r in log if r.block_id == 2]
        assert (bad.tier, bad.round_index) == (0, -1)
        assert sum(r.block_id == 1 for r in log) == 4
        assert controller.shed_rounds(2) == {}
        controller.flush()
        assert engine.n_invalid == 0  # never reached the engine


def controller_run(arrivals, plan, batched, capacity=8):
    """Drive a controller through ``plan``; everything observable.

    Each plan step takes the next ``size`` arrivals and either submits
    them then pumps ``budget``, or feeds them to the drop-in
    ``ingest_many``.  ``batched`` makes each step one call; otherwise
    every observation is its own ``submit``/``ingest`` call.
    """
    from repro.obs import EventLogger

    ids, times, values = arrivals
    log, sink = [], ListSink()
    events = EventLogger(level="debug", ring=log, clock=lambda: 0.0)
    engine = StreamEngine(split_config(), sinks=[sink], events=events)
    controller = AdmissionController(
        engine,
        OverloadConfig(capacity=capacity, seed=5, stable_closes=1),
        events=events,
    )
    start = 0
    for kind, size, budget in plan:
        lo, hi = start, min(len(times), start + size)
        start = hi
        if batched:
            feed = controller.submit if kind == "submit" else controller.ingest_many
            feed(ids[lo:hi], times[lo:hi], values[lo:hi])
        else:
            feed = controller.submit if kind == "submit" else controller.ingest
            for i in range(lo, hi):
                feed(int(ids[i]), float(times[i]), float(values[i]))
        if kind == "submit":
            controller.pump(budget)
    controller.flush()
    return {
        "shed_log": repr(controller.shed_log()),
        "stats": controller.stats(),
        "bus": repr(sink.events),
        "log": repr(log),
    }


class TestBatchSplitInvariance:
    """Batched ``submit``/``ingest_many`` equal per-observation calls."""

    @settings(max_examples=50, deadline=None)
    @given(
        arrivals=arrival_sequences(),
        plan=st.lists(
            st.tuples(
                st.sampled_from(["submit", "submit", "ingest"]),
                st.integers(1, 30),
                st.integers(0, 12),
            ),
            min_size=1,
            max_size=40,
        ),
    )
    def test_batches_match_per_observation_calls(self, arrivals, plan):
        want = controller_run(arrivals, plan, batched=False)
        assert controller_run(arrivals, plan, batched=True) == want

    def test_batch_crossing_capacity_sheds_like_single_submits(self):
        times, values = diurnal_stream(2, seed=8)
        arrivals = (np.arange(len(times)) % 3, times, values)
        # Three oversized batches between pumps: every one crosses the
        # high watermark and capacity more than once.
        plan = [("submit", 30, 4), ("submit", 25, 0), ("submit", 40, 2)]
        want = controller_run(arrivals, plan, batched=False)
        got = controller_run(arrivals, plan, batched=True)
        assert got == want
        assert got["stats"]["n_episodes"] >= 3
        assert got["stats"]["max_depth"] == 9

    def test_drop_in_ingest_many_behind_a_queue(self):
        times, values = diurnal_stream(2, seed=9)
        arrivals = (np.zeros(len(times), dtype=int), times, values)
        # The queue holds 7 of capacity 8 when the drop-in batch arrives:
        # its first observation fills the queue, the rest go straight in.
        plan = [("submit", 7, 0), ("ingest", 60, 0), ("submit", 20, 3)]
        want = controller_run(arrivals, plan, batched=False)
        got = controller_run(arrivals, plan, batched=True)
        assert got == want
        assert got["stats"]["n_engagements"] >= 1
