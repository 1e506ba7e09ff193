"""Tests for the streaming diurnal engine (repro.stream.engine).

The load-bearing property is **batch parity**: every window the engine
closes must carry a report bit-identical to running the batch path
(`clean_observations` + `classify_series`) over the same observations —
including under fault injection.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.classify import DiurnalClass, reports_equal
from repro.core.spectral import diurnal_bin, diurnal_candidates, harmonic_bins
from repro.core.timeseries import observations_to_grid
from repro.faults.config import FaultConfig
from repro.faults.plan import FaultPlan
from repro.stream import (
    ClassificationTransition,
    LateObservation,
    ListSink,
    PhaseEdge,
    QualityDegraded,
    QualityRestored,
    StreamConfig,
    StreamEngine,
    StreamJournal,
    WindowClosed,
    batch_window_report,
    replay_journal,
)

ROUND = 660.0
DAY = 86400.0


def diurnal_stream(n_days, seed=0, amplitude=0.4, noise=0.02, mean=0.5):
    """A clean per-round diurnal observation stream."""
    rng = np.random.default_rng(seed)
    n = int(n_days * DAY / ROUND)
    times = np.arange(n) * ROUND
    values = (
        mean
        + amplitude * np.sin(2 * np.pi * times / DAY)
        + noise * rng.standard_normal(n)
    )
    return times, values


def flat_stream(n_days, seed=0, noise=0.02, mean=0.5):
    rng = np.random.default_rng(seed)
    n = int(n_days * DAY / ROUND)
    times = np.arange(n) * ROUND
    return times, mean + noise * rng.standard_normal(n)


def held_grid(times, values, n_rounds):
    """Rounds ``[0, n_rounds)`` gridded the batch way and hold-filled.

    The independent reference for the engine's frozen rounds: each gap
    carries the last observation forward, and rounds before the first
    observation count as 0.
    """
    grid, _ = observations_to_grid(times, values, ROUND, 0.0, n_rounds)
    last = 0.0
    for i, v in enumerate(grid):
        if np.isnan(v):
            grid[i] = last
        else:
            last = v
    return grid


def trailing_window(held, end_round, n):
    """The ``n`` rounds ending at ``end_round``, zero-padded before 0."""
    padded = np.concatenate([np.zeros(n), held[: end_round + 1]])
    return padded[-n:]


def assert_parity(sink, times, values, config):
    """Every closed window's report/quality must match the batch oracle."""
    closes = sink.of_type(WindowClosed)
    assert closes, "no windows closed"
    for event in closes:
        want_report, want_quality = batch_window_report(
            times, values, event.window_start_round, event.n_rounds, config
        )
        assert reports_equal(event.report, want_report), (
            event.window_start_round,
            event.report,
            want_report,
        )
        assert event.quality == want_quality
    return closes


class TestConfig:
    def test_sub_day_window_rejected(self):
        with pytest.raises(ValueError, match="at least one full day"):
            StreamConfig(window_rounds=50)

    def test_bad_hop_rejected(self):
        n = int(2 * DAY / ROUND)
        with pytest.raises(ValueError, match="hop_rounds"):
            StreamConfig(window_rounds=n, hop_rounds=n + 1)
        with pytest.raises(ValueError, match="hop_rounds"):
            StreamConfig(window_rounds=n, hop_rounds=0)

    def test_bad_policy_rejected(self):
        n = int(2 * DAY / ROUND)
        with pytest.raises(ValueError, match="fill policy"):
            StreamConfig(window_rounds=n, fill_policy="wat")

    def test_bad_dwell_rejected(self):
        n = int(2 * DAY / ROUND)
        with pytest.raises(ValueError, match="label_dwell"):
            StreamConfig(window_rounds=n, label_dwell=0)

    def test_for_days(self):
        config = StreamConfig.for_days(2.0, hop_days=0.5)
        assert config.window_rounds == int(round(2 * DAY / ROUND))
        assert config.hop == int(round(0.5 * DAY / ROUND))

    def test_default_hop_is_tumbling(self):
        config = StreamConfig.for_days(2.0)
        assert config.hop == config.window_rounds


class TestBatchParityClean:
    def test_tumbling_windows(self):
        times, values = diurnal_stream(6, seed=1)
        config = StreamConfig.for_days(2.0, label_dwell=1)
        sink = ListSink()
        engine = StreamEngine(config, sinks=[sink])
        engine.ingest_many(0, times, values)
        engine.flush()
        closes = assert_parity(sink, times, values, config)
        n = len(times)
        want = (n - config.window_rounds) // config.hop + 1
        assert len(closes) == want
        assert all(
            e.report.label is DiurnalClass.STRICT for e in closes
        )

    def test_hopping_windows(self):
        times, values = diurnal_stream(5, seed=2)
        config = StreamConfig.for_days(2.0, hop_days=0.5, label_dwell=1)
        sink = ListSink()
        engine = StreamEngine(config, sinks=[sink])
        engine.ingest_many(3, times, values)
        engine.flush()
        closes = assert_parity(sink, times, values, config)
        n = len(times)
        want = (n - config.window_rounds) // config.hop + 1
        assert len(closes) == want
        starts = [e.window_start_round for e in closes]
        assert starts == [i * config.hop for i in range(want)]

    def test_non_diurnal_stream(self):
        times, values = flat_stream(4, seed=3)
        config = StreamConfig.for_days(2.0, label_dwell=1)
        sink = ListSink()
        engine = StreamEngine(config, sinks=[sink])
        engine.ingest_many(0, times, values)
        engine.flush()
        closes = assert_parity(sink, times, values, config)
        assert all(
            e.report.label is not DiurnalClass.STRICT for e in closes
        )

    def test_sparse_stream_parity(self):
        rng = np.random.default_rng(4)
        times, values = diurnal_stream(6, seed=4)
        keep = rng.random(len(times)) > 0.2
        config = StreamConfig.for_days(2.0, label_dwell=1)
        sink = ListSink()
        engine = StreamEngine(config, sinks=[sink])
        engine.ingest_many(0, times[keep], values[keep])
        engine.flush()
        assert_parity(sink, times[keep], values[keep], config)

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        drop=st.floats(0.0, 0.5),
        hop_days=st.sampled_from([0.5, 1.0, 2.0]),
    )
    def test_property_parity(self, seed, drop, hop_days):
        rng = np.random.default_rng(seed)
        times, values = diurnal_stream(5, seed=seed)
        keep = rng.random(len(times)) > drop
        config = StreamConfig.for_days(2.0, hop_days=hop_days, label_dwell=1)
        sink = ListSink()
        engine = StreamEngine(config, sinks=[sink])
        engine.ingest_many(0, times[keep], values[keep])
        engine.flush()
        assert_parity(sink, times[keep], values[keep], config)


class TestBatchParityUnderFaults:
    FAULTS = FaultConfig(
        round_drop_rate=0.05,
        round_duplicate_rate=0.05,
        gaps_per_day=1.0,
        mean_gap_rounds=6.0,
        clock_jitter_s=60.0,
        clock_skew_ppm=50.0,
        seed=11,
    )

    def degraded(self, block_index, n_days=6, seed=5):
        times, values = diurnal_stream(n_days, seed=seed)
        plan = FaultPlan(self.FAULTS).for_block(block_index)
        return plan.degrade_stream(times, values, ROUND)

    def test_parity_with_injected_faults(self):
        # degrade_stream sorts by (corrupted) timestamp, so rounds arrive
        # in non-decreasing order and no lateness slack is needed.
        for block in range(4):
            times, values = self.degraded(block)
            config = StreamConfig.for_days(2.0, label_dwell=1)
            sink = ListSink()
            engine = StreamEngine(config, sinks=[sink])
            engine.ingest_many(block, times, values)
            engine.flush()
            assert engine.n_late(block) == 0
            assert_parity(sink, times, values, config)

    def test_heavy_faults_trigger_quality_gate(self):
        heavy = FaultConfig(round_drop_rate=0.45, gaps_per_day=4.0, seed=3)
        times, values = diurnal_stream(6, seed=6)
        obs_t, obs_v = FaultPlan(heavy).degrade_stream(times, values, ROUND)
        config = StreamConfig.for_days(2.0, label_dwell=1)
        sink = ListSink()
        engine = StreamEngine(config, sinks=[sink])
        engine.ingest_many(0, obs_t, obs_v)
        engine.flush()
        closes = assert_parity(sink, obs_t, obs_v, config)
        assert any(
            e.report.label is DiurnalClass.INSUFFICIENT for e in closes
        )
        assert sink.of_type(QualityDegraded)


class TestWatermarkAndLateness:
    def test_disorder_within_slack_is_reordered(self):
        times, values = diurnal_stream(4, seed=7)
        rng = np.random.default_rng(7)
        # Perturbing each timestamp forward by up to 5 rounds before
        # sorting bounds any observation's displacement to 5 rounds.
        order = np.argsort(
            times + rng.uniform(0, 5 * ROUND, len(times)), kind="stable"
        )
        config = StreamConfig.for_days(2.0, lateness_rounds=8, label_dwell=1)
        sink = ListSink()
        engine = StreamEngine(config, sinks=[sink])
        engine.ingest_many(0, times[order], values[order])
        engine.flush()
        assert engine.n_late(0) == 0
        assert_parity(sink, times, values, config)

    def test_late_observation_dropped_with_event(self):
        config = StreamConfig.for_days(2.0, lateness_rounds=0, label_dwell=1)
        sink = ListSink()
        engine = StreamEngine(config, sinks=[sink])
        engine.ingest(0, 100 * ROUND, 0.5)
        engine.ingest(0, 50 * ROUND, 0.9)  # behind the watermark
        late = sink.of_type(LateObservation)
        assert len(late) == 1
        assert late[0].round_index == 50
        # Watermark sits one round behind the newest round (100), so the
        # drop lags it by 99 - 50 rounds.
        assert late[0].lag_rounds == 49
        assert engine.n_late(0) == 1

    def test_negative_round_dropped(self):
        config = StreamConfig.for_days(2.0, label_dwell=1)
        sink = ListSink()
        engine = StreamEngine(config, sinks=[sink])
        engine.ingest(0, -5 * ROUND, 0.5)
        assert len(sink.of_type(LateObservation)) == 1

    def test_dropped_late_round_excluded_from_verdict(self):
        """The closed window reflects exactly the admitted observations."""
        times, values = diurnal_stream(3, seed=8)
        config = StreamConfig.for_days(2.0, lateness_rounds=0, label_dwell=1)
        sink = ListSink()
        engine = StreamEngine(config, sinks=[sink])
        # Feed rounds 10.. first so rounds 0..9 arrive late and drop.
        engine.ingest_many(0, times[10:], values[10:])
        engine.ingest_many(0, times[:10], values[:10])
        engine.flush()
        assert engine.n_late(0) == 10
        assert_parity(sink, times[10:], values[10:], config)

    def test_far_future_jump_still_parity(self):
        """A jump past ring capacity forces eviction, not corruption."""
        times, values = diurnal_stream(3, seed=9)
        config = StreamConfig.for_days(1.0, label_dwell=1)
        gap_times = np.concatenate([times, times + 30 * DAY])
        gap_values = np.concatenate([values, values])
        sink = ListSink()
        engine = StreamEngine(config, sinks=[sink])
        engine.ingest_many(0, gap_times, gap_values)
        engine.flush()
        assert_parity(sink, gap_times, gap_values, config)

    def test_far_jump_memory_is_bounded_by_the_ring(self):
        """Jumping 50,000 rounds closes every window on the way, but the
        engine advances ring by ring: its peak allocation must not grow
        with the gap (one float per skipped round would be 0.4 MB)."""
        import tracemalloc

        engine = StreamEngine(StreamConfig.for_days(1.0))
        engine.ingest(0, 0.0, 0.5)
        tracemalloc.start()
        try:
            engine.ingest(0, 50_000 * ROUND, 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert engine.snapshot(0)["n_closed"] == 381
        assert peak < 0.25e6, f"peak {peak / 1e6:.2f} MB"


class TestHysteresis:
    def build(self, dwell):
        # 2 diurnal days, then flat: tumbling 1-day windows flip labels.
        t1, v1 = diurnal_stream(2, seed=10)
        t2, v2 = flat_stream(3, seed=10)
        times = np.concatenate([t1, t2 + 2 * DAY])
        values = np.concatenate([v1, v2])
        config = StreamConfig.for_days(1.0, label_dwell=dwell)
        sink = ListSink()
        engine = StreamEngine(config, sinks=[sink])
        engine.ingest_many(0, times, values)
        engine.flush()
        return engine, sink

    def test_dwell_two_delays_transition(self):
        engine, sink = self.build(dwell=2)
        transitions = sink.of_type(ClassificationTransition)
        # Initial verdict plus exactly one (confirmed) transition.
        assert len(transitions) == 2
        first, flip = transitions
        assert first.old_label is None
        assert first.new_label.is_diurnal
        assert not flip.new_label.is_diurnal
        assert flip.dwell == 2
        # The flip fires on the second non-diurnal close, not the first.
        closes = sink.of_type(WindowClosed)
        flip_positions = [
            i for i, c in enumerate(closes)
            if c.round_index == flip.round_index
        ]
        first_bad = next(
            i for i, c in enumerate(closes)
            if not c.report.label.is_diurnal
        )
        assert flip_positions[0] == first_bad + 1
        assert not engine.stable_label(0).is_diurnal

    def test_dwell_one_flips_immediately(self):
        engine, sink = self.build(dwell=1)
        transitions = sink.of_type(ClassificationTransition)
        assert len(transitions) == 2
        assert transitions[1].dwell == 1

    def test_single_window_blip_suppressed(self):
        # diurnal, one flat day, diurnal again: with dwell=2 the stable
        # label never leaves diurnal.
        t1, v1 = diurnal_stream(2, seed=11)
        t2, v2 = flat_stream(1, seed=11)
        t3, v3 = diurnal_stream(2, seed=12)
        times = np.concatenate([t1, t2 + 2 * DAY, t3 + 3 * DAY])
        values = np.concatenate([v1, v2, v3])
        config = StreamConfig.for_days(1.0, label_dwell=2)
        sink = ListSink()
        engine = StreamEngine(config, sinks=[sink])
        engine.ingest_many(0, times, values)
        engine.flush()
        transitions = sink.of_type(ClassificationTransition)
        assert len(transitions) == 1  # only the initial verdict
        assert engine.stable_label(0).is_diurnal


class TestPhaseEdges:
    def test_clean_sinusoid_alternates(self):
        times, values = diurnal_stream(6, seed=13, noise=0.0)
        config = StreamConfig.for_days(2.0, edge_margin=0.1, label_dwell=1)
        sink = ListSink()
        engine = StreamEngine(config, sinks=[sink])
        engine.ingest_many(0, times, values)
        engine.flush()
        edges = sink.of_type(PhaseEdge)
        assert edges, "no phase edges on a clean sinusoid"
        kinds = [e.edge for e in edges]
        # Strictly alternating sleep/wake.
        assert all(a != b for a, b in zip(kinds, kinds[1:]))
        # Roughly one sleep and one wake per day after priming.
        assert 4 <= len(edges) <= 12

    def test_running_mean_does_not_drift(self, tmp_path):
        faults = FaultConfig(
            round_drop_rate=0.05,
            round_duplicate_rate=0.05,
            gaps_per_day=1.0,
            mean_gap_rounds=6.0,
            seed=15,
        )
        times, values = diurnal_stream(60, seed=15)
        obs_t, obs_v = FaultPlan(faults).degrade_stream(times, values, ROUND)
        config = StreamConfig.for_days(1.0, edge_margin=0.1, label_dwell=1)
        n = config.window_rounds

        sink = ListSink()
        engine = StreamEngine(config, sinks=[sink])
        path = tmp_path / "wal"
        with StreamJournal(path) as journal:
            for t, v in zip(obs_t, obs_v):
                journal.append(0, float(t), float(v))
                engine.ingest(0, float(t), float(v))
        engine.flush()
        assert engine.n_late(0) == 0

        edges = sink.of_type(PhaseEdge)
        assert len(edges) >= 100
        held = held_grid(obs_t, obs_v, engine.watermark(0) + 1)
        for edge in edges:
            window = trailing_window(held, edge.round_index, n)
            assert edge.window_mean == pytest.approx(
                window.mean(), abs=1e-9
            )

        replay_sink = ListSink()
        replayed = StreamEngine(config, sinks=[replay_sink])
        replay_journal(path, replayed)
        replayed.flush()
        assert replay_sink.of_type(PhaseEdge) == edges

    def test_flat_stream_has_no_edges(self):
        times, values = flat_stream(4, seed=14, noise=0.01)
        config = StreamConfig.for_days(2.0, edge_margin=0.2, label_dwell=1)
        sink = ListSink()
        engine = StreamEngine(config, sinks=[sink])
        engine.ingest_many(0, times, values)
        engine.flush()
        assert not sink.of_type(PhaseEdge)


class TestQualityEvents:
    def test_degrade_then_restore(self):
        t1, v1 = diurnal_stream(2, seed=15)
        t3, v3 = diurnal_stream(2, seed=16)
        # Day 3 entirely missing -> the window covering it is refused.
        times = np.concatenate([t1, t3 + 3 * DAY])
        values = np.concatenate([v1, v3])
        config = StreamConfig.for_days(1.0, label_dwell=1)
        sink = ListSink()
        engine = StreamEngine(config, sinks=[sink])
        engine.ingest_many(0, times, values)
        engine.flush()
        degraded = sink.of_type(QualityDegraded)
        restored = sink.of_type(QualityRestored)
        assert len(degraded) == 1
        assert "no observations" in degraded[0].reason
        assert len(restored) == 1
        assert restored[0].round_index > degraded[0].round_index
        assert_parity(sink, times, values, config)


class TestFlush:
    def test_flush_without_partial_leaves_tail_open(self):
        times, values = diurnal_stream(2.5, seed=17)
        config = StreamConfig.for_days(1.0, label_dwell=1)
        sink = ListSink()
        engine = StreamEngine(config, sinks=[sink])
        engine.ingest_many(0, times, values)
        engine.flush()
        assert len(sink.of_type(WindowClosed)) == 2

    def test_flush_partial_classifies_tail(self):
        # 3.5 days with a 2-day window: one full close plus a ~1.5-day
        # tail, long enough (>= one day) for a partial classification.
        times, values = diurnal_stream(3.5, seed=17)
        config = StreamConfig.for_days(2.0, label_dwell=1)
        sink = ListSink()
        engine = StreamEngine(config, sinks=[sink])
        engine.ingest_many(0, times, values)
        engine.flush(close_partial=True)
        closes = sink.of_type(WindowClosed)
        assert len(closes) == 2
        tail = closes[-1]
        assert tail.partial
        assert tail.n_rounds < config.window_rounds
        want, want_q = batch_window_report(
            times, values, tail.window_start_round, tail.n_rounds, config
        )
        assert reports_equal(tail.report, want)
        assert tail.quality == want_q

    def test_flush_partial_too_short_is_skipped(self):
        # A 30-round tail spans well under a day: unclassifiable, no event.
        times, values = diurnal_stream(1.0, seed=18)
        n = int(DAY / ROUND)
        extra_t = np.arange(n, n + 30) * ROUND
        extra_v = np.full(30, 0.5)
        config = StreamConfig.for_days(1.0, label_dwell=1)
        sink = ListSink()
        engine = StreamEngine(config, sinks=[sink])
        engine.ingest_many(0, np.concatenate([times, extra_t]),
                           np.concatenate([values, extra_v]))
        engine.flush(close_partial=True)
        closes = sink.of_type(WindowClosed)
        assert len(closes) == 1
        assert not closes[0].partial

    def test_flush_single_block(self):
        # Lateness larger than the stream defers every close to flush.
        times, values = diurnal_stream(2.0, seed=19)
        config = StreamConfig.for_days(1.0, lateness_rounds=300, label_dwell=1)
        sink = ListSink()
        engine = StreamEngine(config, sinks=[sink])
        engine.ingest_many(0, times, values)
        engine.ingest_many(1, times, values)
        engine.flush(block_id=0)
        closed_blocks = {e.block_id for e in sink.of_type(WindowClosed)}
        assert closed_blocks == {0}
        engine.flush()
        closed_blocks = {e.block_id for e in sink.of_type(WindowClosed)}
        assert closed_blocks == {0, 1}


class TestMultiBlock:
    def test_interleaved_blocks_are_independent(self):
        streams = {b: diurnal_stream(3, seed=20 + b) for b in range(3)}
        config = StreamConfig.for_days(1.0, label_dwell=1)

        # Interleaved round-robin ingestion.
        sink = ListSink()
        engine = StreamEngine(config, sinks=[sink])
        n = len(streams[0][0])
        for r in range(n):
            for b, (times, values) in streams.items():
                engine.ingest(b, float(times[r]), float(values[r]))
        engine.flush()

        # Each block alone.
        for b, (times, values) in streams.items():
            solo_sink = ListSink()
            solo = StreamEngine(config, sinks=[solo_sink])
            solo.ingest_many(b, times, values)
            solo.flush()
            got = [e for e in sink.of_type(WindowClosed) if e.block_id == b]
            want = solo_sink.of_type(WindowClosed)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert reports_equal(g.report, w.report)
                assert g.quality == w.quality

        assert engine.blocks() == [0, 1, 2]


class TestProvisional:
    def test_primes_after_one_window(self):
        # A 2-day window keeps the diurnal candidates (bins 2-3) clear of
        # the harmonic set; in a 1-day window bin 2 is both candidate and
        # first harmonic, which blurs looks_diurnal by construction.
        times, values = diurnal_stream(4, seed=21, noise=0.0)
        config = StreamConfig.for_days(2.0, label_dwell=1)
        engine = StreamEngine(config)
        n = config.window_rounds
        engine.ingest_many(0, times[: n // 2], values[: n // 2])
        assert not engine.provisional(0).primed
        engine.ingest_many(0, times[n // 2:], values[n // 2:])
        est = engine.provisional(0)
        assert est.primed
        assert est.looks_diurnal
        assert est.mean == pytest.approx(0.5, abs=0.05)

    def test_provisional_tracks_trailing_window_amplitude(self):
        times, values = diurnal_stream(3, seed=22, noise=0.0)
        config = StreamConfig.for_days(1.0, label_dwell=1)
        engine = StreamEngine(config)
        engine.ingest_many(0, times, values)
        est = engine.provisional(0)
        n = config.window_rounds
        wm = engine.watermark(0)
        window = values[wm - n + 1: wm + 1]
        ref = np.abs(np.fft.rfft(window))
        assert est.diurnal_amplitude == pytest.approx(
            ref[est.diurnal_k], abs=1e-12
        )

    @staticmethod
    def assert_exact(engine, block_id, times, values):
        """Every provisional field equals an rfft of the held window."""
        config = engine.config
        n = config.window_rounds
        wm = engine.watermark(block_id)
        est = engine.provisional(block_id)
        window = trailing_window(held_grid(times, values, wm + 1), wm, n)
        ref = np.fft.rfft(window)
        cand = np.array(diurnal_candidates(n, config.round_s))
        assert est.diurnal_k == cand[np.argmax(np.abs(ref[cand]))]
        k_d = diurnal_bin(n, config.round_s)
        harmonics = harmonic_bins(
            k_d,
            n // 2 + 1,
            max_harmonic=config.classifier.max_harmonic,
            tolerance=config.classifier.harmonic_tolerance,
        )
        assert est.round_index == wm
        assert est.mean == pytest.approx(ref[0].real / n, abs=1e-12)
        assert est.diurnal_amplitude == pytest.approx(
            np.abs(ref[est.diurnal_k]), abs=1e-12
        )
        assert est.diurnal_phase == pytest.approx(
            np.angle(ref[est.diurnal_k]), abs=1e-12
        )
        assert est.strongest_harmonic == pytest.approx(
            np.abs(ref[harmonics]).max(), abs=1e-12
        )
        return est

    def test_exact_while_priming(self):
        times, values = diurnal_stream(4, seed=25)
        config = StreamConfig.for_days(2.0, label_dwell=1)
        engine = StreamEngine(config)
        half = config.window_rounds // 2
        engine.ingest_many(0, times[:half], values[:half])
        est = self.assert_exact(engine, 0, times[:half], values[:half])
        assert not est.primed
        assert engine.window_mean(0) is None

    def test_exact_after_several_windows(self):
        times, values = diurnal_stream(9, seed=26)
        config = StreamConfig.for_days(2.0, label_dwell=1)
        engine = StreamEngine(config)
        engine.ingest_many(0, times, values)
        est = self.assert_exact(engine, 0, times, values)
        assert est.primed
        assert engine.window_mean(0) == est.mean

    def test_exact_under_gaps_and_duplicates(self):
        faults = FaultConfig(
            round_drop_rate=0.1,
            round_duplicate_rate=0.1,
            gaps_per_day=2.0,
            mean_gap_rounds=8.0,
            seed=27,
        )
        times, values = diurnal_stream(7, seed=27)
        obs_t, obs_v = FaultPlan(faults).degrade_stream(times, values, ROUND)
        assert len(np.unique(np.round(obs_t / ROUND))) < len(obs_t)
        config = StreamConfig.for_days(2.0, label_dwell=1)
        engine = StreamEngine(config)
        engine.ingest_many(0, obs_t, obs_v)
        assert engine.n_late(0) == 0
        assert self.assert_exact(engine, 0, obs_t, obs_v).primed

    def test_window_mean_of_untracked_block_is_none(self):
        engine = StreamEngine(StreamConfig.for_days(1.0))
        assert engine.window_mean(0) is None

    def test_flat_stream_not_diurnal(self):
        times, values = flat_stream(2, seed=23)
        config = StreamConfig.for_days(1.0, label_dwell=1)
        engine = StreamEngine(config)
        engine.ingest_many(0, times, values)
        assert not engine.provisional(0).looks_diurnal


class TestReplayIntegration:
    def test_replay_iterable(self):
        times, values = diurnal_stream(2, seed=24)
        config = StreamConfig.for_days(1.0, label_dwell=1)
        sink = ListSink()
        engine = StreamEngine(config, sinks=[sink])
        stream = [(7, float(t), float(v)) for t, v in zip(times, values)]
        engine.ingest_many(*(np.array(col) for col in zip(*stream)))
        n = len(stream)
        engine.flush()
        assert n == len(times)
        assert_parity(sink, times, values, config)

    def test_batch_result_replay_into(self):
        from repro.core.pipeline import BatchConfig, BatchRunner
        from repro.simulation.scenarios import survey_population

        blocks = survey_population(6, seed=0)
        from repro.probing.rounds import RoundSchedule

        schedule = RoundSchedule.for_days(4)
        batch = BatchRunner(BatchConfig()).run(blocks, schedule, seed=0)
        measured = [m for m in batch.measurements if not m.skipped]
        assert measured

        config = StreamConfig.for_days(
            2.0, start_s=schedule.start_s, label_dwell=1
        )
        sink = ListSink()
        engine = StreamEngine(config, sinks=[sink])
        n_fed = batch.replay_into(engine)
        assert n_fed == sum(m.schedule.n_rounds for m in measured)
        assert set(engine.blocks()) == {m.block_id for m in measured}
        for m in measured:
            times, values = m.observation_stream()
            events = [
                e for e in sink.of_type(WindowClosed)
                if e.block_id == m.block_id
            ]
            assert events
            for event in events:
                want, want_q = batch_window_report(
                    times, values, event.window_start_round,
                    event.n_rounds, config,
                )
                assert reports_equal(event.report, want)
                assert event.quality == want_q

    def test_observation_stream_validates_series(self):
        from repro.core.pipeline import BatchConfig, BatchRunner
        from repro.simulation.scenarios import survey_population
        from repro.probing.rounds import RoundSchedule

        blocks = survey_population(2, seed=1)
        batch = BatchRunner(BatchConfig()).run(
            blocks, RoundSchedule.for_days(2), seed=1
        )
        m = batch.measurements[0]
        with pytest.raises(ValueError, match="unknown series"):
            m.observation_stream("nope")
        times, values = m.observation_stream("true_availability", trimmed=True)
        assert len(times) == len(values)
        assert len(times) == (m.trim.stop - (m.trim.start or 0))


class TestIngestValidation:
    """Non-finite time/value observations are dropped, counted, logged."""

    BAD = [
        (float("nan"), 0.5),
        (float("inf"), 0.5),
        (100 * ROUND, float("nan")),
        (100 * ROUND, float("-inf")),
    ]

    def test_nonfinite_observations_are_dropped_and_counted(self, tmp_path):
        from repro.obs import EventLogger, MetricsRegistry, read_event_log

        registry = MetricsRegistry()
        events = EventLogger(tmp_path / "events.jsonl", level="debug")
        config = StreamConfig.for_days(2.0, label_dwell=1)
        sink = ListSink()
        engine = StreamEngine(
            config, sinks=[sink], metrics=registry, events=events
        )
        times, values = diurnal_stream(3)
        for i, (t, v) in enumerate(zip(times, values)):
            engine.ingest(0, t, v)
            if i < len(self.BAD):
                engine.ingest(0, *self.BAD[i])
        engine.flush()
        events.close()

        assert engine.n_invalid == len(self.BAD)
        assert (
            registry.counter("stream_invalid_observations_total").value
            == len(self.BAD)
        )
        records = [
            e
            for e in read_event_log(tmp_path / "events.jsonl")
            if e["event"] == "stream.invalid_observation"
        ]
        assert len(records) == len(self.BAD)
        assert all(e["level"] == "warning" for e in records)
        assert records[0]["value"] == "0.5"  # repr survives JSON round-trip

    def test_parity_is_unperturbed_by_invalid_observations(self):
        config = StreamConfig.for_days(2.0, label_dwell=1)
        sink = ListSink()
        engine = StreamEngine(config, sinks=[sink])
        times, values = diurnal_stream(4, seed=7)
        for i, (t, v) in enumerate(zip(times, values)):
            engine.ingest(0, t, v)
            engine.ingest(0, self.BAD[i % len(self.BAD)][0],
                          self.BAD[i % len(self.BAD)][1])
        engine.flush()
        # The oracle sees only the finite observations: exact parity
        # means the invalid ones left no trace in ring or verdict.
        assert_parity(sink, times, values, config)

    def test_ingest_many_validates_each_observation(self):
        config = StreamConfig.for_days(1.0, label_dwell=1)
        engine = StreamEngine(config)
        engine.ingest_many(
            5,
            np.array([0.0, ROUND, float("nan")]),
            np.array([0.5, float("inf"), 0.5]),
        )
        assert engine.n_invalid == 2


# -- batch-split invariance ----------------------------------------------------

HOUR = 3600.0
NON_FINITE = [float("nan"), float("inf"), float("-inf")]


def split_config():
    """A day-long window on an hourly grid: closes come every 12 rounds."""
    return StreamConfig(
        window_rounds=24,
        round_s=HOUR,
        hop_rounds=12,
        lateness_rounds=2,
        label_dwell=1,
    )


@st.composite
def arrival_sequences(draw):
    """Mixed-block arrivals: duplicates, late ones, jumps, non-finite.

    Each block walks its own round cursor; a step of 0 repeats a round,
    negative steps arrive behind the newest round (late, or reordered
    within the slack) and a step of 40 jumps past the ring.  About one
    arrival in five has a NaN/inf time or value.
    """
    items = draw(
        st.lists(
            st.tuples(
                st.integers(0, 2),
                st.sampled_from([-5, -3, -1, 0, 1, 1, 1, 2, 2, 3, 40]),
                st.floats(-0.3, 0.3),
                st.floats(0.0, 1.0),
                st.sampled_from(range(30)),
            ),
            min_size=30,
            max_size=250,
        )
    )
    cursor = [0, 0, 0]
    ids, times, values = [], [], []
    for block, step, jitter, value, corrupt in items:
        cursor[block] = max(0, cursor[block] + step)
        ids.append(block)
        time_s = (cursor[block] + jitter) * HOUR
        if corrupt < 3:
            time_s = NON_FINITE[corrupt]
        elif corrupt < 6:
            value = NON_FINITE[corrupt - 3]
        times.append(time_s)
        values.append(value)
    return np.array(ids), np.array(times), np.array(values)


def engine_run(feed):
    """Run ``feed(engine)``, flush; everything an observer can see."""
    from repro.obs import EventLogger, MetricsRegistry

    registry = MetricsRegistry()
    log = []
    sink = ListSink()
    engine = StreamEngine(
        split_config(),
        sinks=[sink],
        metrics=registry,
        events=EventLogger(level="debug", ring=log, clock=lambda: 0.0),
    )
    feed(engine)
    engine.flush(close_partial=True)
    return {
        "bus": repr(sink.events),
        "log": repr(log),
        "counters": registry.snapshot()["counters"],
        "snapshots": repr([engine.snapshot(b) for b in engine.blocks()]),
    }


class TestBatchSplitInvariance:
    """``ingest_many`` over any split equals per-observation ``ingest``."""

    @settings(max_examples=60, deadline=None)
    @given(arrivals=arrival_sequences(), cuts=st.lists(st.integers(0, 250)))
    def test_any_split_matches_per_observation_ingest(self, arrivals, cuts):
        ids, times, values = arrivals

        def one_at_a_time(engine):
            for b, t, v in zip(ids.tolist(), times.tolist(), values.tolist()):
                engine.ingest(b, t, v)

        def in_batches(engine):
            bounds = sorted({0, len(times), *(c % (len(times) + 1) for c in cuts)})
            for lo, hi in zip(bounds, bounds[1:]):
                engine.ingest_many(ids[lo:hi], times[lo:hi], values[lo:hi])

        want = engine_run(one_at_a_time)
        assert engine_run(in_batches) == want

    def test_scalar_block_id_broadcasts(self):
        times, values = diurnal_stream(2, seed=31)
        config = StreamConfig.for_days(1.0, label_dwell=1)
        a, b = ListSink(), ListSink()
        StreamEngine(config, sinks=[a]).ingest_many(4, times, values)
        StreamEngine(config, sinks=[b]).ingest_many(
            np.full(len(times), 4), times, values
        )
        assert repr(a.events) == repr(b.events) and a.events

    def test_misaligned_batch_is_rejected(self):
        engine = StreamEngine(split_config())
        with pytest.raises(ValueError):
            engine.ingest_many(0, np.zeros(3), np.zeros(2))
        with pytest.raises(ValueError):
            engine.ingest_many(np.zeros(2, dtype=int), np.zeros(3), np.zeros(3))


# -- golden output -------------------------------------------------------------
#
# Every oracle above compares the engine against the batch path or against
# itself.  These digests pin everything an observer sees — bus events, the
# debug event log, registry counters/gauges/meters, and each block's
# snapshot, provisional estimate and window mean before and after the
# final flush — so an engine rewrite that is self-consistent but different
# fails here.  Regenerate only for an intended behaviour change, with
# ``golden_digests(scenario)`` printed from the reference implementation.


def _canonical(obj):
    """Plain JSON data with numpy scalars as Python numbers, floats exact."""
    import dataclasses
    import enum

    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, enum.Enum):
        return _canonical(obj.value)
    if dataclasses.is_dataclass(obj):
        return [
            type(obj).__name__,
            {f.name: _canonical(getattr(obj, f.name))
             for f in dataclasses.fields(obj)},
        ]
    if isinstance(obj, dict):
        return [[_canonical(k), _canonical(v)] for k, v in obj.items()]
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_canonical(v) for v in obj]
    raise TypeError(f"cannot canonicalize {type(obj).__name__}")


def _digest(obj) -> str:
    import hashlib
    import json

    text = json.dumps(_canonical(obj), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _fleet_feed(engine):
    """300 blocks x 270 rounds, one shuffled ``ingest_many`` per round."""
    rng = np.random.default_rng(101)
    n_blocks, n_rounds = 300, 270
    amplitude = np.where(
        np.arange(n_blocks) % 3 == 2, 0.0, rng.uniform(0.1, 0.45, n_blocks)
    )
    phase = rng.uniform(0, 2 * np.pi, n_blocks)
    ids = np.arange(n_blocks) * 7 + 1000
    for r in range(n_rounds):
        t = r * ROUND + rng.uniform(0, ROUND - 1, n_blocks)
        v = (
            0.5
            + amplitude * np.sin(2 * np.pi * t / DAY + phase)
            + 0.03 * rng.standard_normal(n_blocks)
        )
        keep = rng.random(n_blocks) > 0.05
        order = rng.permutation(np.flatnonzero(keep))
        engine.ingest_many(ids[order], t[order], v[order])


def _mixed_arrivals(rng, n, n_blocks, round_s):
    """``arrival_sequences`` drawn from a seeded generator instead."""
    steps = np.array([-5, -3, -1, 0, 1, 1, 1, 2, 2, 3, 40])
    cursor = [0] * n_blocks
    ids, times, values = [], [], []
    for _ in range(n):
        block = int(rng.integers(n_blocks))
        cursor[block] = max(0, cursor[block] + int(rng.choice(steps)))
        time_s = (cursor[block] + rng.uniform(-0.3, 0.3)) * round_s
        value = float(rng.uniform(0.0, 1.0))
        corrupt = int(rng.integers(30))
        if corrupt < 3:
            time_s = NON_FINITE[corrupt]
        elif corrupt < 6:
            value = NON_FINITE[corrupt - 3]
        ids.append(block)
        times.append(time_s)
        values.append(value)
    return np.array(ids), np.array(times), np.array(values)


def _feed_in_splits(rng, ids, times, values, max_batch):
    def feed(engine):
        lo = 0
        while lo < len(times):
            hi = lo + int(rng.integers(1, max_batch + 1))
            engine.ingest_many(ids[lo:hi], times[lo:hi], values[lo:hi])
            lo = hi
    return feed


def _golden_scenario(name):
    """(config, feed) for one pinned scenario."""
    if name == "fleet":
        return StreamConfig.for_days(1.0), _fleet_feed
    if name == "mixed":
        rng = np.random.default_rng(202)
        arrivals = _mixed_arrivals(rng, 3000, 3, HOUR)
        return split_config(), _feed_in_splits(rng, *arrivals, max_batch=40)
    if name == "hopping":
        rng = np.random.default_rng(303)
        config = StreamConfig.for_days(
            1.0, hop_days=0.25, lateness_rounds=2, fill_policy="interp",
            max_fill_gap=3, label_dwell=2,
        )
        n_blocks, n_rounds = 5, 700
        blocks, times, values = [], [], []
        for block in range(n_blocks):
            t, v = diurnal_stream(
                n_rounds * ROUND / DAY, seed=block, amplitude=0.1 * block
            )
            keep = rng.random(len(t)) > 0.15
            gap = rng.integers(0, len(t) - 60)
            keep[gap:gap + 40] = False
            dup = rng.random(len(t)) < 0.05
            t = np.concatenate([t[keep], t[dup] + 30.0])
            v = np.concatenate([v[keep], v[dup] + 0.01])
            blocks.append(np.full(len(t), block))
            times.append(t)
            values.append(v)
        ids = np.concatenate(blocks)
        times = np.concatenate(times)
        values = np.concatenate(values)
        # Delivery in time order, disordered within the two-round slack
        # plus a few stragglers that arrive too late.
        jitter = rng.uniform(0, 2.5 * ROUND, len(times))
        jitter[rng.random(len(times)) < 0.01] = 6 * ROUND
        order = np.argsort(times + jitter, kind="stable")
        return config, _feed_in_splits(
            rng, ids[order], times[order], values[order], max_batch=300
        )
    if name == "long_series":
        times, values = diurnal_stream(3000 * ROUND / DAY, seed=404)
        rng = np.random.default_rng(404)
        keep = rng.random(len(times)) > 0.1
        times, values = times[keep], values[keep]
        dup = rng.random(len(times)) < 0.05
        times = np.concatenate([times, times[dup] + 1.0])
        values = np.concatenate([values, values[dup] - 0.02])
        order = np.argsort(times, kind="stable")

        def feed(engine):
            engine.ingest_many(9, times[order], values[order])

        return StreamConfig.for_days(1.0), feed
    raise KeyError(name)


def _observed_state(engine):
    return [
        (engine.snapshot(b), engine.window_mean(b)) for b in engine.blocks()
    ]


def golden_digests(name):
    from repro.obs import EventLogger, MetricsRegistry

    config, feed = _golden_scenario(name)
    registry = MetricsRegistry()
    log = []
    sink = ListSink()
    engine = StreamEngine(
        config,
        sinks=[sink],
        metrics=registry,
        events=EventLogger(level="debug", ring=log, clock=lambda: 0.0),
    )
    feed(engine)
    before_flush = _observed_state(engine)
    engine.flush(close_partial=True)
    metrics = registry.snapshot()
    return {
        "bus": _digest(sink.events),
        "log": _digest(log),
        "counters": _digest([
            metrics["counters"],
            metrics["gauges"],
            metrics["meters"],
            {k: h["count"] for k, h in metrics["histograms"].items()},
            engine.n_invalid,
        ]),
        "before_flush": _digest(before_flush),
        "after_flush": _digest(_observed_state(engine)),
    }


GOLDEN = {
    "fleet": {
        "bus": "f4e8cceb7b18ad4db7b5c9235aeba67b7c1be77dded73e2223391cb752323014",
        "log": "d6874c4e1f2ced833e2013d6b8697a8881339f0d7823e319112832a0430916ea",
        "counters": "7f28706c749a96daddf39320c6066591bda81a9f8ec1dd4e66ec2aa0e518544c",
        "before_flush": "33bbc84f7182c02fc216e27bd1f420d2effe74128f132a957078ebc25373f9c0",
        "after_flush": "cc8ebe2dc608ca0c57cf5ba24456a29248a96b0e04edbc1990a4b759cc7a3151",
    },
    "mixed": {
        "bus": "dc65c3249b22828fd2398c27260b0293acf1e332266fa1637828632c11d26a2d",
        "log": "a6092217fd5ef7e415bc4ae00a4be9387095c46fdd07d8b2d5a19f283a4c1250",
        "counters": "2d44e3d6b6dbf322b6a4701101ea30f37669d0e2506db8df4013e8cbd41e9a05",
        "before_flush": "1307edf5987cee9e5d2a8063a3625f98cd957b93dfea6d85df5bd8f3b88ed29f",
        "after_flush": "2026a082189085c94ce85ee8cba8c42a82fce7b4c11f27faac1d3cf20ce214d9",
    },
    "hopping": {
        "bus": "26f06604444e884a880e675881e2c941152ef1174fb882f31a9c56275ad62c18",
        "log": "d72a3f16b99982bbe5bae45c68ad9bc6b13a9780ee13160500341ca1d3e3a233",
        "counters": "6f27d1c37aa6b2e84245b6b233da524639d61acfdfe93d48bfb273a0705ae50e",
        "before_flush": "16211e9e7d09248d0dba8f77d8d923a16505bb67b2d3720d621a91233434de80",
        "after_flush": "1275b86dddfdd09b3df31b00425ad027d63e8646c1da8ede6ce2b8a686f85252",
    },
    "long_series": {
        "bus": "07e9bbac06ee944de61a26ef85150e7099192c6a7598f42799613c428634332a",
        "log": "09e142108e74a8d75536baefd47ca068c257c53a2d5aa3dff56e9f5a172ce034",
        "counters": "4fc78e8ca691f45fc241253e3266ec95d09a186871bb5264e40fecb487fd3ac0",
        "before_flush": "7852b112841d34786a9491586bb667c4a419bd4819eea31c9fb800c6f6fcb124",
        "after_flush": "721f70558696bb0b5ae77931f50f9288daf8d53b87b9d7cae0ae8df2c92f277c",
    },
}


class TestGoldenOutput:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_matches_pinned_output(self, name):
        assert golden_digests(name) == GOLDEN[name]
