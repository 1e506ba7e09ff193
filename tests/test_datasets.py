"""Tests for dataset persistence and the registry."""

import numpy as np
import pytest

from repro.datasets import (
    dataset,
    ensure_measurement,
    list_datasets,
    load_measurement,
    load_world_arrays,
    save_measurement,
    save_world_arrays,
    write_csv,
)
from repro.probing import RoundSchedule
from repro.simulation import WorldConfig, generate_world, measure_world


class TestRegistry:
    def test_paper_datasets_present(self):
        assert set(list_datasets()) == {"S51W", "A12W", "A12J", "A12C", "A16ALL"}

    def test_a16all_weekly_restarts(self):
        schedule = dataset("A16ALL").schedule()
        assert schedule.restart_interval_s == 7 * 86400.0
        assert len(schedule.restart_rounds()) == 4  # 35 days / 1 week

    def test_a12w_schedule(self):
        spec = dataset("A12W")
        schedule = spec.schedule()
        assert schedule.n_days == pytest.approx(35, abs=0.01)
        assert spec.kind == "adaptive"

    def test_vantages_share_world_seed(self):
        assert dataset("A12W").seed == dataset("A12J").seed

    def test_survey_has_no_world_config(self):
        with pytest.raises(ValueError):
            dataset("S51W").world_config()

    def test_adaptive_world_config(self):
        cfg = dataset("A12W").world_config(n_blocks=100)
        assert cfg.n_blocks == 100

    def test_unknown_dataset(self):
        with pytest.raises(KeyError):
            dataset("B99Q")


class TestMeasurementRoundTrip:
    def test_save_load(self, tmp_path):
        world = generate_world(WorldConfig(n_blocks=300, seed=5))
        schedule = RoundSchedule.for_days(3, restart_interval_s=5.5 * 3600)
        m = measure_world(world, schedule)
        path = save_measurement(tmp_path / "m.npz", m)
        loaded = load_measurement(path)
        assert np.array_equal(loaded.labels, m.labels)
        assert np.allclose(loaded.phases, m.phases)
        assert loaded.schedule.n_rounds == schedule.n_rounds
        assert loaded.schedule.restart_interval_s == schedule.restart_interval_s
        assert loaded.fraction_strict() == m.fraction_strict()


class TestWorldRoundTrip:
    def test_save_load_arrays(self, tmp_path):
        world = generate_world(WorldConfig(n_blocks=200, seed=6))
        path = save_world_arrays(tmp_path / "w.npz", world)
        data = load_world_arrays(path)
        assert np.array_equal(data["is_diurnal"], world.is_diurnal)
        assert np.allclose(data["lon"], world.lon)
        assert data["config"].tolist() == [200, 6]

    def test_regenerate_from_config(self, tmp_path):
        """The saved config is enough to rebuild the identical world."""
        world = generate_world(WorldConfig(n_blocks=200, seed=6))
        path = save_world_arrays(tmp_path / "w.npz", world)
        data = load_world_arrays(path)
        n_blocks, seed = data["config"].tolist()
        rebuilt = generate_world(WorldConfig(n_blocks=n_blocks, seed=seed))
        assert np.array_equal(rebuilt.is_diurnal, data["is_diurnal"])


class TestEnsureMeasurement:
    def test_computes_then_caches(self, tmp_path):
        first = ensure_measurement("A16ALL", tmp_path, n_blocks=150)
        cached_files = list(tmp_path.glob("A16ALL-150.npz"))
        assert len(cached_files) == 1
        mtime = cached_files[0].stat().st_mtime_ns
        second = ensure_measurement("A16ALL", tmp_path, n_blocks=150)
        assert cached_files[0].stat().st_mtime_ns == mtime  # not recomputed
        assert np.array_equal(first.labels, second.labels)

    def test_survey_dataset_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ensure_measurement("S51W", tmp_path, n_blocks=10)


class TestCsv:
    def test_write_csv(self, tmp_path):
        path = write_csv(
            tmp_path / "t.csv", ["code", "frac"], [["US", 0.002], ["CN", 0.498]]
        )
        text = path.read_text().strip().splitlines()
        assert text[0] == "code,frac"
        assert text[1] == "US,0.002"
        assert len(text) == 3


class TestObservationStreamReplay:
    """iter_observation_stream replays a checkpoint round by round."""

    @pytest.fixture(scope="class")
    def checkpoint(self, tmp_path_factory):
        from repro.core import BatchConfig, BatchRunner
        from repro.simulation.scenarios import survey_population

        path = tmp_path_factory.mktemp("ckpt") / "batch.npz"
        schedule = RoundSchedule.for_days(3)
        runner = BatchRunner(
            BatchConfig(checkpoint_path=path, checkpoint_every=1)
        )
        batch = runner.run(survey_population(5, seed=0), schedule, seed=0)
        return path, schedule, batch

    def test_yields_every_measured_round(self, checkpoint):
        from repro.datasets import iter_observation_stream

        path, schedule, batch = checkpoint
        measured = [m for m in batch.measurements if not m.skipped]
        rows = list(iter_observation_stream(path))
        assert len(rows) == len(measured) * schedule.n_rounds
        block_ids = {block_id for block_id, _, _ in rows}
        assert block_ids == {m.block_id for m in measured}

    def test_values_match_measurement(self, checkpoint):
        from repro.datasets import iter_observation_stream

        path, schedule, batch = checkpoint
        measured = [m for m in batch.measurements if not m.skipped]
        first = measured[0]
        rows = [
            (t, v)
            for block_id, t, v in iter_observation_stream(path)
            if block_id == first.block_id
        ]
        times, values = zip(*rows)
        np.testing.assert_array_equal(times, schedule.times())
        np.testing.assert_array_equal(values, first.a_short)

    def test_interleave_orders_by_round(self, checkpoint):
        from repro.datasets import iter_observation_stream

        path, schedule, batch = checkpoint
        rows = list(iter_observation_stream(path, interleave=True))
        times = [t for _, t, _ in rows]
        # Non-decreasing times: every block's round r before any r+1.
        assert all(a <= b for a, b in zip(times, times[1:]))
        n_blocks = len({b for b, _, _ in rows})
        assert times[:n_blocks].count(times[0]) == n_blocks

    def test_include_skipped(self, checkpoint):
        from repro.datasets import iter_observation_stream

        path, schedule, batch = checkpoint
        n_all = sum(1 for _ in iter_observation_stream(path, include_skipped=True))
        n_measured = sum(1 for _ in iter_observation_stream(path))
        n_skipped = sum(1 for m in batch.measurements if m.skipped)
        assert n_all - n_measured == n_skipped * schedule.n_rounds

    def test_series_selection(self, checkpoint):
        from repro.datasets import iter_observation_stream

        path, schedule, batch = checkpoint
        measured = [m for m in batch.measurements if not m.skipped]
        first = measured[0]
        values = [
            v
            for block_id, _, v in iter_observation_stream(
                path, series="true_availability"
            )
            if block_id == first.block_id
        ]
        np.testing.assert_array_equal(values, first.true_availability)

    def test_feeds_streaming_engine(self, checkpoint):
        from repro.core.classify import reports_equal
        from repro.datasets import iter_observation_stream
        from repro.stream import (
            ListSink,
            StreamConfig,
            StreamEngine,
            WindowClosed,
            batch_window_report,
        )

        path, schedule, batch = checkpoint
        config = StreamConfig.for_days(
            1.0, start_s=schedule.start_s, label_dwell=1
        )
        sink = ListSink()
        engine = StreamEngine(config, sinks=[sink])
        stream = list(iter_observation_stream(path, interleave=True))
        engine.ingest_many(*(np.array(col) for col in zip(*stream)))
        n = len(stream)
        engine.flush()
        assert n > 0
        measured = {
            m.block_id: m for m in batch.measurements if not m.skipped
        }
        closes = sink.of_type(WindowClosed)
        assert closes
        for event in closes:
            times, values = measured[event.block_id].observation_stream()
            want, want_q = batch_window_report(
                times, values, event.window_start_round, event.n_rounds, config
            )
            assert reports_equal(event.report, want)
            assert event.quality == want_q
