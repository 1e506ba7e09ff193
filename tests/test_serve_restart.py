"""Service start and restart: parallel recovery, failure cleanup, timing.

``ServiceRunner.start`` spawns every shard before it waits on any, so
the shards replay their journals in parallel.  A shard that cannot
recover (here: a journal with a bad magic, which needs an operator,
not a retry) makes ``start`` raise, and no worker it spawned may be
left running.  Each worker times its own recovery; the runner exports
that as ``service_shard_recovery_seconds`` at start and on respawn.
"""

import json
import multiprocessing

import pytest

from repro.obs import MetricsRegistry
from repro.serve import ServiceConfig, ServiceRunner, ShardDownError
from repro.stream.engine import StreamConfig

ROUND = 3600.0
WINDOW = 24
N_BLOCKS = 6


def service_config(tmp_path, **overrides) -> ServiceConfig:
    defaults = dict(
        stream=StreamConfig(window_rounds=WINDOW, round_s=ROUND),
        journal_dir=tmp_path / "journals",
        n_shards=2,
        seed=5,
        shard_deadline_s=10.0,
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def observations(n_rounds: int):
    return [
        (block_id, r * ROUND, 0.5 + 0.01 * block_id)
        for r in range(n_rounds)
        for block_id in range(N_BLOCKS)
    ]


def shard_children():
    return [
        p for p in multiprocessing.active_children()
        if p.name.startswith("serve-shard-")
    ]


@pytest.mark.watchdog(120)
@pytest.mark.parametrize("bad_shard", [0, 1])
def test_failed_recovery_stops_every_spawned_worker(tmp_path, bad_shard):
    config = service_config(tmp_path)
    # A healthy journal for the other shard, so its worker really
    # recovers (and is alive) while the bad one fails.
    first = ServiceRunner(config)
    first.start()
    first.ingest(observations(WINDOW))
    first.stop(drain=True)
    config.journal_path(bad_shard).write_bytes(b"NOPE" + bytes(60))
    assert shard_children() == []

    runner = ServiceRunner(config)
    spawned = []
    spawn = runner._spawn

    def recording_spawn(shard_id):
        client = spawn(shard_id)
        spawned.append(client)
        return client

    runner._spawn = recording_spawn
    with pytest.raises(ShardDownError):
        runner.start()
    assert len(spawned) == config.n_shards
    assert not any(client.alive for client in spawned)
    assert shard_children() == []
    assert not runner.running


@pytest.mark.watchdog(180)
def test_recovery_time_is_reported_and_exported(tmp_path):
    config = service_config(tmp_path)
    first = ServiceRunner(config)
    first.start()
    first.ingest(observations(2 * WINDOW))
    first.stop(drain=True)

    metrics = MetricsRegistry()
    runner = ServiceRunner(config, metrics=metrics)
    try:
        ready = runner.start()
        assert sum(info["n_replayed"] for info in ready.values()) == (
            N_BLOCKS * 2 * WINDOW
        )
        for info in ready.values():
            assert 0.0 < info["recovery_s"] < 60.0
        hist = metrics.histogram("service_shard_recovery_seconds")
        assert hist.count == config.n_shards
        assert hist.sum == pytest.approx(
            sum(info["recovery_s"] for info in ready.values())
        )
        assert "service_shard_recovery_seconds_count 2" in (
            runner.metrics_text()
        )

        runner.kill_shard(1)
        assert runner.wait_healthy(60.0)
        assert hist.count == config.n_shards + 1
    finally:
        runner.stop(drain=True)
    manifest = json.loads(
        (config.journal_path(0).parent / "service-manifest.json").read_text()
    )
    timing = manifest["stage_timings"]["service_shard_recovery_seconds"]
    assert timing["count"] == config.n_shards + 1
