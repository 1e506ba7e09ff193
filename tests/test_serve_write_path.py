"""The single write path: one ``ingest`` at every replication factor.

An observation at R=1 is a replica chain of length one: it carries a
destination seq, goes through the same hint and rejoin-sync code, and
its shards' RPCs overlap like any fan-out.  These tests pin the
properties that path must keep:

* only copies of *accepted* observations are hinted, so a shard dying
  mid-RPC with no other live replica rejects the batch cleanly;
* one request spanning two shards costs about one shard's RPC, not
  the sum (checked with a fixed injected delay, independent of CPUs);
* concurrent writers keep every shard's seq stream in assignment
  order, so verdicts match the batch oracle and replicas agree;
* a replica rejoining while writes are in flight misses none of them,
  and gets hints parked at several holders in seq order.
"""

import threading
import time

import pytest

from repro.core.retry import RetryPolicy
from repro.faults import arm, disarm
from repro.obs import MetricsRegistry
from repro.serve import ServiceRunner
from repro.stream.journal import StreamJournal, read_journal

from tests.test_serve_service import (
    N_BLOCKS,
    WINDOW,
    interleaved,
    oracle_report,
    service_config,
)


@pytest.fixture(autouse=True)
def _disarm_after_test():
    yield
    disarm()


def slow_settle(monkeypatch, delay_s: float) -> None:
    """Make every shard ingest RPC take at least ``delay_s``.

    Patched in this process before the shards fork, so every worker
    inherits it; the journal write-ahead ``settle`` runs once per
    ingest RPC.
    """
    settle = StreamJournal.settle

    def delayed(self):
        time.sleep(delay_s)
        return settle(self)

    monkeypatch.setattr(StreamJournal, "settle", delayed)


def two_shard_batch(runner, round_index: int) -> list:
    """One observation for a block on each of the two shards."""
    blocks = {}
    for block_id in range(64):
        blocks.setdefault(runner.owner(block_id), block_id)
    assert len(blocks) == 2
    return [
        (block_id, float(round_index) * 3600.0, 0.5)
        for block_id in blocks.values()
    ]


@pytest.mark.watchdog(120)
@pytest.mark.parametrize("replication", [1, 2])
def test_shard_death_mid_rpc_rejects_without_hinting(tmp_path, replication):
    """A batch no replica acked is rejected, and nothing is hinted.

    At R=1 the single owner dies after journaling the batch; at R=2
    the other replica was already dead, so the planned hint would have
    had no live holder either.  Neither may count a dropped hint or
    mark a shard stale for data the client was told was rejected.
    """
    registry = MetricsRegistry()
    runner = ServiceRunner(
        service_config(
            tmp_path,
            replication=replication,
            respawn_backoff=RetryPolicy(base_delay_s=120.0),
        ),
        metrics=registry,
    )
    # Armed before the shards fork, so every worker inherits it; the
    # marker makes the death exactly-once across workers and respawns.
    arm("serve.shard.journaled", action="exit",
        marker=tmp_path / "crash-marker")
    try:
        runner.start()
        chain = runner.owners(5)
        for dead in chain[1:]:
            runner.kill_shard(dead)
        report = runner.ingest([(5, 0.0, 0.5), (5, 3600.0, 0.6)])
        assert (tmp_path / "crash-marker").exists()
        assert report["accepted"] == 0 and report["rejected"] == 2
        assert report["down"] and report["hinted"] == 0
        assert report["shards"][chain[0]]["reason"] == "shard_down"
        fleet = runner.fleet_snapshot()
        assert not any(e["stale"] for e in fleet["shards"].values())
        assert fleet["hint_backlog"] == 0
        dropped = registry.counter("service_hints_total", outcome="dropped")
        assert dropped.value == 0
    finally:
        runner.stop(drain=False)


@pytest.mark.watchdog(120)
@pytest.mark.parametrize("replication", [1, 2])
def test_two_shard_ingest_overlaps_rpcs(tmp_path, monkeypatch, replication):
    """Per-shard dispatch is concurrent at every R: a request spanning
    two shards whose RPCs each take ``d`` finishes in about ``d``."""
    delay_s = 0.2
    slow_settle(monkeypatch, delay_s)
    runner = ServiceRunner(
        service_config(tmp_path, replication=replication)
    )
    try:
        runner.start()
        assert runner.ingest(two_shard_batch(runner, 0))["rejected"] == 0
        elapsed = []
        for r in range(1, 4):
            t0 = time.perf_counter()
            report = runner.ingest(two_shard_batch(runner, r))
            elapsed.append(time.perf_counter() - t0)
            assert report["accepted"] == 2
            assert len(report["shards"]) == 2
        # Sequential dispatch takes >= 2d on every attempt; the best
        # of three absorbs scheduler noise without hiding that.
        assert min(elapsed) < 1.5 * delay_s, elapsed
    finally:
        runner.stop(drain=False)


def run_writers(runner, n_rounds: int, start_round: int = 0,
                on_round=None) -> list:
    """Four threads, each streaming its own two blocks round by round."""
    series = interleaved(n_rounds, start_round)
    reports: list = []
    errors: list = []

    def writer(blocks):
        try:
            for r in range(start_round, start_round + n_rounds):
                batch = [
                    t for t in series
                    if t[0] in blocks and t[1] == r * 3600.0
                ]
                reports.append(runner.ingest(batch))
                if on_round is not None and blocks[0] == 0:
                    on_round(r)
        except Exception as error:  # surfaced by the assert below
            errors.append(error)

    threads = [
        threading.Thread(target=writer, args=((b, b + 1),))
        for b in range(0, N_BLOCKS, 2)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, errors
    return reports


def assert_oracle_parity(runner, n_rounds: int) -> None:
    runner.flush()
    for block_id in range(N_BLOCKS):
        snapshot = runner.query_block(block_id)
        expected = oracle_report(block_id, n_rounds, WINDOW)
        assert snapshot["last_report"] == expected, block_id


@pytest.mark.watchdog(120)
@pytest.mark.parametrize("replication", [1, 2])
def test_concurrent_writers_keep_seq_order(tmp_path, replication):
    config = service_config(tmp_path, replication=replication)
    runner = ServiceRunner(config)
    try:
        runner.start()
        reports = run_writers(runner, 2 * WINDOW)
        assert all(r["rejected"] == 0 for r in reports)
        assert_oracle_parity(runner, 2 * WINDOW)
    finally:
        runner.stop(drain=True)
    journals = [
        read_journal(config.journal_path(shard_id))[0]
        for shard_id in range(config.n_shards)
    ]
    assert sum(len(j) for j in journals) == (
        replication * N_BLOCKS * 2 * WINDOW
    )
    for records in journals:
        # Every destination stream arrived in assignment order, gap-free.
        assert [rec.seq for rec in records] == list(
            range(1, len(records) + 1)
        )
    if replication == 2:
        assert journals[0] == journals[1]


@pytest.mark.watchdog(180)
def test_rejoin_under_concurrent_writes_misses_nothing(tmp_path, monkeypatch):
    """A replica killed and rejoined while writers keep several
    requests in flight ends bit-identical to its peer: the rejoin sync
    forwards every hint in seq order and waits out in-flight writes."""
    slow_settle(monkeypatch, 0.01)
    config = service_config(tmp_path, replication=2)
    runner = ServiceRunner(config, metrics=MetricsRegistry())
    victim = runner.owner(0)

    def kill_once(r: int) -> None:
        if r == WINDOW // 2:
            runner.kill_shard(victim)

    try:
        runner.start()
        reports = run_writers(runner, 2 * WINDOW, on_round=kill_once)
        assert all(r["rejected"] == 0 for r in reports)
        assert any(r["degraded"] for r in reports)
        assert runner.wait_healthy(timeout_s=60.0)
        assert_oracle_parity(runner, 2 * WINDOW)
        fleet = runner.fleet_snapshot()
        assert fleet["shards"][str(victim)]["respawns"] >= 1
        assert fleet["hint_backlog"] == 0
        assert not any(e["stale"] for e in fleet["shards"].values())
    finally:
        runner.stop(drain=True)
    journals = [
        read_journal(config.journal_path(shard_id))[0]
        for shard_id in range(config.n_shards)
    ]
    assert len(journals[0]) == N_BLOCKS * 2 * WINDOW
    assert journals[0] == journals[1]


@pytest.mark.watchdog(120)
def test_rejoin_forwards_hints_from_two_holders_in_seq_order(tmp_path):
    """With three shards a dead replica's hints sit at two holders,
    each holding more than one sync round's peek: the forward must
    never run past a seq still parked at the other holder, or the
    rejoined shard's seq mask would drop it."""
    config = service_config(
        tmp_path,
        n_shards=3,
        replication=2,
        max_batch=8,
        respawn_backoff=RetryPolicy(base_delay_s=2.0, jitter=0.0),
    )
    runner = ServiceRunner(config)
    series = interleaved(WINDOW)
    try:
        runner.start()
        victim = runner.owner(0)
        runner.kill_shard(victim)
        report = runner.ingest(series)
        assert report["rejected"] == 0 and report["hinted"] > 0
        held = [
            entry["stats"]["hint_backlog"]
            for entry in runner.fleet_snapshot()["shards"].values()
            if entry["healthy"]
        ]
        assert sorted(held)[0] > config.max_batch, held
        assert runner.wait_healthy(timeout_s=60.0)
        assert runner.fleet_snapshot()["hint_backlog"] == 0
    finally:
        runner.stop(drain=True)
    records, _ = read_journal(config.journal_path(victim))
    owed = [t for t in series if victim in runner.owners(t[0])]
    assert [(r.block_id, r.time_s, r.value) for r in records] == owed
