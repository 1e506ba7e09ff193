"""Ablation: streaming engine versus batch classification.

Two claims carry the streaming subsystem.  **Parity**: every window the
engine closes must produce a report bit-identical to the batch path
(`clean_observations` + `classify_series`) over the same observations —
on clean streams and on streams degraded by the fault injectors.
**Cost**: streaming ingest beats per-round reclassification.  The engine
does O(1) work per frozen round (ring, held value, running window sum)
and classifies only at window closes, so it must clearly undercut
re-running the batch classifier every round.

The table reports window counts with parity tallies and the per-round
cost of three strategies: streaming ingestion (ring + running window
sum + closes), a naive full rfft of the trailing window every round,
and a naive full reclassification every round.  A fleet row measures
the traffic shape the service sends: every block advances one round
per ``ingest_many`` call, so each call freezes one round of hundreds of
blocks and the rounds that close a window close it for all of them.
"""

import time
from pathlib import Path

import numpy as np

from repro.core.classify import classify_series, reports_equal
from repro.faults import FaultConfig
from repro.faults.plan import FaultPlan
from repro.obs import MetricsRegistry, write_json_snapshot
from repro.stream import (
    ListSink,
    StreamConfig,
    StreamEngine,
    WindowClosed,
    batch_window_report,
)

RESULTS_DIR = Path(__file__).parent / "results"

N_BLOCKS = 12
N_DAYS = 10
FLEET_BLOCKS = 500
FLEET_ROUNDS = 280
FLEET_REPS = 3
SEED = 33
ROUND = 660.0
DAY = 86400.0

FAULTS = FaultConfig(
    round_drop_rate=0.05,
    round_duplicate_rate=0.05,
    gaps_per_day=1.0,
    clock_jitter_s=60.0,
    seed=7,
)


def population():
    """Synthetic per-round streams: two diurnal blocks to one flat."""
    rng = np.random.default_rng(SEED)
    n = int(N_DAYS * DAY / ROUND)
    times = np.arange(n) * ROUND
    streams = {}
    for block in range(N_BLOCKS):
        if block % 3 == 2:
            values = 0.5 + 0.03 * rng.standard_normal(n)
        else:
            amplitude = rng.uniform(0.2, 0.45)
            phase = rng.uniform(0, 2 * np.pi)
            values = (
                0.5
                + amplitude * np.sin(2 * np.pi * times / DAY + phase)
                + 0.02 * rng.standard_normal(n)
            )
        streams[block] = (times, values)
    return streams


def degrade(streams):
    plan = FaultPlan(FAULTS)
    return {
        block: plan.for_block(block).degrade_stream(t, v, ROUND)
        for block, (t, v) in streams.items()
    }


def parity_tally(streams, config, metrics=None):
    """(windows closed, windows whose report+quality match the oracle)."""
    n_windows = n_equal = 0
    for block, (times, values) in streams.items():
        sink = ListSink()
        engine = StreamEngine(config, sinks=[sink], metrics=metrics)
        engine.ingest_many(block, times, values)
        engine.flush()
        for event in sink.of_type(WindowClosed):
            n_windows += 1
            want, want_quality = batch_window_report(
                times, values, event.window_start_round, event.n_rounds,
                config,
            )
            if reports_equal(event.report, want) and event.quality == want_quality:
                n_equal += 1
    return n_windows, n_equal


def per_round_costs(config, times, values):
    """µs/round for streaming ingest vs naive per-round recomputation."""
    n = config.window_rounds

    engine = StreamEngine(config)
    t0 = time.perf_counter()
    engine.ingest_many(0, times, values)
    engine.flush()
    stream_us = (time.perf_counter() - t0) / len(times) * 1e6

    # Naive per-round rfft of the trailing window (amplitude refresh only).
    t0 = time.perf_counter()
    for r in range(n, len(values)):
        np.abs(np.fft.rfft(values[r - n + 1: r + 1]))
    rfft_us = (time.perf_counter() - t0) / (len(values) - n) * 1e6

    # Naive per-round full reclassification, on a subsample for runtime.
    sample = range(n, len(values), 10)
    t0 = time.perf_counter()
    for r in sample:
        classify_series(values[r - n + 1: r + 1], config.round_s,
                        config.classifier)
    reclass_us = (time.perf_counter() - t0) / len(sample) * 1e6

    return stream_us, rfft_us, reclass_us


def fleet_rounds():
    """One ``(ids, times, values)`` batch per round for a block fleet.

    Each block is probed at a fixed offset under half a round, so its
    observation snaps to the nominal round; half the blocks are diurnal.
    """
    rng = np.random.default_rng(SEED + 1)
    ids = np.sort(rng.choice(1 << 24, size=FLEET_BLOCKS, replace=False))
    offset = rng.uniform(-300.0, 300.0, FLEET_BLOCKS)
    base = rng.uniform(0.3, 0.8, FLEET_BLOCKS)
    amplitude = np.where(
        rng.random(FLEET_BLOCKS) < 0.5,
        rng.uniform(0.08, 0.2, FLEET_BLOCKS),
        0.0,
    )
    phase = rng.uniform(0, 2 * np.pi, FLEET_BLOCKS)
    batches = []
    for r in range(FLEET_ROUNDS):
        times = r * ROUND + offset
        values = np.clip(
            base
            + amplitude * np.cos(2 * np.pi * times / DAY + phase)
            + 0.03 * rng.standard_normal(FLEET_BLOCKS),
            0.0,
            1.0,
        )
        batches.append((ids, times, values))
    return batches


def fleet_cost():
    """µs/observation for fleet-shaped ingest (best of ``FLEET_REPS``)."""
    config = StreamConfig.for_days(1.0)
    batches = fleet_rounds()
    best = float("inf")
    for _ in range(FLEET_REPS):
        engine = StreamEngine(config)
        t0 = time.perf_counter()
        for ids, times, values in batches:
            engine.ingest_many(ids, times, values)
        best = min(best, time.perf_counter() - t0)
    return best / (FLEET_BLOCKS * FLEET_ROUNDS) * 1e6


def run_ablation():
    config = StreamConfig.for_days(2.0, hop_days=1.0, label_dwell=1)
    clean = population()
    faulted = degrade(clean)

    # One registry across every engine run: the exported snapshot is the
    # campaign-level telemetry CI uploads as an artifact.
    registry = MetricsRegistry()
    clean_tally = parity_tally(clean, config, metrics=registry)
    faulted_tally = parity_tally(faulted, config, metrics=registry)
    costs = per_round_costs(config, *clean[0]) + (fleet_cost(),)
    return clean_tally, faulted_tally, costs, registry


def test_abl_streaming_parity(benchmark, record_output, trajectory):
    clean_tally, faulted_tally, costs, registry = benchmark.pedantic(
        run_ablation, rounds=1, iterations=1
    )
    stream_us, rfft_us, reclass_us, fleet_us = costs

    RESULTS_DIR.mkdir(exist_ok=True)
    write_json_snapshot(
        RESULTS_DIR / "abl_streaming_parity_metrics.json", registry
    )

    lines = [f"{'streams':>10}{'windows':>9}{'parity':>9}"]
    for name, (n_windows, n_equal) in (
        ("clean", clean_tally),
        ("faulted", faulted_tally),
    ):
        lines.append(f"{name:>10}{n_windows:>9}{f'{n_equal}/{n_windows}':>9}")
    lines.append("")
    lines.append(f"{'per-round strategy':>26}{'us/round':>10}{'rounds/s':>12}")
    for name, us in (
        ("streaming ingest", stream_us),
        ("naive rfft", rfft_us),
        ("naive reclassify", reclass_us),
    ):
        lines.append(f"{name:>26}{us:>10.1f}{1e6 / us:>12.0f}")
    lines.append("")
    lines.append(f"speedup vs naive reclassify: {reclass_us / stream_us:.1f}x")
    lines.append("")
    lines.append(
        f"fleet ingest ({FLEET_BLOCKS} blocks x {FLEET_ROUNDS} rounds, one "
        f"ingest_many per round): {fleet_us:.2f} us/obs, "
        f"{1e6 / fleet_us:.0f} obs/s; naive rfft / fleet: "
        f"{rfft_us / fleet_us:.1f}x"
    )
    record_output("abl_streaming_parity", "\n".join(lines))
    trajectory.record(
        "abl_streaming_parity", "stream_rounds_per_s",
        1e6 / stream_us, unit="rounds/s", kind="throughput",
    )
    trajectory.record(
        "abl_streaming_parity", "reclassify_speedup",
        reclass_us / stream_us, unit="x", kind="ratio",
    )
    trajectory.record(
        "abl_streaming_parity", "fleet_obs_per_s",
        1e6 / fleet_us, unit="obs/s", kind="throughput",
    )

    # Parity is exact, not approximate: every window, clean and faulted.
    assert clean_tally[0] > 0 and clean_tally[1] == clean_tally[0]
    assert faulted_tally[0] > 0 and faulted_tally[1] == faulted_tally[0]
    # Streaming ingest must clearly beat per-round reclassification.
    assert stream_us < reclass_us / 2, (
        f"streaming {stream_us:.1f}us/round vs reclassify "
        f"{reclass_us:.1f}us/round"
    )
    # Fleet-shaped ingest (one round of every block per call) must cost
    # well under one naive rfft per round: a machine-independent ratio.
    assert fleet_us < rfft_us / 5, (
        f"fleet ingest {fleet_us:.2f}us/obs vs naive rfft "
        f"{rfft_us:.1f}us/round"
    )
