"""Correctness checks run after every measured phase.

Service workloads: every checked block's served ``last_report`` must
equal ``repro.stream.engine.batch_window_report`` over the same
generated rounds, its window and observation counts must match what
the generator fed, and the served phase map must carry exactly the
diurnal ones with the same phase.  ``batch_study``: per-block labels
and phases of a seeded chunk must equal a reference rebuilt from the
public fastsim/estimator stages and classified one series at a time
with ``classify_series`` (the oracle ``classify_many`` is tested
against), and every repetition must give the same label counts and
phase digest.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from workloads import ROUND_S, WINDOW_ROUNDS, expected_closes


def _report_json(report) -> dict:
    """The report exactly as the service serializes it."""
    from repro.serve.shard import snapshot_to_dict

    flat = snapshot_to_dict({"last_report": report})["last_report"]
    return json.loads(json.dumps(flat, separators=(",", ":")))


def check_blocks(fleet, indices, last_round: dict, states: dict,
                 phase_map: dict | None) -> list[str]:
    """Compare served block states with the batch oracle.

    ``last_round[i]`` is the newest round fed to block ``i``;
    ``states[i]`` the parsed ``GET /blocks/{key}/state`` body.
    """
    from repro.stream.engine import StreamConfig, batch_window_report

    config = StreamConfig.for_days(1.0, round_s=ROUND_S)
    problems = []
    for i in indices:
        key = int(fleet.keys[i])
        state = states.get(i)
        if state is None:
            problems.append(f"block {key}: no state served")
            continue
        m = last_round[i]
        closes = expected_closes(m)
        if state["n_observations"] != m + 1:
            problems.append(
                f"block {key}: {state['n_observations']} observations "
                f"applied, {m + 1} fed")
        if state["n_closed"] != closes:
            problems.append(
                f"block {key}: {state['n_closed']} windows closed, "
                f"expected {closes}")
            continue
        if closes == 0:
            continue
        start = (closes - 1) * WINDOW_ROUNDS
        times, values = fleet.series(i, range(start, start + WINDOW_ROUNDS))
        report, _ = batch_window_report(
            times, values, start, WINDOW_ROUNDS, config
        )
        expected = _report_json(report)
        if state["last_report"] != expected:
            problems.append(
                f"block {key}: served {state['last_report']} != "
                f"batch {expected}")
        if phase_map is not None:
            entry = phase_map.get(str(key))
            if report.label.is_diurnal:
                if entry is None or entry["phase"] != expected["phase"]:
                    problems.append(f"block {key}: phase map {entry} != "
                                    f"report phase {expected['phase']}")
            elif entry is not None:
                problems.append(f"block {key}: non-diurnal in phase map")
    return problems


def study_digest(study) -> dict:
    """Label counts and a digest of every block's phase bits."""
    m = study.measurement
    codes, counts = np.unique(m.labels, return_counts=True)
    digest = hashlib.sha256()
    digest.update(m.labels.tobytes())
    digest.update(np.ascontiguousarray(m.phases).tobytes())
    return {
        "label_counts": {int(c): int(n) for c, n in zip(codes, counts)},
        "phase_digest": digest.hexdigest()[:16],
    }


def check_study_chunk(study, chunk: int, chunk_size: int = 2000) -> list[str]:
    """Rebuild one measurement chunk from the public stages and compare.

    Mirrors ``measure_world``'s documented defaults (2000-block chunks,
    5% missing rounds, 0.08 history error, seed ``world seed + 7777``
    spawned per chunk) and classifies each row with the scalar
    ``classify_series``.
    """
    from repro.core.classify import (ClassifierConfig, DiurnalBatch,
                                     classify_series)
    from repro.core.estimator import EstimatorConfig, estimate_series
    from repro.core.timeseries import trim_to_midnight
    from repro.simulation.fastsim import (adaptive_counts, apply_restart_bias,
                                          designed_mean_availability,
                                          synthesize_availability)

    world, schedule, m = study.world, study.schedule, study.measurement
    n = world.n_blocks
    n_chunks = (n + chunk_size - 1) // chunk_size
    children = np.random.SeedSequence(world.config.seed + 7_777).spawn(n_chunks)
    rng = np.random.default_rng(children[chunk])
    idx = np.arange(chunk * chunk_size, min((chunk + 1) * chunk_size, n))
    times = schedule.times()
    restarts = schedule.restart_rounds()
    a_true = synthesize_availability(world, idx, times, rng)
    a_probed = apply_restart_bias(a_true, restarts, rng)
    positives, totals = adaptive_counts(a_probed, rng, missing_fraction=0.05)
    a_init = np.clip(
        designed_mean_availability(world)[idx]
        + rng.normal(0.0, 0.08, len(idx)), 0.02, 0.99,
    )
    series = estimate_series(positives, totals, EstimatorConfig(),
                             restart_rounds=restarts,
                             initial_availability=a_init)
    trim = trim_to_midnight(times, schedule.round_s)
    config = ClassifierConfig()
    problems = []
    for row, i in enumerate(idx):
        report = classify_series(series.a_short[row, trim], schedule.round_s,
                                 config)
        label = DiurnalBatch.LABEL_CODES[report.label]
        if label != m.labels[i]:
            problems.append(f"block {i}: label {m.labels[i]} != {label}")
        elif report.label.is_diurnal and report.phase != m.phases[i]:
            problems.append(f"block {i}: phase {m.phases[i]} != "
                            f"{report.phase}")
        if len(problems) >= 10:
            break
    return problems
