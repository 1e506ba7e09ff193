"""Seeded workload generator shared by every benchmark workload.

Everything the program under test receives is made here from the
``--seed``: the diurnal probing fleet (block keys, per-block daily
shape, probe offsets), the per-round observation values, the HTTP
bodies, the open-loop send schedules, the Zipf-skewed query keys and
the ``GlobalStudy`` arguments.  The same seed always gives the same
inputs, so a correctness check can regenerate exactly what was sent.

Each workload also records how it loads the system (open or closed
loop, its rates or client count) and why it was chosen; ``run.py``
prints that record with every result.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

ROUND_S = 660.0
DAY_S = 86400.0
# The service runs with ``--window-days 1``: 131 rounds of 660 s.
WINDOW_ROUNDS = int(round(DAY_S / ROUND_S))


@dataclass(frozen=True)
class WorkloadSpec:
    """How one workload drives the system, and why it exists."""

    name: str
    loop: str
    load: str
    why: str
    serve_args: tuple = ()
    params: dict = field(default_factory=dict)

    def describe(self) -> dict:
        return {
            "workload": self.name,
            "loop": self.loop,
            "load": self.load,
            "why": self.why,
            "serve_args": list(self.serve_args),
            "params": dict(self.params),
        }


SPECS = {
    "ingest": WorkloadSpec(
        name="ingest",
        loop="closed",
        load="2 keep-alive connections (two prober sites), each posting one "
             "round of its slice of blocks per POST and waiting for the ack",
        why="the per-observation write path (JSON, ring routing, pipe RPC, "
            "journal, admission, engine) sets throughput and p50; every "
            "block shares the round grid, so window closes land in bursts "
            "that set p99; no reads, no replication, no batch code",
        serve_args=("--window-days", "1", "--quiet"),
        params={"n_blocks": 2000, "n_sites": 2, "slice_blocks": 500},
    ),
    "read_mix": WorkloadSpec(
        name="read_mix",
        loop="open",
        load="one connection sends ingest POSTs at a fixed offered rate; a "
             "second sends GET /blocks/{key}/state over Zipf-skewed keys and "
             "GET /phase-map, each at a fixed rate; latency from due time",
        why="quorum reads make one small RPC per replica, so fixed per-RPC "
            "costs and lock contention with writes dominate; writes take "
            "the R>1 path (seq planning and fan-out pool); set-up is "
            "journal recovery after a restart",
        serve_args=("--window-days", "1", "--quiet", "--replication", "2"),
        params={
            "n_blocks": 300,
            "n_sites": 2,
            "slice_blocks": 100,
            "preload_rounds": WINDOW_ROUNDS + 4,
            "post_rate_per_s": 60.0,
            "query_rate_per_s": 120.0,
            "phase_map_rate_per_s": 4.0,
            "zipf_s": 1.1,
        },
    ),
    "batch_study": WorkloadSpec(
        name="batch_study",
        loop="closed",
        load="GlobalStudy.run called in-process, back to back, on one "
             "seeded world (A12W analogue: 35 days, 5.5-hour restarts)",
        why="the path every paper table and figure shares (fastsim, "
            "estimator, classify_many); it uses none of the service layers, "
            "so a service change predicts no change here and vice versa",
        params={"n_blocks": 3000},
    ),
}


class Fleet:
    """A seeded population of /24 blocks probed once per 660 s round.

    About half the blocks are diurnal (a daily cosine of random phase
    and amplitude on top of a base availability), the rest are flat;
    every block gets Gaussian noise per round.  A block is probed at a
    fixed offset of under half a round from the nominal round time, so
    its observation time ``r * 660 + offset`` snaps to round ``r``.
    Values for round ``r`` depend only on ``(seed, r)``, so any round
    can be regenerated on its own.
    """

    def __init__(self, seed: int, n_blocks: int) -> None:
        rng = np.random.default_rng([seed, 0x5EED, n_blocks])
        keys = rng.choice(1 << 24, size=n_blocks, replace=False)
        self.seed = seed
        self.keys = np.sort(keys).astype(np.int64)
        self.n_blocks = n_blocks
        self.offset_s = rng.uniform(-300.0, 300.0, n_blocks)
        self.base = rng.uniform(0.3, 0.8, n_blocks)
        diurnal = rng.random(n_blocks) < 0.5
        self.amplitude = np.where(
            diurnal, rng.uniform(0.08, 0.2, n_blocks), 0.0
        )
        self.phase = rng.uniform(0.0, 2.0 * math.pi, n_blocks)
        self.noise = rng.uniform(0.01, 0.05, n_blocks)
        self._rounds: dict[int, np.ndarray] = {}

    def times(self, r: int) -> np.ndarray:
        return r * ROUND_S + self.offset_s

    def values(self, r: int) -> np.ndarray:
        """Every block's observed availability in round ``r``."""
        cached = self._rounds.get(r)
        if cached is not None:
            return cached
        rng = np.random.default_rng([self.seed, 0xB10C, r])
        t = self.times(r)
        v = (
            self.base
            + self.amplitude * np.cos(2.0 * math.pi * t / DAY_S + self.phase)
            + rng.normal(0.0, 1.0, self.n_blocks) * self.noise
        )
        v = np.clip(v, 0.0, 1.0)
        self._rounds[r] = v
        return v

    def slices(self, slice_blocks: int) -> list[np.ndarray]:
        """Block index ranges that one POST per round carries."""
        return [
            np.arange(i, min(i + slice_blocks, self.n_blocks))
            for i in range(0, self.n_blocks, slice_blocks)
        ]

    def body(self, idx: np.ndarray, r: int) -> bytes:
        """The ``POST /observations`` body for one slice and round."""
        keys = self.keys[idx].tolist()
        times = self.times(r)[idx].tolist()
        values = self.values(r)[idx].tolist()
        return json.dumps(
            {"observations": [list(o) for o in zip(keys, times, values)]}
        ).encode()

    def series(self, i: int, rounds: range) -> tuple[np.ndarray, np.ndarray]:
        """(times, values) block ``i`` was sent over ``rounds``."""
        times = np.array([r * ROUND_S + self.offset_s[i] for r in rounds])
        values = np.array([self.values(r)[i] for r in rounds])
        return times, values


def expected_closes(last_round: int) -> int:
    """Windows the engine has closed once rounds ``0..last_round`` arrived.

    With no lateness slack the newest round stays open, so the window
    ending at round ``e`` closes when round ``e + 1`` arrives.
    """
    return max(last_round, 0) // WINDOW_ROUNDS


def zipf_keys(fleet: Fleet, n: int, s: float, seed: int) -> np.ndarray:
    """``n`` block keys drawn with Zipf(``s``) skew over a seeded ranking."""
    rng = np.random.default_rng([seed, 0x21BF])
    ranking = rng.permutation(fleet.n_blocks)
    weights = 1.0 / np.arange(1, fleet.n_blocks + 1) ** s
    picks = rng.choice(fleet.n_blocks, size=n, p=weights / weights.sum())
    return fleet.keys[ranking[picks]]


def schedule(rate_per_s: float, seconds: float, start: float = 0.0) -> np.ndarray:
    """Evenly spaced due times (seconds from load start) at ``rate_per_s``."""
    n = int(rate_per_s * seconds)
    return start + np.arange(n) / rate_per_s


def study_args(seed: int) -> dict:
    """``GlobalStudy.run`` keyword arguments for ``batch_study``."""
    return {
        "n_blocks": SPECS["batch_study"].params["n_blocks"],
        "seed": seed,
        "days": 35.0,
        "restart_interval_s": 5.5 * 3600.0,
    }
