"""The synthetic diurnal fleet the service ablations stream.

``abl_service`` and ``abl_replication`` drive the same workload shape
through :meth:`repro.serve.ServiceRunner.ingest`; each passes its own
seed, so their recorded outputs stay comparable run over run.
"""

import numpy as np

ROUND = 3600.0
DAY = 86400.0
N_BLOCKS = 96
N_ROUNDS = 96  # 4 days per block


def diurnal_fleet(seed: int, n_blocks: int = N_BLOCKS,
                  n_rounds: int = N_ROUNDS) -> list:
    """Sinusoidal diurnal blocks as ``(block_id, time_s, value)``
    triples in arrival (time, then block) order."""
    rng = np.random.default_rng(seed)
    times = np.arange(n_rounds) * ROUND
    observations = []
    phases = rng.uniform(0.0, 2.0 * np.pi, n_blocks)
    for block_id in range(n_blocks):
        values = (
            0.5
            + 0.4 * np.sin(2.0 * np.pi * times / DAY + phases[block_id])
            + 0.02 * rng.standard_normal(n_rounds)
        )
        observations.extend(
            (block_id, float(times[r]), float(values[r]))
            for r in range(n_rounds)
        )
    observations.sort(key=lambda triple: (triple[1], triple[0]))
    return observations
