"""Dense round rings for streaming ingestion, one row per block.

:class:`RoundStore` is the streaming counterpart of
:func:`repro.core.timeseries.observations_to_grid` for many blocks at
once.  Each block owns a *slot*: one row of ``[slots × capacity]``
arrays holding rounds ``[base, base + capacity)`` (round ``r`` in column
``r % capacity``) — the winning value, the timestamp that won it,
whether the round was observed, and how many extra observations landed
on it.  A batch lands in one :meth:`RoundStore.scatter`: duplicates
resolve most-recent-wins by timestamp with arrival order breaking ties,
exactly like the batch path's stable time sort.  Materializing a window
is a row gather plus the batch path's
:func:`~repro.core.timeseries.fill_gaps`, with the same
:class:`~repro.core.timeseries.QualityReport` bookkeeping.  Callers
register extra per-slot columns, so every per-block array grows
together.  :class:`RoundWindow` is a one-slot store with scalar methods.
"""

from __future__ import annotations

import numpy as np

from repro.core.timeseries import QualityReport, fill_gaps, longest_nan_run

__all__ = ["RoundStore", "RoundWindow"]


class RoundStore:
    """Per-slot round rings plus caller-registered per-slot columns.

    ``columns`` are ``(name, dtype, fill, width)`` tuples: ``width=None``
    makes a per-slot vector, an int a ``[slots × width]`` matrix.  Each
    column is an attribute, valid below ``n_slots``; growth replaces the
    arrays, so re-read attributes after :meth:`add_slot`.
    """

    def __init__(self, capacity: int, columns=()) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.n_slots = 0
        self._columns = (
            ("values", np.float64, np.nan, capacity),
            ("obs_time", np.float64, -np.inf, capacity),
            ("observed", np.bool_, False, capacity),
            ("duplicates", np.int32, 0, capacity),
            ("base", np.int64, 0, None),
            ("max_round", np.int64, -1, None),
            *columns,
        )
        for name, dtype, _, width in self._columns:
            shape = (0,) if width is None else (0, width)
            setattr(self, name, np.empty(shape, dtype))

    def add_slot(self, **initial) -> int:
        """A fresh slot: no observed rounds, column fills or ``initial``."""
        slot = self.n_slots
        if slot == len(self.base):
            # Geometric growth; rows past ``n_slots`` stay untouched (and
            # unpaged) until a slot claims them.
            for name, dtype, _, _ in self._columns:
                old = getattr(self, name)
                new = np.empty((max(8, 2 * slot),) + old.shape[1:], dtype)
                new[:slot] = old
                setattr(self, name, new)
        for name, _, fill, _ in self._columns:
            getattr(self, name)[slot] = initial.get(name, fill)
        self.n_slots = slot + 1
        return slot

    def scatter(self, slots, rounds, times, values, distinct=False) -> None:
        """Record observations given in arrival order (most-recent-wins).

        Each round must lie in its slot's ring; the caller checks.
        ``distinct`` promises one observation per slot, skipping the
        sort that groups duplicates.
        """
        counts = 1
        distinct = distinct or len(slots) == 1
        if not distinct:
            # Within a (slot, round) the last entry has the newest time
            # and, among equal times, the latest arrival.
            order = np.lexsort((times, rounds, slots))
            slots, rounds = slots[order], rounds[order]
            last = np.ones(len(slots), dtype=bool)
            last[:-1] = (rounds[1:] != rounds[:-1]) | (slots[1:] != slots[:-1])
            ends = np.flatnonzero(last)
            counts = np.diff(ends, prepend=-1)
            slots, rounds = slots[ends], rounds[ends]
            times, values = times[order][ends], values[order][ends]
        at = slots * self.capacity + rounds % self.capacity
        observed, obs_time = self.observed.ravel(), self.obs_time.ravel()
        seen = observed[at]
        # ``>=``: a same-timestamp later arrival wins.
        wins = ~seen | (times >= obs_time[at])
        self.duplicates.ravel()[at] += counts - 1 + seen
        observed[at] = True
        self.values.ravel()[at] = np.where(wins, values, self.values.ravel()[at])
        obs_time[at] = np.where(wins, times, obs_time[at])
        if distinct:
            self.max_round[slots] = np.maximum(self.max_round[slots], rounds)
        else:
            np.maximum.at(self.max_round, slots, rounds)

    def evict(self, slots, new_base) -> None:
        """Clear each (distinct) slot's rounds below ``new_base`` and
        advance its base; a lower ``new_base`` leaves a slot as it is."""
        old = self.base[slots]
        span = np.minimum(new_base - old, self.capacity)
        if not (span > 0).any():
            return
        k = np.arange(self.capacity)
        clear = k < span[:, None]
        at = (slots * self.capacity)[:, None] + (old[:, None] + k) % self.capacity
        at = at[clear]
        self.observed.ravel()[at] = False
        self.values.ravel()[at] = np.nan
        self.obs_time.ravel()[at] = -np.inf
        self.duplicates.ravel()[at] = 0
        self.base[slots] = base = np.maximum(old, new_base)
        self.max_round[slots] = np.maximum(self.max_round[slots], base - 1)

    def grid(self, slot: int, start: int, n_rounds: int) -> np.ndarray:
        """The raw (unfilled) grid for rounds ``[start, start + n_rounds)``."""
        base = int(self.base[slot])
        if start < base or start + n_rounds > base + self.capacity:
            raise ValueError(
                f"window [{start}, {start + n_rounds}) outside retained "
                f"rounds [{base}, {base + self.capacity})"
            )
        cols = np.arange(start, start + n_rounds) % self.capacity
        return np.where(self.observed[slot, cols], self.values[slot, cols], np.nan)

    def materialize(
        self,
        slot: int,
        start: int,
        n_rounds: int,
        policy: str = "hold",
        max_gap: int | None = None,
    ) -> tuple[np.ndarray, QualityReport]:
        """Grid-and-fill one window, exactly like ``clean_observations``.

        Returns the filled series plus the same :class:`QualityReport`
        the batch cleaning pass would produce for the same observations —
        this is what makes window-close verdicts bit-identical to
        :func:`repro.core.classify.classify_series` on the batch path.
        """
        series = self.grid(slot, start, n_rounds)
        cols = np.arange(start, start + n_rounds) % self.capacity
        n_observed = int(np.count_nonzero(~np.isnan(series)))
        quality = dict(
            n_rounds=n_rounds,
            n_observed=n_observed,
            # Unobserved rounds always hold a duplicate count of 0.
            n_duplicates=int(self.duplicates[slot, cols].sum()),
            longest_gap=longest_nan_run(series) if n_rounds else 0,
        )
        n_filled = 0
        if n_observed:
            series, n_filled = fill_gaps(series, policy=policy, max_gap=max_gap)
        return series, QualityReport(**quality, n_filled=n_filled)


class RoundWindow:
    """One block's sliding grid of rounds ``[base, base + capacity)``: a
    one-slot :class:`RoundStore` behind scalar methods."""

    def __init__(self, capacity: int, base: int = 0) -> None:
        self._store = RoundStore(capacity)
        self._store.add_slot(base=base, max_round=base - 1)
        self.capacity = capacity

    @property
    def base(self) -> int:
        return int(self._store.base[0])

    @property
    def max_round(self) -> int:
        return int(self._store.max_round[0])

    def observe(self, r: int, time_s: float, value: float) -> None:
        """Record one observation for round ``r`` (most-recent-wins)."""
        if r < self.base:
            raise ValueError(f"round {r} is below the ring base {self.base}")
        if r >= self.base + self.capacity:
            raise ValueError(
                f"round {r} is beyond ring capacity "
                f"[{self.base}, {self.base + self.capacity})"
            )
        self._store.scatter(np.array([0]), np.array([r]),
                            np.array([time_s], float), np.array([value], float))

    def value_at(self, r: int) -> float:
        """The winning value for round ``r``; NaN when unobserved."""
        if not self.base <= r < self.base + self.capacity:
            return float("nan")
        return float(self.grid(r, 1)[0])

    def advance_base(self, new_base: int) -> None:
        """Evict every round below ``new_base`` (bounded-memory step)."""
        self._store.evict(np.zeros(1, dtype=np.int64), new_base)

    def grid(self, start: int, n_rounds: int) -> np.ndarray:
        """The raw (unfilled) grid for rounds ``[start, start + n_rounds)``."""
        return self._store.grid(0, start, n_rounds)

    def materialize(self, start: int, n_rounds: int, policy: str = "hold",
                    max_gap: int | None = None):
        """Grid-and-fill one window (see :meth:`RoundStore.materialize`)."""
        return self._store.materialize(0, start, n_rounds, policy, max_gap)
