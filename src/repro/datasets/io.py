"""On-disk persistence for worlds, measurements, tables, and checkpoints.

Every writer here is **crash-safe** and every loader is **corruption-
safe**, because multi-week campaigns die in the worst places:

* writes go to a temp file in the target directory, are flushed and
  ``fsync``-ed, then published with ``os.replace`` (and a directory
  fsync), so a reader can only ever observe the old complete file or
  the new complete file — never a torn one;
* archives embed a schema version and a SHA-256 digest of their
  contents; loaders verify both before reconstructing anything, so a
  truncated, bit-flipped, or stale file surfaces as a typed
  :class:`CorruptCheckpointError` / :class:`CheckpointVersionError`
  naming the file — never as numpy garbage or an opaque ``KeyError``;
* corrupt files are **quarantined**: renamed aside to
  ``<name>.quarantine.<n>`` so the damaged bytes are preserved for
  forensics and a resumed run can never load them again.

Crash points (:func:`repro.faults.crash.crashpoint`) mark the
atomic-write windows so the chaos harness can kill a run mid-write and
assert that resume is bit-identical.
"""

from __future__ import annotations

import csv
import hashlib
import os
from pathlib import Path

import numpy as np

from repro.faults.crash import crashpoint
from repro.obs.registry import NULL_REGISTRY
from repro.probing.rounds import RoundSchedule
from repro.simulation.fastsim import FastMeasurement
from repro.simulation.internet import InternetWorld

__all__ = [
    "CheckpointVersionError",
    "CorruptCheckpointError",
    "atomic_write_text",
    "ensure_measurement",
    "iter_observation_stream",
    "load_batch_checkpoint",
    "load_measurement",
    "load_world_arrays",
    "save_batch_checkpoint",
    "save_measurement",
    "save_world_arrays",
    "set_metrics",
    "write_csv",
]


class CorruptCheckpointError(ValueError):
    """A durable archive failed integrity or shape validation.

    Raised (instead of propagating numpy/zip internals) whenever a
    ``.npz`` written by this module cannot be loaded exactly as saved.
    ``quarantined_to`` is the path the damaged file was renamed to, or
    None when quarantine was disabled or impossible.
    """

    def __init__(
        self,
        path: str | Path,
        reason: str,
        quarantined_to: Path | None = None,
    ) -> None:
        message = f"{path} is corrupt or unreadable: {reason}"
        if quarantined_to is not None:
            message += f" (quarantined to {quarantined_to})"
        super().__init__(message)
        self.path = Path(path)
        self.reason = reason
        self.quarantined_to = quarantined_to


class CheckpointVersionError(CorruptCheckpointError):
    """A durable archive has a schema version this code cannot load.

    The file is intact (or predates digests entirely) but was written
    by a different schema; it is *not* quarantined — rerunning with the
    matching code version, or recomputing, is the fix.
    """

    def __init__(
        self, path: str | Path, found: object, expected: int
    ) -> None:
        ValueError.__init__(
            self,
            f"{path} has schema version {found}, expected {expected}; "
            f"recompute it or load it with the code that wrote it",
        )
        self.path = Path(path)
        self.reason = f"schema version {found}, expected {expected}"
        self.quarantined_to = None
        self.found = found
        self.expected = expected


class _Instruments:
    """Pre-bound persistence metrics (null registry by default)."""

    __slots__ = ("enabled", "saves", "loads", "entries_saved",
                 "entries_loaded", "checkpoint_bytes", "replayed",
                 "corruption", "quarantined")

    def __init__(self, registry) -> None:
        self.enabled = registry.enabled
        self.saves = registry.counter("io_checkpoint_saves_total")
        self.loads = registry.counter("io_checkpoint_loads_total")
        self.entries_saved = registry.counter(
            "io_checkpoint_entries_saved_total"
        )
        self.entries_loaded = registry.counter(
            "io_checkpoint_entries_loaded_total"
        )
        self.checkpoint_bytes = registry.gauge("io_checkpoint_bytes")
        self.replayed = registry.counter("io_replayed_observations_total")
        self.corruption = registry.counter("io_corruption_detected_total")
        self.quarantined = registry.counter("io_files_quarantined_total")


_obs = _Instruments(NULL_REGISTRY)


def set_metrics(registry) -> None:
    """Point this module's persistence metrics at ``registry``.

    Pass ``None`` to turn instrumentation back off.  Usually called
    through :func:`repro.obs.install_metrics`.
    """
    global _obs
    _obs = _Instruments(registry if registry is not None else NULL_REGISTRY)


# --- durable npz container -------------------------------------------------
#
# Every archive carries two reserved keys: "__version__" (per-format
# schema version) and "__digest__" (SHA-256 over every other entry's
# name, dtype, shape, and bytes, in sorted key order).  The digest is
# computed over logical content, not file bytes, so it survives any
# container-level recompression and pinpoints *content* damage.

_VERSION_KEY = "__version__"
_DIGEST_KEY = "__digest__"
_RESERVED_KEYS = (_VERSION_KEY, _DIGEST_KEY)

_MEASUREMENT_VERSION = 2
_WORLD_VERSION = 2
_CHECKPOINT_VERSION = 2


def _content_digest(arrays: dict) -> np.ndarray:
    digest = hashlib.sha256()
    for key in sorted(arrays):
        array = np.ascontiguousarray(arrays[key])
        digest.update(key.encode())
        digest.update(str(array.dtype).encode())
        digest.update(repr(array.shape).encode())
        digest.update(array.tobytes())
    return np.frombuffer(digest.digest(), dtype=np.uint8).copy()


def _fsync_dir(directory: Path) -> None:
    # Persist the rename itself.  Directories cannot be opened for
    # fsync on some platforms; losing that is a durability (not a
    # correctness) concession there.
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _atomic_write(path: Path, kind: str, writer) -> None:
    """Write via temp file + fsync + ``os.replace`` + directory fsync.

    ``writer(handle)`` receives the open binary temp-file handle.  The
    three crash points bracket the publication window for chaos tests.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    crashpoint(f"io.{kind}.begin")
    with open(tmp, "wb") as handle:
        writer(handle)
        handle.flush()
        os.fsync(handle.fileno())
    crashpoint(f"io.{kind}.tmp_written")
    os.replace(tmp, path)
    crashpoint(f"io.{kind}.replaced")
    _fsync_dir(path.parent)


def atomic_write_text(path: str | Path, text: str, kind: str = "text") -> Path:
    """Crash-safe text file publication (temp + fsync + rename).

    The all-or-nothing counterpart of :func:`Path.write_text`, used for
    telemetry artifacts that must never be observed torn — flight
    recorder dumps, manifests written at failure points.  ``kind``
    names the crash-point family (``io.<kind>.begin`` etc.) so chaos
    tests can kill the writer inside the publication window.
    """
    path = Path(path)
    _atomic_write(path, kind, lambda handle: handle.write(text.encode("utf-8")))
    return path


def _save_npz(path: str | Path, kind: str, version: int, arrays: dict) -> Path:
    path = Path(path)
    arrays = dict(arrays)
    arrays[_VERSION_KEY] = np.array([version], dtype=np.int64)
    arrays[_DIGEST_KEY] = _content_digest(arrays)
    _atomic_write(
        path, kind, lambda handle: np.savez_compressed(handle, **arrays)
    )
    return path


def _quarantine(path: Path) -> Path | None:
    """Rename a damaged file aside; returns the new path (None if failed)."""
    for i in range(10_000):
        target = path.with_name(f"{path.name}.quarantine.{i}")
        if target.exists():
            continue
        try:
            os.replace(path, target)
        except OSError:
            return None
        _fsync_dir(path.parent)
        _obs.quarantined.inc()
        return target
    return None


def _load_npz(
    path: str | Path, kind: str, expected_version: int, quarantine: bool
) -> dict:
    """Read, digest-verify, and version-check one durable archive.

    Returns the content arrays with reserved keys stripped.  Damage
    quarantines the file and raises :class:`CorruptCheckpointError`;
    a schema mismatch raises :class:`CheckpointVersionError` and leaves
    the (intact) file in place.
    """
    path = Path(path)
    try:
        with np.load(path, allow_pickle=False) as data:
            arrays = {name: data[name] for name in data.files}
    except FileNotFoundError:
        raise
    except Exception as exc:
        _obs.corruption.inc()
        quarantined_to = _quarantine(path) if quarantine else None
        raise CorruptCheckpointError(
            path,
            f"not a loadable npz archive ({type(exc).__name__}: {exc})",
            quarantined_to,
        ) from exc

    stored_digest = arrays.pop(_DIGEST_KEY, None)
    version = arrays.pop(_VERSION_KEY, None)
    if stored_digest is None or version is None:
        raise CheckpointVersionError(
            path, "pre-durability (no digest)", expected_version
        )
    check = dict(arrays)
    check[_VERSION_KEY] = version
    if not np.array_equal(_content_digest(check), stored_digest):
        _obs.corruption.inc()
        quarantined_to = _quarantine(path) if quarantine else None
        raise CorruptCheckpointError(
            path, f"{kind} content digest mismatch", quarantined_to
        )
    if int(version[0]) != expected_version:
        raise CheckpointVersionError(path, int(version[0]), expected_version)
    return arrays


def _require(condition: bool, path: Path, reason: str) -> None:
    if not condition:
        _obs.corruption.inc()
        raise CorruptCheckpointError(path, reason)


def save_measurement(path: str | Path, measurement: FastMeasurement) -> Path:
    """Save a world measurement as an atomic, checksummed ``.npz``."""
    schedule = measurement.schedule
    return _save_npz(
        path,
        "measurement",
        _MEASUREMENT_VERSION,
        {
            "labels": measurement.labels,
            "phases": measurement.phases,
            "dominant_cycles_per_day": measurement.dominant_cycles_per_day,
            "diurnal_amplitude": measurement.diurnal_amplitude,
            "mean_availability": measurement.mean_availability,
            "schedule": _schedule_to_array(schedule),
        },
    )


_MEASUREMENT_SERIES = (
    "labels",
    "phases",
    "dominant_cycles_per_day",
    "diurnal_amplitude",
    "mean_availability",
)


def load_measurement(
    path: str | Path, quarantine: bool = True
) -> FastMeasurement:
    """Load a measurement previously stored by :func:`save_measurement`.

    Verifies the embedded digest and schema version, then validates
    array shapes up front; any violation raises a typed error naming
    the file instead of surfacing numpy internals downstream.
    """
    path = Path(path)
    data = _load_npz(path, "measurement", _MEASUREMENT_VERSION, quarantine)
    for name in _MEASUREMENT_SERIES + ("schedule",):
        _require(name in data, path, f"missing array {name!r}")
    _require(
        data["schedule"].shape == (4,),
        path,
        f"schedule has shape {data['schedule'].shape}, expected (4,)",
    )
    n = len(data["labels"])
    for name in _MEASUREMENT_SERIES:
        _require(
            data[name].ndim == 1 and len(data[name]) == n,
            path,
            f"{name} has shape {data[name].shape}, expected ({n},)",
        )
    return FastMeasurement(
        labels=data["labels"],
        phases=data["phases"],
        dominant_cycles_per_day=data["dominant_cycles_per_day"],
        diurnal_amplitude=data["diurnal_amplitude"],
        mean_availability=data["mean_availability"],
        schedule=_schedule_from_array(data["schedule"]),
    )


# World fields that round-trip as plain numeric arrays.
_WORLD_NUMERIC = (
    "block_id",
    "country_idx",
    "lat",
    "lon",
    "asn",
    "alloc_year",
    "is_diurnal",
    "n_active",
    "a_high",
    "a_low",
    "onset_frac",
    "uptime_frac",
    "noise_sigma",
    "lease_cpd",
    "lease_amp",
    "lease_phase",
)


def save_world_arrays(path: str | Path, world: InternetWorld) -> Path:
    """Save a world's per-block arrays (not its registry views).

    The generator is deterministic, so ``(n_blocks, seed)`` plus these
    arrays fully describe the dataset; registry views are rebuilt on load
    via :func:`repro.simulation.internet.generate_world`.
    """
    arrays = {name: getattr(world, name) for name in _WORLD_NUMERIC}
    arrays["config"] = np.array([world.config.n_blocks, world.config.seed])
    return _save_npz(path, "world", _WORLD_VERSION, arrays)


def load_world_arrays(path: str | Path, quarantine: bool = True) -> dict:
    """Load world arrays saved by :func:`save_world_arrays`.

    Returns a dict of arrays plus ``n_blocks``/``seed`` under ``config``,
    after digest/version verification and shape validation.
    """
    path = Path(path)
    data = _load_npz(path, "world", _WORLD_VERSION, quarantine)
    for name in _WORLD_NUMERIC + ("config",):
        _require(name in data, path, f"missing array {name!r}")
    _require(
        data["config"].shape == (2,),
        path,
        f"config has shape {data['config'].shape}, expected (2,)",
    )
    n_blocks = int(data["config"][0])
    for name in _WORLD_NUMERIC:
        _require(
            data[name].ndim == 1 and len(data[name]) == n_blocks,
            path,
            f"{name} has shape {data[name].shape}, expected ({n_blocks},)",
        )
    return data


def ensure_measurement(
    dataset_name: str,
    cache_dir: str | Path,
    n_blocks: int | None = None,
) -> FastMeasurement:
    """Load a named dataset's measurement from cache, or compute and save.

    The expensive step of every global analysis is measuring a world;
    caching it under ``cache_dir/<name>-<blocks>.npz`` lets analyses and
    notebooks share one run, the way the paper's derived datasets are
    shared.  Only "adaptive" datasets (A12W and friends) are world-based.
    The cache self-heals: a corrupt entry is quarantined and a stale
    schema version is recomputed, both transparently.
    """
    from repro.datasets.registry import dataset
    from repro.simulation.fastsim import measure_world
    from repro.simulation.internet import generate_world

    spec = dataset(dataset_name)
    config = spec.world_config(n_blocks)
    path = Path(cache_dir) / f"{spec.name}-{config.n_blocks}.npz"
    if path.exists():
        try:
            return load_measurement(path)
        except CorruptCheckpointError:
            pass  # quarantined (or stale); fall through to recompute
    world = generate_world(config)
    measurement = measure_world(world, spec.schedule())
    save_measurement(path, measurement)
    return measurement


# --- batch checkpoints -----------------------------------------------------
#
# A checkpoint is one .npz archive holding every completed entry of a
# BatchRunner run, keyed by batch index: measurement entries under
# "m{i}_*" keys, failure entries under "f{i}_*".  Writes are atomic and
# checksummed, so a run killed mid-checkpoint leaves the previous
# complete checkpoint intact, and a damaged file is quarantined instead
# of resuming from garbage.

# DiurnalReport scalar fields serialized as one float vector, in order.
_REPORT_FIELDS = (
    "diurnal_k",
    "diurnal_amplitude",
    "dominant_k",
    "dominant_cycles_per_day",
    "strongest_other",
    "strongest_harmonic",
    "phase",
)

_MEASUREMENT_ARRAYS = (
    "positives",
    "totals",
    "states",
    "a_short",
    "a_long",
    "a_operational",
    "true_availability",
)


def _label_codes():
    from repro.core.classify import DiurnalBatch

    return DiurnalBatch.LABEL_CODES


def _report_to_array(report) -> np.ndarray:
    if report is None:
        return np.zeros(0)
    code = _label_codes()[report.label]
    return np.array(
        [float(code)] + [float(getattr(report, f)) for f in _REPORT_FIELDS]
    )


def _report_from_array(packed: np.ndarray):
    from repro.core.classify import DiurnalReport

    if len(packed) == 0:
        return None
    decode = {code: label for label, code in _label_codes().items()}
    fields = dict(zip(_REPORT_FIELDS, packed[1:]))
    for int_field in ("diurnal_k", "dominant_k"):
        fields[int_field] = int(fields[int_field])
    return DiurnalReport(label=decode[int(packed[0])], **fields)


def _quality_to_array(quality) -> np.ndarray:
    if quality is None:
        return np.zeros(0, dtype=np.int64)
    return np.array(
        [
            quality.n_rounds,
            quality.n_observed,
            quality.n_duplicates,
            quality.n_filled,
            quality.longest_gap,
        ],
        dtype=np.int64,
    )


def _quality_from_array(packed: np.ndarray):
    from repro.core.timeseries import QualityReport

    if len(packed) == 0:
        return None
    return QualityReport(*(int(v) for v in packed))


def _schedule_to_array(schedule: RoundSchedule) -> np.ndarray:
    return np.array(
        [
            schedule.n_rounds,
            schedule.round_s,
            schedule.start_s,
            schedule.restart_interval_s,
        ]
    )


def _schedule_from_array(packed: np.ndarray) -> RoundSchedule:
    n_rounds, round_s, start_s, restart = packed
    return RoundSchedule(
        n_rounds=int(n_rounds),
        round_s=float(round_s),
        start_s=float(start_s),
        restart_interval_s=float(restart),
    )


def save_batch_checkpoint(
    path: str | Path,
    entries: dict,
    schedule: RoundSchedule,
    meta: dict,
) -> Path:
    """Atomically persist a partial batch run (checksummed).

    ``entries`` maps batch index to ``BlockMeasurement`` or
    ``BlockFailure``.  ``meta`` must carry ``seed`` and ``n_blocks`` so
    resume can refuse a checkpoint from a different run.
    """
    from repro.core.pipeline import BlockMeasurement

    path = Path(path)
    arrays: dict[str, np.ndarray] = {
        "meta": np.array([int(meta["seed"]), int(meta["n_blocks"])]),
        "schedule": _schedule_to_array(schedule),
        "indices": np.array(sorted(entries), dtype=np.int64),
    }
    for index, entry in entries.items():
        if isinstance(entry, BlockMeasurement):
            prefix = f"m{index}_"
            for name in _MEASUREMENT_ARRAYS:
                arrays[prefix + name] = getattr(entry, name)
            arrays[prefix + "ints"] = np.array(
                [
                    entry.block_id,
                    entry.n_ever_active,
                    int(entry.skipped),
                    int(entry.stationary),
                    entry.trim.start or 0,
                    entry.trim.stop,
                ],
                dtype=np.int64,
            )
            arrays[prefix + "report"] = _report_to_array(entry.report)
            arrays[prefix + "true_report"] = _report_to_array(entry.true_report)
            arrays[prefix + "quality"] = _quality_to_array(entry.quality)
        else:
            prefix = f"f{index}_"
            arrays[prefix + "ints"] = np.array(
                [entry.block_id, entry.index, entry.attempts], dtype=np.int64
            )
            arrays[prefix + "error"] = np.array(
                [entry.error_type, entry.message]
            )
    _save_npz(path, "checkpoint", _CHECKPOINT_VERSION, arrays)
    _obs.saves.inc()
    _obs.entries_saved.inc(len(entries))
    if _obs.enabled:
        _obs.checkpoint_bytes.set(path.stat().st_size)
    return path


def load_batch_checkpoint(path: str | Path, quarantine: bool = True):
    """Load a checkpoint written by :func:`save_batch_checkpoint`.

    Returns ``(entries, schedule, meta)`` with entries reconstructed as
    ``BlockMeasurement`` / ``BlockFailure`` objects, bit-identical to the
    instances that were saved.  Digest, schema version, and array shapes
    are validated before reconstruction; failures raise
    :class:`CorruptCheckpointError` (after quarantining the file) or
    :class:`CheckpointVersionError`, never a bare numpy/KeyError.
    """
    from repro.core.pipeline import BlockFailure, BlockMeasurement

    path = Path(path)
    data = _load_npz(path, "checkpoint", _CHECKPOINT_VERSION, quarantine)
    for name in ("meta", "schedule", "indices"):
        _require(name in data, path, f"missing array {name!r}")
    _require(
        data["meta"].shape == (2,),
        path,
        f"meta has shape {data['meta'].shape}, expected (2,)",
    )
    _require(
        data["schedule"].shape == (4,),
        path,
        f"schedule has shape {data['schedule'].shape}, expected (4,)",
    )
    seed, n_blocks = (int(v) for v in data["meta"])
    schedule = _schedule_from_array(data["schedule"])
    entries: dict = {}
    try:
        for index in data["indices"].tolist():
            m_prefix, f_prefix = f"m{index}_", f"f{index}_"
            if m_prefix + "ints" in data:
                ints = data[m_prefix + "ints"]
                _require(
                    ints.shape == (6,),
                    path,
                    f"{m_prefix}ints has shape {ints.shape}, expected (6,)",
                )
                entries[index] = BlockMeasurement(
                    block_id=int(ints[0]),
                    schedule=schedule,
                    **{
                        name: data[m_prefix + name]
                        for name in _MEASUREMENT_ARRAYS
                    },
                    trim=slice(int(ints[4]), int(ints[5])),
                    n_ever_active=int(ints[1]),
                    skipped=bool(ints[2]),
                    report=_report_from_array(data[m_prefix + "report"]),
                    true_report=_report_from_array(
                        data[m_prefix + "true_report"]
                    ),
                    stationary=bool(ints[3]),
                    quality=_quality_from_array(data[m_prefix + "quality"]),
                )
            else:
                _require(
                    f_prefix + "ints" in data,
                    path,
                    f"index {index} has neither measurement nor failure entry",
                )
                ints = data[f_prefix + "ints"]
                _require(
                    ints.shape == (3,),
                    path,
                    f"{f_prefix}ints has shape {ints.shape}, expected (3,)",
                )
                error_type, message = data[f_prefix + "error"]
                entries[index] = BlockFailure(
                    block_id=int(ints[0]),
                    index=int(ints[1]),
                    error_type=str(error_type),
                    message=str(message),
                    attempts=int(ints[2]),
                )
    except CorruptCheckpointError:
        raise
    except (KeyError, ValueError, IndexError, TypeError) as exc:
        # Digest-valid content that still cannot reconstruct points at a
        # writer bug; name the file and entry instead of leaking internals.
        _obs.corruption.inc()
        raise CorruptCheckpointError(
            path, f"entry reconstruction failed ({type(exc).__name__}: {exc})"
        ) from exc
    _obs.loads.inc()
    _obs.entries_loaded.inc(len(entries))
    return entries, schedule, {"seed": seed, "n_blocks": n_blocks}


def iter_observation_stream(
    path: str | Path,
    series: str = "a_short",
    include_skipped: bool = False,
    interleave: bool = False,
):
    """Replay a saved batch checkpoint as a round-by-round stream.

    Yields ``(block_id, time_s, value)`` tuples (columns for
    :meth:`repro.stream.engine.StreamEngine.ingest_many`), turning any
    checkpoint written by :class:`repro.core.pipeline.BatchRunner` into
    a live-ingestion simulation.  By default blocks are replayed one
    after another; ``interleave=True`` walks the shared round schedule
    instead, emitting every block's round ``r`` before any block's round
    ``r + 1`` — the arrival order a real multi-block prober produces.
    Failures are skipped (they carry no series); skipped-as-sparse
    blocks are omitted unless ``include_skipped``.  A damaged checkpoint
    raises :class:`CorruptCheckpointError` before the first tuple is
    yielded.
    """
    from repro.core.pipeline import BlockMeasurement

    entries, schedule, _ = load_batch_checkpoint(path)
    streams = []
    for index in sorted(entries):
        entry = entries[index]
        if not isinstance(entry, BlockMeasurement):
            continue
        if entry.skipped and not include_skipped:
            continue
        times, values = entry.observation_stream(series)
        streams.append((entry.block_id, times, values))
    if interleave:
        for r in range(schedule.n_rounds):
            for block_id, times, values in streams:
                _obs.replayed.inc()
                yield block_id, float(times[r]), float(values[r])
    else:
        for block_id, times, values in streams:
            for t, v in zip(times, values):
                _obs.replayed.inc()
                yield block_id, float(t), float(v)


def write_csv(path: str | Path, header: list, rows: list) -> Path:
    """Write an analysis table as CSV (one figure/table per file).

    The write is atomic (temp file + fsync + ``os.replace``): a reader —
    or a rerun after a crash — can never observe a half-written table.
    """
    path = Path(path)

    def _write(handle) -> None:
        import io as _io

        text = _io.TextIOWrapper(handle, newline="", write_through=True)
        writer = csv.writer(text)
        writer.writerow(header)
        writer.writerows(rows)
        text.flush()
        text.detach()  # leave the binary handle open for fsync

    _atomic_write(path, "table", _write)
    return path
