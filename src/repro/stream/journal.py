"""Write-ahead journal for streaming observations.

The streaming engine classifies from in-memory ring buffers, so a crash
loses every observation since the last checkpoint.  The journal closes
that hole the way databases do: append each observation to a
length-prefixed, CRC-framed log *before* (or while) it is ingested, and
on restart recover the log and replay it into a fresh engine.

Frame format (all little-endian)::

    file   := header frame*
    header := magic(4) version(u16) pad(u16)          # 8 bytes
    frame  := length(u32) crc32(u32) payload          # length = len(payload)
    payload:= seq(u64) block_id(i64) time_s(f64) value(f64)   # 32 bytes

Durability properties:

* **append-only** — a crash can only damage the tail, never rewrite
  history;
* **torn-tail recovery** — on open, the file is read once and viewed
  as packed frames; one vectorized pass over the length fields and the
  CRCs finds the first frame with a short read or CRC mismatch, which
  marks the valid end, and everything after it is truncated away (a
  torn append is indistinguishable from an append that never happened,
  which is the correct semantics for a write-*ahead* log);
* **idempotent replay** — every record carries a monotonically
  increasing sequence number, so :func:`replay_journal` can skip
  records at or below a resume point and re-running a replay applies
  nothing twice;
* **caller-assigned sequences** — :meth:`StreamJournal.append` /
  :meth:`StreamJournal.append_many` accept explicit ``seq`` values so a
  replicated router can journal every replica of an observation under
  one per-replica-stream sequence number.  Sequences must stay strictly
  increasing but may be *gapped* (a shard journals only the subsequence
  of its stream that it owns); replay and torn-tail recovery only rely
  on monotonicity, never density.

Crash points (``journal.append.begin`` / ``journal.mid_append`` /
``journal.append.done``) let the chaos harness kill a writer halfway
through a frame and assert recovery truncates exactly the torn bytes.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.retry import RetryPolicy
from repro.faults.crash import any_armed, crashpoint
from repro.obs.registry import NULL_REGISTRY

__all__ = [
    "JournalRecord",
    "RecoveryReport",
    "StreamJournal",
    "read_journal",
    "replay_journal",
]

_MAGIC = b"RPWJ"
_VERSION = 1
_HEADER = struct.Struct("<4sHH")
_FRAME = struct.Struct("<II")  # payload length, crc32(payload)
_PAYLOAD = struct.Struct("<Qqdd")  # seq, block_id, time_s, value

# Records per ingest_many call when replaying a journal.
_REPLAY_BATCH = 4096

# Journals only ever carry fixed-size observation payloads today; a
# frame claiming more is damage, not data (guards the scanner against
# allocating garbage lengths from a corrupted length field).
_MAX_PAYLOAD = 4096

# One packed row per frame, laid out exactly as the struct formats
# above (little-endian, no padding): append_many builds frames in it and
# recovery views the file through it.
_FRAME_DTYPE = np.dtype(
    {
        "names": ["length", "crc", "seq", "block_id", "time_s", "value"],
        "formats": ["<u4", "<u4", "<u8", "<i8", "<f8", "<f8"],
    }
)
_FRAME_SIZE = _FRAME_DTYPE.itemsize
assert _FRAME_SIZE == _FRAME.size + _PAYLOAD.size
_NO_FRAMES = np.empty(0, dtype=_FRAME_DTYPE)


def _payload_crcs(buf, offset: int, n: int) -> np.ndarray:
    """CRC-32 of the payloads of ``n`` packed frames starting at ``offset``.

    Each frame's payload is bytes 8–40 of its ``_FRAME_DTYPE`` row; the
    same helper checks frames on recovery and stamps them on append.
    """
    raw = memoryview(buf)
    crc32 = zlib.crc32
    first = offset + _FRAME.size
    return np.fromiter(
        (
            crc32(raw[i:i + _PAYLOAD.size])
            for i in range(first, first + n * _FRAME_SIZE, _FRAME_SIZE)
        ),
        dtype=np.uint32,
        count=n,
    )


@dataclass(frozen=True)
class JournalRecord:
    """One durably logged observation."""

    seq: int
    block_id: int
    time_s: float
    value: float


@dataclass(frozen=True)
class RecoveryReport:
    """What opening an existing journal found (and repaired).

    ``truncated_bytes`` is how many torn-tail bytes were discarded;
    ``reason`` says why the tail was invalid (empty string for a clean
    log).  ``last_seq`` is 0 for an empty journal.
    """

    n_records: int
    last_seq: int
    truncated_bytes: int
    reason: str = ""

    @property
    def was_torn(self) -> bool:
        return self.truncated_bytes > 0


class _JournalMetrics:
    __slots__ = ("appends", "recovered", "torn_bytes", "replayed", "skipped")

    def __init__(self, registry) -> None:
        self.appends = registry.counter("journal_appends_total")
        self.recovered = registry.counter("journal_records_recovered_total")
        self.torn_bytes = registry.counter("journal_torn_bytes_total")
        self.replayed = registry.counter("journal_records_replayed_total")
        self.skipped = registry.counter(
            "journal_records_skipped_total", reason="already_applied"
        )


def _frame_fault(raw: bytes, offset: int) -> str:
    """Why the frame at ``offset`` is not intact ("" at the end of the log).

    The frame-by-frame rules, run once, at the first frame the
    vectorized pass in :func:`_scan` rejected.
    """
    if offset == len(raw):
        return ""
    if offset + _FRAME.size > len(raw):
        return "torn frame header"
    length, crc = _FRAME.unpack_from(raw, offset)
    if length > _MAX_PAYLOAD:
        return f"implausible frame length {length}"
    start = offset + _FRAME.size
    if start + length > len(raw):
        return "torn frame payload"
    if zlib.crc32(raw[start:start + length]) != crc:
        return "frame CRC mismatch"
    return f"unknown payload size {length}"


def _scan(raw: bytes) -> tuple[np.ndarray, int, str]:
    """View the frames of ``raw`` (header already verified).

    Returns ``(frames, valid_end, reason)``: the intact frames as a
    read-only ``_FRAME_DTYPE`` view of ``raw``, the offset just past
    the last of them, and why the tail after it is invalid (empty if
    the whole log is intact).  Every intact frame carries a full
    observation payload, so the intact prefix lies on the frame grid:
    it ends at the first row whose length field is not the payload
    size or whose CRC does not match.
    """
    n = (len(raw) - _HEADER.size) // _FRAME_SIZE
    frames = np.frombuffer(raw, _FRAME_DTYPE, count=n, offset=_HEADER.size)
    bad = np.flatnonzero(frames["length"] != _PAYLOAD.size)
    n = int(bad[0]) if len(bad) else n
    bad = np.flatnonzero(
        _payload_crcs(raw, _HEADER.size, n) != frames["crc"][:n]
    )
    n = int(bad[0]) if len(bad) else n
    valid_end = _HEADER.size + n * _FRAME_SIZE
    return frames[:n], valid_end, _frame_fault(raw, valid_end)


def _recover(raw: bytes, path) -> tuple[np.ndarray, RecoveryReport]:
    """Verify the header of ``raw``, then scan its frames."""
    magic, version, _ = _HEADER.unpack_from(raw, 0)
    if magic != _MAGIC:
        raise ValueError(f"{path} is not a stream journal (bad magic {magic!r})")
    if version != _VERSION:
        raise ValueError(
            f"{path} has journal version {version}, expected {_VERSION}"
        )
    frames, valid_end, reason = _scan(raw)
    last_seq = int(frames["seq"][-1]) if len(frames) else 0
    return frames, RecoveryReport(
        len(frames), last_seq, len(raw) - valid_end, reason
    )


class StreamJournal:
    """Appendable, crash-recovering observation log.

    Opening an existing file scans and repairs it (torn tail truncated,
    ``recovery`` reports what happened) and continues the sequence
    numbering where the intact records left off; opening a fresh path
    writes the header.  Appends are buffered — call :meth:`flush` (or
    rely on ``sync_every``) to make them durable; ``close`` always
    flushes.  Usable as a context manager.

    The open reads the file once.  The intact frames it scanned stay
    in memory until :func:`replay_journal` is handed this journal (or
    the journal closes), so a restarting shard replays them without
    reading or scanning the file a second time.

    ``open_retry`` retries the open/recover step on :class:`OSError`
    under a :class:`~repro.core.retry.RetryPolicy` — a journal on
    network storage that hiccups at open time (stale handle, quota
    race) should back off and try again rather than fail the whole
    resume.  Corruption errors (bad magic, wrong version) are never
    retried; they need an operator, not patience.
    """

    def __init__(
        self,
        path: str | Path,
        sync_every: int | None = None,
        metrics=None,
        open_retry: RetryPolicy | None = None,
    ) -> None:
        if sync_every is not None and sync_every < 1:
            raise ValueError("sync_every must be positive")
        self.path = Path(path)
        self.sync_every = sync_every
        self._m = _JournalMetrics(
            NULL_REGISTRY if metrics is None else metrics
        )
        self._since_sync = 0
        self._recovered: np.ndarray | None = None
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if open_retry is None:
            self.recovery = self._open_and_recover()
        else:
            self.recovery = open_retry.call(
                self._open_and_recover, retry_on=(OSError,)
            )
        self.next_seq = self.recovery.last_seq + 1

    def _open_and_recover(self) -> RecoveryReport:
        try:
            raw = self.path.read_bytes()
        except FileNotFoundError:
            raw = b""
        if raw and len(raw) >= _HEADER.size:
            self._recovered, report = _recover(raw, self.path)
            valid_end = len(raw) - report.truncated_bytes
            self._handle = open(self.path, "r+b")
            if report.truncated_bytes:
                self._handle.truncate(valid_end)
                self._handle.flush()
                os.fsync(self._handle.fileno())
                self._m.torn_bytes.inc(report.truncated_bytes)
            self._handle.seek(valid_end)
            self._m.recovered.inc(report.n_records)
            return report
        # Fresh (or sub-header, i.e. torn-at-birth) journal.
        self._recovered = _NO_FRAMES
        truncated = len(raw)
        self._handle = open(self.path, "wb")
        self._handle.write(_HEADER.pack(_MAGIC, _VERSION, 0))
        self._handle.flush()
        os.fsync(self._handle.fileno())
        if truncated:
            self._m.torn_bytes.inc(truncated)
        return RecoveryReport(
            n_records=0,
            last_seq=0,
            truncated_bytes=truncated,
            reason="torn file header" if truncated else "",
        )

    def append(
        self, block_id: int, time_s: float, value: float, seq: int | None = None
    ) -> int:
        """Durably frame one observation (a batch of one); returns its seq.

        ``seq`` overrides the self-assigned sequence (replicated
        streams journal under the router's per-replica numbering); it
        must exceed every sequence already journaled.
        """
        return self.append_many(
            block_id, (time_s,), (value,), seqs=None if seq is None else (seq,)
        )

    def append_many(self, block_ids, times, values, seqs=None) -> int:
        """Append aligned observation arrays; returns the last seq.

        ``block_ids`` broadcasts against ``times``/``values`` exactly as
        in :meth:`StreamEngine.ingest_many`, the call the journaled batch
        is replayed through, so one block's whole round batch journals
        as ``append_many(block_id, times, values)``.  Frames are built
        vectorized and written in one call, which is what keeps
        journaling affordable on the streaming hot path (see
        ``benchmarks/test_abl_pool_runner.py``).

        ``seqs`` journals under caller-assigned sequence numbers (a
        replicated router's per-replica stream); they must be strictly
        increasing and start past the journal's high-water mark, but
        may be gapped.
        """
        times = np.asarray(times, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        n = len(times)
        if n == 0:
            return self.next_seq - 1
        if seqs is not None:
            seqs = np.asarray(seqs, dtype=np.uint64)
            if seqs.shape != times.shape:
                raise ValueError("seqs must align with times/values")
            if int(seqs[0]) < self.next_seq or (
                n > 1 and bool((np.diff(seqs.astype(np.int64)) <= 0).any())
            ):
                raise ValueError(
                    "caller-assigned seqs must be strictly increasing and "
                    f"past the journal high-water {self.next_seq - 1}"
                )
        frames = np.empty(n, dtype=_FRAME_DTYPE)
        frames["length"] = _PAYLOAD.size
        frames["seq"] = (
            np.arange(self.next_seq, self.next_seq + n, dtype=np.uint64)
            if seqs is None
            else seqs
        )
        frames["block_id"] = block_ids
        frames["time_s"] = times
        frames["value"] = values
        frames["crc"] = _payload_crcs(frames.view(np.uint8), 0, n)
        if not any_armed():
            self._handle.write(frames.tobytes())
            self._appended(int(frames["seq"][-1]), n)
            return self.next_seq - 1
        # Chaos mode: frame by frame, the first half of each on disk
        # before the torn crash point, so an injected death really tears
        # a frame and every crash point fires exactly as documented.
        for frame in frames:
            crashpoint("journal.append.begin")
            data = frame.tobytes()
            self._handle.write(data[: len(data) // 2])
            self._handle.flush()
            crashpoint("journal.mid_append")
            self._handle.write(data[len(data) // 2:])
            self._appended(int(frame["seq"]), 1)
            crashpoint("journal.append.done")
        return self.next_seq - 1

    def _appended(self, last_seq: int, n: int) -> None:
        self.next_seq = last_seq + 1
        self._m.appends.inc(n)
        self._since_sync += n
        if self.sync_every is not None and self._since_sync >= self.sync_every:
            self.flush()

    def settle(self) -> None:
        """Push buffered frames to the OS without paying an fsync.

        After ``settle`` the appended bytes live in the kernel page
        cache: they survive the *process* dying (SIGKILL, OOM), which
        is the failure a supervised worker plans for, but not the
        machine dying — :meth:`flush` is the full-durability barrier.
        A write-ahead acker must call one of the two before acking;
        frames left in the user-space buffer die with the process.
        """
        self._handle.flush()

    def flush(self) -> None:
        """Make every appended frame durable (flush + fsync)."""
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self._since_sync = 0

    def _take_recovered(self) -> np.ndarray:
        """Hand over (and forget) the frames the open scanned."""
        if self._recovered is None:
            raise ValueError(
                f"{self.path}: the recovered records were already replayed"
            )
        frames, self._recovered = self._recovered, None
        return frames

    def close(self) -> None:
        self._recovered = None
        if self._handle is not None:
            self.flush()
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "StreamJournal":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


def _read_frames(path) -> tuple[np.ndarray, RecoveryReport]:
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        return _NO_FRAMES, RecoveryReport(0, 0, len(raw), "torn file header")
    return _recover(raw, path)


def read_journal(path: str | Path) -> tuple[list[JournalRecord], RecoveryReport]:
    """Read a journal without repairing it (pure, side-effect free).

    Returns the intact records plus a report describing any torn tail
    (which is left on disk; only :class:`StreamJournal` truncates).
    """
    frames, report = _read_frames(path)
    records = list(map(
        JournalRecord,
        frames["seq"].tolist(),
        frames["block_id"].tolist(),
        frames["time_s"].tolist(),
        frames["value"].tolist(),
    ))
    return records, report


def replay_journal(
    path: str | Path | StreamJournal,
    engine,
    after_seq: int = 0,
    metrics=None,
    retry: RetryPolicy | None = None,
) -> int:
    """Replay journaled observations into an engine, idempotently.

    ``engine`` is duck-typed: anything with ``ingest_many(block_ids,
    times, values)`` — a :class:`~repro.stream.engine.StreamEngine` or
    an :class:`~repro.stream.overload.AdmissionController` — so recovery
    runs the same batch path as live ingest.  Only records with
    ``seq > after_seq`` (and past every earlier record) are applied, in
    journal order and bounded batches of array slices, so resuming a
    replay from the last sequence number the engine durably processed
    never applies a record twice — and replaying the same journal into
    the same engine again with the returned value is a no-op.  Returns
    the last applied sequence number (``after_seq`` when nothing new
    was found).

    ``path`` may also be an open :class:`StreamJournal`: the records
    its open recovered are replayed from the frames it already scanned,
    without touching the file, and released (a second replay of the
    same journal object raises :class:`ValueError`).

    ``retry`` applies a :class:`~repro.core.retry.RetryPolicy` to the
    journal *read* (transient :class:`OSError` only); the replay itself
    runs once, since the records are already in memory.
    """
    m = _JournalMetrics(NULL_REGISTRY if metrics is None else metrics)
    if isinstance(path, StreamJournal):
        frames = path._take_recovered()
    elif retry is None:
        frames, _ = _read_frames(path)
    else:
        frames, _ = retry.call(lambda: _read_frames(path), retry_on=(OSError,))
    seqs = frames["seq"].astype(np.int64)
    # A record applies when its seq is past after_seq and every record
    # before it, as a sequential replay tracking its last seq decides.
    high = np.maximum.accumulate(np.concatenate(([after_seq], seqs)))
    fresh = np.flatnonzero(seqs > high[:-1])
    m.skipped.inc(len(seqs) - len(fresh))
    ids = frames["block_id"][fresh]
    times = frames["time_s"][fresh]
    values = frames["value"][fresh]
    del frames  # the file image is not kept past this point
    # Bounded batches cap the engine's per-call working arrays.
    for i in range(0, len(fresh), _REPLAY_BATCH):
        batch = slice(i, i + _REPLAY_BATCH)
        engine.ingest_many(ids[batch], times[batch], values[batch])
    m.replayed.inc(len(fresh))
    return int(high[-1])
