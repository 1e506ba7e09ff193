"""The vectorized journal scanner agrees with a frame-by-frame walk.

Recovery views the file as packed frames and finds the intact prefix
with array compares; per-frame logic runs only at the first invalid
frame.  This module keeps the frame-by-frame scanner that recovery
used to run as the oracle and feeds both the same damaged files:
truncations, bit flips, corrupted length fields, well-framed payloads
of a foreign size and appended garbage.  The records, the
:class:`RecoveryReport` (``n_records``, ``last_seq``,
``truncated_bytes``, ``reason``) and any header error must match
exactly, through :func:`read_journal`, through opening a
:class:`StreamJournal` (which also truncates the file to the intact
prefix) and through replaying the journal the open scanned.
"""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stream import (
    JournalRecord,
    RecoveryReport,
    StreamJournal,
    read_journal,
    replay_journal,
)

HEADER = struct.Struct("<4sHH")
FRAME = struct.Struct("<II")
PAYLOAD = struct.Struct("<Qqdd")
MAX_PAYLOAD = 4096


def reference_scan(raw: bytes, path):
    """Walk ``raw`` frame by frame, exactly as recovery used to."""
    if len(raw) < HEADER.size:
        return [], RecoveryReport(0, 0, len(raw), "torn file header")
    magic, version, _ = HEADER.unpack_from(raw, 0)
    if magic != b"RPWJ":
        raise ValueError(f"{path} is not a stream journal (bad magic {magic!r})")
    if version != 1:
        raise ValueError(f"{path} has journal version {version}, expected 1")
    records = []
    offset = HEADER.size
    reason = ""
    while offset < len(raw):
        if offset + FRAME.size > len(raw):
            reason = "torn frame header"
            break
        length, crc = FRAME.unpack_from(raw, offset)
        if length > MAX_PAYLOAD:
            reason = f"implausible frame length {length}"
            break
        start = offset + FRAME.size
        end = start + length
        if end > len(raw):
            reason = "torn frame payload"
            break
        payload = raw[start:end]
        if zlib.crc32(payload) != crc:
            reason = "frame CRC mismatch"
            break
        if length != PAYLOAD.size:
            reason = f"unknown payload size {length}"
            break
        records.append(JournalRecord(*PAYLOAD.unpack(payload)))
        offset = end
    last_seq = records[-1].seq if records else 0
    return records, RecoveryReport(
        len(records), last_seq, len(raw) - offset, reason
    )


class RecordingEngine:
    def __init__(self):
        self.seen = []

    def ingest_many(self, block_ids, times, values):
        self.seen.extend(
            zip(np.asarray(block_ids).tolist(), np.asarray(times).tolist(),
                np.asarray(values).tolist())
        )


finite = st.floats(allow_nan=False, width=64)
observations = st.lists(
    st.tuples(
        st.integers(min_value=-(2**63), max_value=2**63 - 1),
        finite,
        finite,
        st.integers(min_value=1, max_value=5),  # seq increment (gapped)
    ),
    max_size=30,
)


def frame_bytes(length: int, payload: bytes) -> bytes:
    return FRAME.pack(length, zlib.crc32(payload)) + payload


def mutation(size: int):
    """One damaging edit of a ``size``-byte journal image."""
    frames = max((size - HEADER.size) // (FRAME.size + PAYLOAD.size), 1)
    return st.one_of(
        st.tuples(st.just("truncate"), st.integers(0, size)),
        st.tuples(
            st.just("flip"), st.integers(0, max(size - 1, 0)),
            st.integers(0, 7),
        ),
        st.tuples(
            st.just("length"),
            st.integers(0, frames - 1),
            st.one_of(
                st.sampled_from([0, 8, 31, 33, 40, 4096, 4097, 2**32 - 1]),
                st.integers(0, 2**32 - 1),
            ),
        ),
        st.tuples(st.just("garbage"), st.binary(min_size=1, max_size=90)),
        st.tuples(st.just("foreign"), st.binary(max_size=64)),
    )


def apply(raw: bytes, edit) -> bytes:
    kind = edit[0]
    if kind == "truncate":
        return raw[:edit[1]]
    if kind == "flip":
        _, offset, bit = edit
        if not raw:
            return raw
        out = bytearray(raw)
        out[offset % len(out)] ^= 1 << bit
        return bytes(out)
    if kind == "length":
        _, index, length = edit
        offset = HEADER.size + index * (FRAME.size + PAYLOAD.size)
        if offset + 4 > len(raw):
            return raw
        return raw[:offset] + struct.pack("<I", length) + raw[offset + 4:]
    if kind == "garbage":
        return raw + edit[1]
    # A well-formed frame (intact CRC) whose payload is not an
    # observation: "unknown payload size" unless it happens to be one.
    return raw + frame_bytes(len(edit[1]), edit[1])


def write_journal(path, rows) -> None:
    with StreamJournal(path) as journal:
        seq = 0
        for block_id, time_s, value, step in rows:
            seq += step
            journal.append_many(block_id, [time_s], [value], seqs=[seq])


@settings(max_examples=300, deadline=None)
@given(rows=observations, data=st.data())
def test_scanner_matches_frame_by_frame_reference(tmp_path_factory, rows, data):
    path = tmp_path_factory.mktemp("scan") / "wal"
    write_journal(path, rows)
    raw = path.read_bytes()
    n_edits = data.draw(st.integers(0, 3))
    for _ in range(n_edits):
        raw = apply(raw, data.draw(mutation(len(raw))))
    path.write_bytes(raw)

    try:
        expected = reference_scan(raw, path)
    except ValueError as error:
        with pytest.raises(ValueError) as caught:
            read_journal(path)
        assert str(caught.value) == str(error)
        with pytest.raises(ValueError) as caught:
            StreamJournal(path)
        assert str(caught.value) == str(error)
        return
    expected_records, expected_report = expected

    records, report = read_journal(path)
    assert report == expected_report
    assert records == expected_records
    assert all(type(r.seq) is int and type(r.time_s) is float
               for r in records)

    if len(raw) < HEADER.size:
        return  # a fresh or torn-at-birth file: StreamJournal rewrites it
    journal = StreamJournal(path)
    try:
        assert journal.recovery == expected_report
        assert journal.next_seq == expected_report.last_seq + 1
        engine = RecordingEngine()
        last = replay_journal(journal, engine)
        assert last == expected_report.last_seq
        assert engine.seen == [
            (r.block_id, r.time_s, r.value) for r in expected_records
        ]
    finally:
        journal.close()
    kept = len(raw) - expected_report.truncated_bytes
    assert path.read_bytes() == raw[:kept]


def test_append_frames_match_struct_packing(tmp_path):
    """``append_many`` stamps each frame's CRC over bytes 8–40 of its
    row: the file is byte-for-byte the struct-packed framing."""
    path = tmp_path / "wal"
    ids = [3, -7, 2**40]
    times = [0.0, 660.0, -1.5]
    values = [0.25, float("inf"), -0.0]
    with StreamJournal(path) as journal:
        journal.append_many(ids, times, values, seqs=[2, 5, 9])
    expected = HEADER.pack(b"RPWJ", 1, 0) + b"".join(
        frame_bytes(PAYLOAD.size, PAYLOAD.pack(seq, b, t, v))
        for seq, b, t, v in zip([2, 5, 9], ids, times, values)
    )
    assert path.read_bytes() == expected


def test_replay_releases_the_scanned_frames(tmp_path):
    path = tmp_path / "wal"
    write_journal(path, [(1, 0.0, 0.5, 1), (2, 660.0, 0.6, 1)])
    with StreamJournal(path) as journal:
        engine = RecordingEngine()
        assert replay_journal(journal, engine) == 2
        assert engine.seen == [(1, 0.0, 0.5), (2, 660.0, 0.6)]
        with pytest.raises(ValueError, match="already replayed"):
            replay_journal(journal, engine)


def test_replay_of_open_journal_reads_the_file_once(tmp_path, monkeypatch):
    import pathlib

    path = tmp_path / "wal"
    write_journal(path, [(1, 0.0, 0.5, 1), (1, 660.0, 0.6, 2)])
    real = pathlib.Path.read_bytes
    calls = []

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(pathlib.Path, "read_bytes", counting)
    with StreamJournal(path) as journal:
        engine = RecordingEngine()
        assert replay_journal(journal, engine, after_seq=1) == 3
    assert engine.seen == [(1, 660.0, 0.6)]
    assert len(calls) == 1
