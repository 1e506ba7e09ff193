"""In-memory span recording around the program's public entry points.

The traced run wraps public functions and methods of the program (the
table in ``README.md`` lists them) from the benchmark's side; nothing
inside ``src/`` knows it is being traced.  Every call to a wrapped
entry point records one span: name, start, end, parent span and
request id (the root span of the calling thread's stack).  Spans are
kept per thread in flat integer columns, so recording costs one
``array.append`` per column, and are written out once per process at
shutdown as ``spans-<role>-<pid>.npz``.  ``Spans`` loads those files
back and computes durations and self times.

Times are ``time.perf_counter_ns()``, which on Linux reads
``CLOCK_MONOTONIC``, so spans from the server, the shard workers and
the load generator share one time axis.
"""

from __future__ import annotations

import json
import os
import threading
import time
from array import array
from pathlib import Path

import numpy as np

_COLUMNS = ("code", "start", "end", "parent", "root", "n", "aux")


class _Buffer:
    """One thread's span columns plus its open-span stack."""

    def __init__(self) -> None:
        self.code = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.root = array("q")
        self.n = array("q")
        self.aux = array("q")
        self.stack: list[int] = []


class SpanRecorder:
    """Per-process span store; ``wrap`` makes a recording wrapper."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        """Drop every buffer (a forked child starts with no spans)."""
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()

    def code(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._lock:
                buf = _Buffer()
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def begin(self, code: int, n: int = 1) -> int:
        buf = self._buffer()
        stack = buf.stack
        idx = len(buf.code)
        buf.code.append(code)
        buf.parent.append(stack[-1] if stack else -1)
        buf.root.append(stack[0] if stack else idx)
        buf.n.append(n)
        buf.aux.append(0)
        buf.end.append(0)
        stack.append(idx)
        buf.start.append(time.perf_counter_ns())
        return idx

    def end(self, idx: int, aux: int = 0) -> None:
        buf = self._local.buf
        buf.end[idx] = time.perf_counter_ns()
        buf.aux[idx] = aux
        buf.stack.pop()

    def wrap(self, fn, name: str, count=None, result=None):
        """Record a span around every call of ``fn``.

        ``count(args)`` gives the span's work count (observations,
        blocks, block-rounds); ``result(args, returned)`` an auxiliary
        integer stored with it.
        """
        code = self.code(name)
        begin, end = self.begin, self.end

        def traced(*args, **kwargs):
            idx = begin(code, count(args) if count is not None else 1)
            aux = 0
            try:
                returned = fn(*args, **kwargs)
                if result is not None:
                    aux = result(args, returned)
                return returned
            finally:
                end(idx, aux)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def dump(self, path: Path, **meta) -> None:
        """Write every thread's spans to one ``.npz`` file."""
        cols = {c: [] for c in _COLUMNS}
        offset = 0
        for buf in list(self._buffers):
            k = min(len(buf.code), len(buf.start))
            for c in _COLUMNS:
                col = np.frombuffer(getattr(buf, c), dtype=np.int64
                                    if c != "code" else np.int32)[:k]
                if c in ("parent", "root"):
                    col = np.where(col >= 0, col + offset, -1)
                cols[c].append(col.astype(np.int64))
            offset += k
        arrays = {
            c: np.concatenate(v) if v else np.zeros(0, dtype=np.int64)
            for c, v in cols.items()
        }
        tmp = Path(path).with_suffix(".tmp.npz")
        np.savez(
            tmp,
            names=np.array(self.names),
            meta=np.array([json.dumps(meta)]),
            **arrays,
        )
        os.replace(tmp, path)


def patch(owner, attr: str, recorder: SpanRecorder, name: str,
          count=None, result=None) -> None:
    """Replace ``owner.attr`` with a recording wrapper."""
    original = owner.__dict__[attr] if isinstance(owner, type) else \
        getattr(owner, attr)
    if isinstance(original, classmethod):
        wrapped = recorder.wrap(original.__func__, name, count, result)
        setattr(owner, attr, classmethod(wrapped))
    else:
        setattr(owner, attr, recorder.wrap(original, name, count, result))


def _len_arg(i: int):
    return lambda args: len(args[i])


def _size_arg(i: int):
    return lambda args: int(np.size(args[i]))


def install_service(recorder: SpanRecorder, trace_dir: Path) -> None:
    """Wrap the service's entry points; call before any shard forks.

    Server-side wrappers run in the process that calls this; the
    worker-side ones are inherited by every shard forked after it.
    Each shard writes its spans when its worker loop returns.
    """
    import repro.serve.runner as runner_mod
    import repro.serve.shard as shard_mod
    import repro.stream.engine as engine_mod
    from repro.obs.alerts import AlertEngine
    from repro.obs.distributed import FleetView, WorkerTelemetry
    from repro.obs.history import MetricsHistory
    from repro.serve.runner import ServiceRunner
    from repro.serve.shard import ShardClient
    from repro.stream.engine import StreamEngine
    from repro.stream.journal import StreamJournal
    from repro.stream.overload import AdmissionController

    # Server process.
    patch(ServiceRunner, "ingest", recorder, "ServiceRunner.ingest",
          count=_len_arg(1),
          result=lambda args, report: int(report["rejected"]))
    patch(ServiceRunner, "query_block_ex", recorder,
          "ServiceRunner.query_block_ex")
    patch(ServiceRunner, "phase_map", recorder, "ServiceRunner.phase_map")
    patch(ShardClient, "request", recorder, "ShardClient.request")
    patch(ShardClient, "ingest", recorder, "ShardClient.ingest",
          count=_len_arg(1))
    patch(ShardClient, "query_block", recorder, "ShardClient.query_block")
    patch(FleetView, "apply", recorder, "FleetView.apply")
    patch(FleetView, "aggregate", recorder, "FleetView.aggregate")
    patch(AlertEngine, "evaluate", recorder, "AlertEngine.evaluate")
    patch(MetricsHistory, "sample", recorder, "MetricsHistory.sample")

    # Shard workers (inherited through fork).
    patch(StreamJournal, "append_many", recorder, "StreamJournal.append_many",
          count=_len_arg(2))
    patch(StreamJournal, "settle", recorder, "StreamJournal.settle")
    patch(AdmissionController, "submit", recorder,
          "AdmissionController.submit",
          result=lambda args, _: args[0].depth)
    patch(AdmissionController, "pump", recorder, "AdmissionController.pump")
    patch(StreamEngine, "ingest", recorder, "StreamEngine.ingest")
    patch(engine_mod, "classify_series", recorder, "classify_series")
    patch(WorkerTelemetry, "cut_delta", recorder, "WorkerTelemetry.cut_delta")
    patch(shard_mod, "replay_journal", recorder, "replay_journal")

    shard_main = runner_mod._shard_main
    handle = recorder.code("shard.handle")

    class _TracedConn:
        """The worker's pipe end; recv-to-send is one ``shard.handle``."""

        def __init__(self, conn) -> None:
            self._conn = conn
            self._open: int | None = None

        def poll(self, *args):
            return self._conn.poll(*args)

        def recv(self):
            message = self._conn.recv()
            if message is not None and message[0] != "stop":
                self._open = recorder.begin(handle)
            return message

        def send(self, obj) -> None:
            if self._open is not None:
                recorder.end(self._open)
                self._open = None
            self._conn.send(obj)

        def close(self) -> None:
            self._conn.close()

    def traced_shard_main(conn, heartbeat, shard_id, config, journal_path):
        recorder.reset()
        t_start = time.perf_counter_ns()
        try:
            return shard_main(
                _TracedConn(conn), heartbeat, shard_id, config, journal_path
            )
        finally:
            recorder.dump(
                Path(trace_dir) / f"spans-shard{shard_id}-{os.getpid()}.npz",
                role="shard", shard_id=shard_id, t_start=t_start,
                t_end=time.perf_counter_ns(),
            )

    runner_mod._shard_main = traced_shard_main


def install_batch(recorder: SpanRecorder) -> None:
    """Wrap the batch study's stages (in this process)."""
    import repro.analysis.study as study_mod
    import repro.simulation.fastsim as fastsim_mod
    from repro.analysis.study import GlobalStudy

    patch(GlobalStudy, "run", recorder, "GlobalStudy.run")
    patch(study_mod, "generate_world", recorder, "generate_world")
    patch(study_mod, "measure_world", recorder, "measure_world")
    patch(fastsim_mod, "synthesize_availability", recorder,
          "synthesize_availability",
          count=lambda a: len(a[1]) * len(a[2]))
    patch(fastsim_mod, "apply_restart_bias", recorder, "apply_restart_bias",
          count=_size_arg(0))
    patch(fastsim_mod, "adaptive_counts", recorder, "adaptive_counts",
          count=_size_arg(0))
    patch(fastsim_mod, "estimate_series", recorder, "estimate_series",
          count=_size_arg(0))
    patch(fastsim_mod, "classify_many", recorder, "classify_many",
          count=lambda a: int(np.shape(a[0])[0]))


class Spans:
    """Spans of one or more processes, with durations and self times."""

    def __init__(self, files) -> None:
        parts = []
        self.meta = []
        offset = 0
        for proc, path in enumerate(sorted(files)):
            with np.load(path) as data:
                names = list(data["names"])
                meta = json.loads(str(data["meta"][0]))
                part = {c: data[c].astype(np.int64) for c in _COLUMNS}
            part["name"] = np.array(
                [names[c] for c in part["code"]], dtype=object
            )
            for c in ("parent", "root"):
                part[c] = np.where(part[c] >= 0, part[c] + offset, -1)
            part["proc"] = np.full(len(part["code"]), proc, dtype=np.int64)
            meta["proc"] = proc
            self.meta.append(meta)
            parts.append(part)
            offset += len(part["code"])
        keys = ("name", "start", "end", "parent", "root", "n", "aux", "proc")
        for k in keys:
            setattr(self, k, np.concatenate([p[k] for p in parts])
                    if parts else np.zeros(0))
        self.dur = self.end - self.start
        children = np.zeros(len(self.dur))
        has_parent = self.parent >= 0
        np.add.at(children, self.parent[has_parent], self.dur[has_parent])
        # Same-thread children run one after another, so their sum is
        # the part of the parent's interval they cover.
        self.self_ns = self.dur - children

    def select(self, name: str, t0: int | None = None,
               t1: int | None = None) -> np.ndarray:
        """Indices of spans called ``name`` starting inside [t0, t1]."""
        mask = self.name == name
        if t0 is not None:
            mask &= self.start >= t0
        if t1 is not None:
            mask &= self.start <= t1
        return np.flatnonzero(mask)

    def adopt(self, parents: np.ndarray, orphans: np.ndarray) -> dict:
        """Assign cross-thread spans to the parent whose interval holds them.

        Used for fan-out RPCs that run on pool threads while a
        (serialized) parent waits; returns ``{parent: [children]}``.
        """
        order = parents[np.argsort(self.start[parents])]
        starts = self.start[order]
        out: dict[int, list[int]] = {int(p): [] for p in parents}
        for child in orphans:
            k = int(np.searchsorted(starts, self.start[child], "right")) - 1
            if k >= 0 and self.end[child] <= self.end[order[k]] and \
                    self.proc[child] == self.proc[order[k]]:
                out[int(order[k])].append(int(child))
        return out

    def covered(self, parent: int, children: list[int]) -> int:
        """Nanoseconds of ``parent``'s interval covered by ``children``."""
        if not children:
            return 0
        iv = sorted((int(self.start[c]), int(self.end[c])) for c in children)
        total, cur_s, cur_e = 0, iv[0][0], iv[0][1]
        for s, e in iv[1:]:
            if s > cur_e:
                total += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        return total + cur_e - cur_s
