"""HTTP load generator: closed and open loops over keep-alive connections.

One process, one thread per connection, at most ``nproc`` connections.
Every attempted request becomes one ``Sample``; a request counts as
failed on 429, 503 or any other 5xx, on a timeout or a connection
reset, and on a 404 for a block the generator has already fed.  Open
loops time each request from when it was due, so a stall is charged to
every request queued behind it, and record how late each send ran.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass, field
from http.client import HTTPConnection, HTTPException

TIMEOUT_S = 30.0
_JSON = {"Content-Type": "application/json"}


@dataclass
class Sample:
    kind: str            # "post", "get" or "phase_map"
    due: float           # when it was due (perf_counter seconds)
    sent: float
    done: float
    status: int          # HTTP status, 0 for a transport failure
    n_obs: int = 0
    slice_round: tuple | None = None

    @property
    def latency_s(self) -> float:
        """From due time (equals send time in a closed loop)."""
        return self.done - self.due

    @property
    def service_s(self) -> float:
        return self.done - self.sent

    @property
    def failed(self) -> bool:
        return self.status != 200


@dataclass
class Connection:
    """One keep-alive client connection that reconnects after a failure."""

    port: int
    conn: HTTPConnection | None = field(default=None, init=False)

    def request(self, method: str, path: str, body: bytes | None = None):
        if self.conn is None:
            self.conn = HTTPConnection("127.0.0.1", self.port,
                                       timeout=TIMEOUT_S)
        try:
            self.conn.request(method, path, body=body,
                              headers=_JSON if body is not None else {})
            response = self.conn.getresponse()
            payload = response.read()
            return response.status, payload
        except (OSError, HTTPException, socket.timeout):
            self.close()
            return 0, b""

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


def closed_loop_ingest(port: int, fleet, site_slices, rounds: range,
                       deadline: float, out: list, min_rounds: int = 0) -> None:
    """Post ``rounds`` in order for one prober site until ``deadline``.

    Each POST carries one round of one slice; the next is sent only
    after the ack.  At least ``min_rounds`` rounds are posted even past
    the deadline, so the correctness check always has closed windows
    to compare.  Samples are appended to ``out``.
    """
    conn = Connection(port)
    try:
        for r in rounds:
            if r - rounds.start >= min_rounds and \
                    time.perf_counter() >= deadline:
                break
            for s, idx in site_slices:
                body = fleet.body(idx, r)
                t0 = time.perf_counter()
                status, _ = conn.request("POST", "/observations", body)
                out.append(Sample("post", t0, t0, time.perf_counter(),
                                  status, len(idx), slice_round=(s, r)))
    finally:
        conn.close()


def open_loop(port: int, ops: list, t_zero: float, out: list) -> None:
    """Send ``ops`` (due offset, kind, method, path, body, meta) on time.

    A request that cannot be sent on time (the previous one has not
    answered) goes out as soon as it can; its latency still counts from
    its due time.
    """
    conn = Connection(port)
    try:
        for due_off, kind, method, path, body, meta in ops:
            due = t_zero + due_off
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            sent = time.perf_counter()
            status, _ = conn.request(method, path, body)
            out.append(Sample(kind, due, sent, time.perf_counter(), status,
                              **meta))
    finally:
        conn.close()


def run_threads(targets) -> None:
    """Run each ``(fn, args)`` on its own thread and wait for all."""
    threads = [threading.Thread(target=fn, args=args, daemon=True)
               for fn, args in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def get_json(port: int, path: str):
    conn = Connection(port)
    try:
        return conn.request("GET", path)
    finally:
        conn.close()
