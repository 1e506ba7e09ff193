"""Run ``python -m repro.serve`` as a separate process and watch it.

``Service`` launches the CLI (or the traced launcher, which wraps the
program's entry points and then runs the same CLI), reads the bound
port from its first stdout line, and counts set-up as the time from
launch until ``GET /healthz`` answers 200.  CPU time and peak resident
memory of the server and its shard workers come from ``/proc``.
``stop`` sends SIGTERM, which makes the service drain (journals
fsynced, manifest written), and waits for the whole process group.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from http.client import HTTPConnection
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


class ServiceError(RuntimeError):
    pass


class Service:
    def __init__(self, journal_dir: Path, serve_args, trace_dir=None,
                 timeout_s: float = 120.0) -> None:
        self.journal_dir = Path(journal_dir)
        self.journal_dir.mkdir(parents=True, exist_ok=True)
        self.log_path = self.journal_dir / "service-stderr.log"
        cmd = [sys.executable]
        if trace_dir is not None:
            cmd += [str(BENCH_DIR / "traced_serve.py"), str(trace_dir)]
        else:
            cmd += ["-m", "repro.serve"]
        cmd += ["--port", "0", "--journal-dir", str(self.journal_dir),
                *serve_args]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        t0 = time.perf_counter()
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(
                cmd, stdout=subprocess.PIPE, stderr=log, env=env,
                cwd=str(ROOT), start_new_session=True, text=True,
            )
        try:
            line = self.proc.stdout.readline()
            if not line.startswith("serving on http://"):
                raise ServiceError(
                    f"service did not start: {line!r} {self._log_tail()}"
                )
            self.port = int(line.split()[2].rsplit(":", 1)[1])
            deadline = t0 + timeout_s
            while True:
                status = self._healthz()
                if status == 200:
                    break
                if time.perf_counter() > deadline:
                    raise ServiceError(f"/healthz answered {status}")
                time.sleep(0.01)
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - t0

    def _healthz(self):
        conn = HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            response.read()
            return response.status
        except OSError:
            return None
        finally:
            conn.close()

    def pids(self) -> list[int]:
        """The server and every process it started (the shard workers)."""
        out, todo = [], [self.proc.pid]
        while todo:
            pid = todo.pop()
            out.append(pid)
            try:
                tasks = os.listdir(f"/proc/{pid}/task")
            except FileNotFoundError:
                continue
            for tid in tasks:
                try:
                    text = Path(f"/proc/{pid}/task/{tid}/children").read_text()
                except FileNotFoundError:
                    continue
                todo.extend(int(c) for c in text.split())
        return out

    def cpu_s(self) -> float:
        """User + system CPU seconds of the server and its workers."""
        total = 0
        for pid in self.pids():
            try:
                stat = Path(f"/proc/{pid}/stat").read_text()
            except FileNotFoundError:
                continue
            fields = stat.rsplit(")", 1)[1].split()
            total += int(fields[11]) + int(fields[12])
        return total * _TICK_S

    def peak_rss_mb(self) -> float:
        """Sum of each process's peak resident set (``VmHWM``), in MB."""
        total_kb = 0
        for pid in self.pids():
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except FileNotFoundError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def stop(self, timeout_s: float = 60.0) -> None:
        """Graceful drain via SIGTERM; kill the group if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=timeout_s)
            except subprocess.TimeoutExpired:
                self.kill()
                raise ServiceError("service did not drain in time")
        self.kill()
        if self.proc.returncode not in (0, -signal.SIGTERM):
            raise ServiceError(
                f"service exited {self.proc.returncode}: {self._log_tail()}"
            )

    def _log_tail(self) -> str:
        return self.log_path.read_text()[-2000:]

    def kill(self) -> None:
        """Kill whatever is left of the process group and reap it."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.proc.wait()
        self.proc.stdout.close()
