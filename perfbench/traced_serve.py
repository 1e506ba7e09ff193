"""Traced launcher: wrap the program's entry points, then serve.

Usage: ``python perfbench/traced_serve.py TRACE_DIR [repro.serve args]``

Installs the span wrappers from ``spans.install_service`` before the
service forks its shard workers, runs the unchanged ``repro.serve``
CLI, and writes this process's spans to ``TRACE_DIR`` when the CLI
returns (each shard writes its own when its worker loop ends).
"""

import os
import sys
import time
from pathlib import Path

from spans import SpanRecorder, install_service


def main() -> int:
    trace_dir = Path(sys.argv[1])
    trace_dir.mkdir(parents=True, exist_ok=True)
    recorder = SpanRecorder()
    install_service(recorder, trace_dir)
    from repro.serve.__main__ import main as serve_main

    t_start = time.perf_counter_ns()
    try:
        return serve_main(sys.argv[2:])
    finally:
        recorder.dump(
            trace_dir / f"spans-server-{os.getpid()}.npz",
            role="server", t_start=t_start, t_end=time.perf_counter_ns(),
        )


if __name__ == "__main__":
    sys.exit(main())
