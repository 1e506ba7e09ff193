"""Repeat mode: run workloads over several seeds and summarise the spread.

Usage (from the repository root)::

    python3 perfbench/repeat.py --workloads ingest,read_mix,batch_study \\
        --seeds 1-10 --seconds 20 [--trace 0|1]

Runs ``perfbench/run.py`` once per (seed, workload), interleaving the
workloads so a slow stretch of the machine does not land on one of
them, and prints for every metric its median, its first and third
quartiles (``statistics.quantiles(n=4)``) and the inter-quartile range
as a share of the median.  Exits 1 if any run fails or is incorrect.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default="ingest,read_mix,batch_study")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    ok = True
    for seed in _seeds(args.seeds):
        for workload in workloads:
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload,
                 "--seed", str(seed), "--seconds", args.seconds,
                 "--trace", args.trace],
                capture_output=True, text=True, cwd=RUN.parent.parent,
            )
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                result = None
            if proc.returncode != 0 or result is None \
                    or not result["correct"]:
                ok = False
                print(f"{workload} seed {seed}: FAILED "
                      f"(exit {proc.returncode})\n{proc.stderr[-2000:]}")
                continue
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}"
                for k, v in result["metrics"].items()), flush=True)
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
    for workload, metrics in values.items():
        for name, vals in metrics.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"{workload:12s} {name:44s} median {med:12.6g} "
                  f"q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:.4f}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
