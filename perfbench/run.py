"""The repository benchmark: one command, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload {ingest,read_mix,batch_study} \\
        --seed N --seconds S --trace {0,1}

``--trace 0`` measures the untraced program and prints the end-to-end
metrics; ``--trace 1`` measures an untraced phase and then a traced
one, and prints the per-layer metrics, the untraced workload-specific
latencies and the tracing overhead.  Human-readable lines come first;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A failed correctness check
prints ``"correct": false`` and exits 1.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from attribution import batch_layers, blocking_path, service_layers
from checks import check_blocks, check_study_chunk, study_digest
from loadgen import (Connection, closed_loop_ingest, get_json, open_loop,
                     run_threads)
from service import Service
from spans import SpanRecorder, Spans, install_batch
from workloads import (SPECS, WINDOW_ROUNDS, Fleet, schedule, study_args,
                       zipf_keys)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

END_TO_END = {
    "setup_s": "s",
    "ingest_obs_per_s": "obs/s",
    "cpu_ms_per_kobs": "ms",
    "rss_mb": "MB",
}
# Untraced workload-specific end-to-end figures, reported by the
# traced run beside the layers (see README: why they are not bounded).
WORKLOAD_E2E = {
    "ingest_p50_ms": "ms",
    "ingest_p99_ms": "ms",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
    "phase_map_p50_ms": "ms",
    "failed_share": "ratio",
    "study_blocks_per_s": "blocks/s",
}
# Printed beside the end-to-end metrics: shed work is not failed work,
# but a run that sheds must not pass for a fast one.
REPORTED = {**WORKLOAD_E2E, "shed_share": "ratio"}
PER_LAYER = {
    "api.post_self_us_per_obs": "us",
    "api.get_self_ms": "ms",
    "runner.ingest_self_us_per_obs": "us",
    "runner.fanout_overlap": "ratio",
    "runner.query_ms": "ms",
    "runner.phase_map_ms": "ms",
    "runner.rejected_share": "ratio",
    "shard.rpc_overhead_us_per_call": "us",
    "shard.obs_per_rpc": "obs",
    "shard.worker_busy_share": "ratio",
    "journal.append_us_per_obs": "us",
    "journal.bytes_per_obs": "B",
    "journal.replay_us_per_obs": "us",
    "admission.submit_us_per_obs": "us",
    "admission.pump_self_us_per_obs": "us",
    "admission.queue_depth_max": "count",
    "admission.shed_share": "ratio",
    "engine.ingest_self_us_per_obs": "us",
    "engine.closes": "count",
    "engine.close_burst_ms_max": "ms",
    "classify.series_us_per_call": "us",
    "classify.many_us_per_block": "us",
    "estimator.ns_per_block_round": "ns",
    "fastsim.synthesize_ns_per_block_round": "ns",
    "fastsim.adaptive_counts_ns_per_block_round": "ns",
    "fastsim.restart_bias_ns_per_block_round": "ns",
    "obs.cut_delta_us_per_rpc": "us",
    "obs.delta_apply_us_per_rpc": "us",
    "obs.supervise_cycle_ms": "ms",
    "obs.supervise_busy_share": "ratio",
    "loadgen.lag_p99_ms": "ms",
    "blocking.e2e_us_per_obs": "us",
    "blocking.unattributed_us_per_obs": "us",
    "trace.overhead_share": "ratio",
    **WORKLOAD_E2E,
}
SETUP_REPEATS = 5
TICK_S = 1.0


class CheckFailed(Exception):
    pass


def percentile(values, q: float):
    """(value, n) for quantile ``q``; value is None unless at least ten
    samples lie beyond it."""
    n = len(values)
    if n == 0 or n * (1.0 - q) < 10:
        return None, n
    return float(sorted(values)[min(n - 1, int(q * n))]), n


def run_record(args) -> dict:
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_rev": rev,
        "src_sha256": digest.hexdigest()[:16],
    }


# -- service workloads -------------------------------------------------------


def _journal_bytes(journal_dir: Path) -> int:
    return sum(p.stat().st_size for p in journal_dir.glob("*.journal"))


def _fleet_stats(port: int) -> dict:
    status, raw = get_json(port, "/fleet")
    if status != 200:
        raise CheckFailed(f"GET /fleet answered {status}")
    totals = {"n_shed": 0, "n_submitted": 0}
    for shard in json.loads(raw)["shards"].values():
        for k in totals:
            totals[k] += shard.get("stats", {}).get(k, 0)
    return totals


class Phase:
    """One measured load phase against one running service.

    ``ticks`` are ``(perf_counter, service CPU seconds)`` pairs taken
    every ``TICK_S``; throughput and CPU cost are the medians over those
    windows, so a few seconds of interference from outside the run
    moves them less than it moves a whole-phase average.
    """

    def __init__(self, samples, t0: float, t1: float, ticks: list,
                 rss_mb: float, bytes_: int, fleet_delta: dict) -> None:
        self.samples = samples
        self.t0, self.t1 = t0, t1
        self.ticks = ticks
        self.rss_mb = rss_mb
        self.journal_bytes = bytes_
        self.fleet_delta = fleet_delta

    def ok(self, kind: str):
        return [s for s in self.samples if s.kind == kind and not s.failed]

    def windows(self) -> tuple[list, list]:
        """Per-window accepted obs/s and CPU ms per 1000 accepted obs."""
        done = sorted((s.done, s.n_obs) for s in self.ok("post"))
        times = [d for d, _ in done]
        cum = [0]
        for _, n in done:
            cum.append(cum[-1] + n)
        rates, costs = [], []
        for (ta, ca), (tb, cb) in zip(self.ticks, self.ticks[1:]):
            obs = cum[bisect.bisect_right(times, tb)] - \
                cum[bisect.bisect_right(times, ta)]
            rates.append(obs / (tb - ta))
            if obs:
                costs.append((cb - ca) * 1e3 / (obs / 1e3))
        return rates, costs

    def figures(self) -> dict:
        """Untraced end-to-end figures of this phase (value, n)."""
        rates, costs = self.windows()
        lat = {k: [s.latency_s * 1e3 for s in self.ok(k)]
               for k in ("post", "get", "phase_map")}
        failed = sum(s.failed for s in self.samples)
        lag = [(s.sent - s.due) * 1e3 for s in self.samples]
        return {
            "ingest_obs_per_s": (statistics.median(rates), len(rates)),
            "cpu_ms_per_kobs": (statistics.median(costs), len(costs)),
            "rss_mb": (self.rss_mb, 1),
            "ingest_p50_ms": percentile(lat["post"], 0.50),
            "ingest_p99_ms": percentile(lat["post"], 0.99),
            "query_p50_ms": percentile(lat["get"], 0.50),
            "query_p99_ms": percentile(lat["get"], 0.99),
            "phase_map_p50_ms": percentile(lat["phase_map"], 0.50),
            "failed_share": (failed / len(self.samples), len(self.samples)),
            "shed_share": (self.fleet_delta["n_shed"]
                           / max(1, self.fleet_delta["n_submitted"]),
                           self.fleet_delta["n_submitted"]),
            "loadgen.lag_p99_ms": percentile(lag, 0.99),
        }


def measure(svc, load) -> Phase:
    """Run ``load(port, samples)`` and take the service's figures."""
    bytes0 = _journal_bytes(svc.journal_dir)
    fleet0 = _fleet_stats(svc.port)
    samples: list = []
    ticks = [(time.perf_counter(), svc.cpu_s())]
    stop = threading.Event()

    def tick():
        while not stop.wait(TICK_S):
            ticks.append((time.perf_counter(), svc.cpu_s()))

    ticker = threading.Thread(target=tick, daemon=True)
    ticker.start()
    t0 = ticks[0][0]
    try:
        load(svc.port, samples)
    finally:
        stop.set()
        ticker.join()
    t1 = time.perf_counter()
    ticks.append((t1, svc.cpu_s()))
    rss = svc.peak_rss_mb()
    fleet1 = _fleet_stats(svc.port)
    return Phase(samples, t0, t1, ticks, rss,
                 _journal_bytes(svc.journal_dir) - bytes0,
                 {k: fleet1[k] - fleet0[k] for k in fleet0})


def last_rounds(fleet, samples, slices, before: int) -> tuple[dict, set]:
    """Newest round fed per block, and the slices a failed POST left
    uncertain (their blocks are not checked)."""
    newest = {s: before for s in range(len(slices))}
    uncertain = set()
    for sample in samples:
        if sample.kind != "post":
            continue
        s, r = sample.slice_round
        if sample.failed:
            uncertain.add(s)
        else:
            newest[s] = max(newest[s], r)
    out = {}
    for s, idx in enumerate(slices):
        for i in idx:
            out[int(i)] = newest[s]
    return out, uncertain


def verify_service(port: int, fleet, slices, last_round: dict,
                   uncertain: set, sample_idx, with_phase_map: bool):
    """Query the checked blocks and compare with the batch oracle."""
    skip = {int(i) for s in uncertain for i in slices[s]}
    indices = [int(i) for i in sample_idx if int(i) not in skip]
    conn = Connection(port)
    states = {}
    try:
        for i in indices:
            status, raw = conn.request(
                "GET", f"/blocks/{int(fleet.keys[i])}/state")
            if status == 200:
                states[i] = json.loads(raw)
        phase_map = None
        if with_phase_map:
            status, raw = conn.request("GET", "/phase-map")
            if status != 200:
                raise CheckFailed(f"GET /phase-map answered {status}")
            phase_map = json.loads(raw)["blocks"]
    finally:
        conn.close()
    problems = check_blocks(fleet, indices, last_round, states, phase_map)
    return len(indices), problems


def ingest_load(fleet, spec, deadline_s: float, first_round: int = 0,
                n_rounds: int = 10 ** 9, min_rounds: int = WINDOW_ROUNDS + 1):
    """Closed loop: one thread per prober site, each owning its slices."""
    slices = fleet.slices(spec.params["slice_blocks"])
    n_sites = spec.params["n_sites"]
    sites = [[(s, idx) for s, idx in enumerate(slices) if s % n_sites == k]
             for k in range(n_sites)]
    rounds = range(first_round, first_round + n_rounds)

    def load(port, samples):
        deadline = time.perf_counter() + deadline_s
        per_site = [[] for _ in sites]
        run_threads([(closed_loop_ingest,
                      (port, fleet, site, rounds, deadline, per_site[k],
                       min_rounds))
                     for k, site in enumerate(sites)])
        for part in per_site:
            samples.extend(part)

    return load


def read_mix_load(fleet, spec, seed: int, seconds: float, first_round: int):
    """Open loop: POSTs on one connection, GETs on the other."""
    p = spec.params
    slices = fleet.slices(p["slice_blocks"])
    post_ops = []
    for k, due in enumerate(schedule(p["post_rate_per_s"], seconds)):
        s = k % len(slices)
        r = first_round + k // len(slices)
        post_ops.append((due, "post", "POST", "/observations",
                         fleet.body(slices[s], r),
                         {"n_obs": len(slices[s]), "slice_round": (s, r)}))
    q_due = schedule(p["query_rate_per_s"], seconds)
    keys = zipf_keys(fleet, len(q_due), p["zipf_s"], seed)
    read_ops = [(due, "get", "GET", f"/blocks/{int(key)}/state", None, {})
                for due, key in zip(q_due, keys)]
    read_ops += [(due, "phase_map", "GET", "/phase-map", None, {})
                 for due in schedule(p["phase_map_rate_per_s"], seconds,
                                     start=0.5 / p["phase_map_rate_per_s"])]
    read_ops.sort(key=lambda op: op[0])

    def load(port, samples):
        t_zero = time.perf_counter() + 0.05
        parts = [[], []]
        run_threads([(open_loop, (port, post_ops, t_zero, parts[0])),
                     (open_loop, (port, read_ops, t_zero, parts[1]))])
        samples.extend(parts[0] + parts[1])

    return load


def run_service(args, work: Path) -> dict:
    spec = SPECS[args.workload]
    fleet = Fleet(args.seed, spec.params["n_blocks"])
    slices = fleet.slices(spec.params["slice_blocks"])
    rng = np.random.default_rng([args.seed, 0xC4EC])
    if args.workload == "ingest":
        check_idx = np.sort(rng.choice(fleet.n_blocks, 400, replace=False))
    else:
        check_idx = np.arange(fleet.n_blocks)
    preload = spec.params.get("preload_rounds", 0)

    def journal(tag: str) -> Path:
        path = work / tag
        if args.workload == "read_mix":
            shutil.copytree(work / "preloaded", path)
        return path

    if args.workload == "read_mix":
        # Write the journal the restarts recover from, through the same
        # (replicated) service.
        svc = Service(work / "preloaded", spec.serve_args)
        try:
            phase = measure(svc, ingest_load(fleet, spec, 600.0, 0, preload))
        finally:
            svc.stop()
        if any(s.failed for s in phase.samples):
            raise CheckFailed("preload POSTs failed")

    def load_for():
        if args.workload == "ingest":
            return ingest_load(fleet, spec, args.seconds)
        return read_mix_load(fleet, spec, args.seed, args.seconds, preload)

    def one_phase(tag: str, trace_dir=None, setups=None):
        """Launch (repeatedly for set-up), load, verify, stop."""
        n_launch = SETUP_REPEATS if setups is not None else 1
        for k in range(n_launch):
            svc = Service(journal(f"{tag}-{k}"), spec.serve_args,
                          trace_dir=trace_dir)
            if setups is not None:
                setups.append(svc.setup_s)
            if k < n_launch - 1:
                svc.stop()
        try:
            phase = measure(svc, load_for())
            last, uncertain = last_rounds(fleet, phase.samples, slices,
                                          preload - 1)
            n_checked, problems = verify_service(
                svc.port, fleet, slices, last, uncertain, check_idx,
                with_phase_map=args.workload == "read_mix")
        finally:
            svc.stop()
        return phase, n_checked, problems

    setups: list = []
    phase, n_checked, problems = one_phase(
        "untraced", setups=setups if not args.trace else None)
    out = {"spec": spec, "report": [], "checked": [(n_checked, problems)],
           "attempted": len(phase.samples),
           "failed": sum(s.failed for s in phase.samples)}
    figures = phase.figures()
    if not args.trace:
        figures["setup_s"] = (statistics.median(setups), len(setups))
        out["figures"] = figures
        return out

    trace_dir = work / "spans"
    traced, n_checked, problems = one_phase("traced", trace_dir=trace_dir)
    out["checked"].append((n_checked, problems))
    out["attempted"] += len(traced.samples)
    out["failed"] += sum(s.failed for s in traced.samples)
    sp = Spans(trace_dir.glob("spans-*.npz"))
    t0, t1 = int(traced.t0 * 1e9), int(traced.t1 * 1e9)
    layers = service_layers(sp, t0, t1, traced.ok("post"), traced.ok("get"),
                            traced.journal_bytes, traced.fleet_delta)
    if args.workload == "ingest":
        rows = blocking_path(sp, t0, t1, traced.ok("post"))
        out["blocking"] = rows
        layers["blocking.e2e_us_per_obs"] = rows[-1][1]
        layers["blocking.unattributed_us_per_obs"] = rows[-2][1]
        base = figures["ingest_obs_per_s"][0]
        layers["trace.overhead_share"] = (
            base / traced.figures()["ingest_obs_per_s"][0] - 1.0)
    else:
        base = figures["query_p50_ms"][0]
        layers["trace.overhead_share"] = (
            traced.figures()["query_p50_ms"][0] / base - 1.0)
    for name in WORKLOAD_E2E:
        if name in figures:
            layers[name] = figures[name]
    if spec.loop == "open":
        layers["loadgen.lag_p99_ms"] = figures["loadgen.lag_p99_ms"]
    out["figures"] = layers
    return out


# -- batch workload ----------------------------------------------------------

_WORLD_SETUP = """
from repro.analysis.study import GlobalStudy
from repro.simulation.internet import WorldConfig, generate_world
generate_world(WorldConfig(n_blocks={n_blocks}, seed={seed}))
"""


def run_batch(args, work: Path) -> dict:
    spec = SPECS["batch_study"]
    kw = study_args(args.seed)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    setups = []
    if not args.trace:
        # Set-up: a fresh interpreter importing the study code and
        # building the seeded world, timed from launch.
        code = _WORLD_SETUP.format(n_blocks=kw["n_blocks"], seed=kw["seed"])
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True,
                           capture_output=True, cwd=ROOT, timeout=120)
            setups.append(time.perf_counter() - t0)

    from repro.analysis.study import GlobalStudy
    from repro.probing.rounds import RoundSchedule

    n_rounds = RoundSchedule.for_days(kw["days"]).n_rounds

    def phase(seconds: float):
        walls, cpus, digests = [], [], []
        deadline = time.perf_counter() + seconds
        t_start = time.perf_counter()
        # Stop before a repetition that would overrun the measured time.
        while not walls or time.perf_counter() + walls[-1] <= deadline:
            c0, t0 = time.process_time(), time.perf_counter()
            study = GlobalStudy.run(**kw)
            walls.append(time.perf_counter() - t0)
            cpus.append(time.process_time() - c0)
            digests.append(study_digest(study))
        return walls, cpus, digests, study, t_start, time.perf_counter()

    walls, cpus, digests, study, _, _ = phase(args.seconds)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    n = kw["n_blocks"]
    wall = statistics.median(walls)
    figures = {
        "ingest_obs_per_s": (n * n_rounds / wall, len(walls)),
        "cpu_ms_per_kobs": (statistics.median(cpus) * 1e3
                            / (n * n_rounds / 1e3), len(cpus)),
        "rss_mb": (rss, 1),
        "study_blocks_per_s": (n / wall, len(walls)),
        "failed_share": (0.0, len(walls)),
    }
    out = {"spec": spec, "report": [], "attempted": len(walls), "failed": 0}
    chunk = args.seed % ((n + 1999) // 2000)
    problems = [f"repetition {k}: {d} != {digests[0]}"
                for k, d in enumerate(digests) if d != digests[0]]
    problems += check_study_chunk(study, chunk)
    out["checked"] = [(min(2000, n - 2000 * chunk), problems)]
    out["report"].append(f"study digest {digests[0]}")
    if not args.trace:
        figures["setup_s"] = (statistics.median(setups), len(setups))
        out["figures"] = figures
        return out

    recorder = SpanRecorder()
    install_batch(recorder)
    t_walls, _, t_digests, _, t0, t1 = phase(args.seconds)
    out["attempted"] += len(t_walls)
    if any(d != digests[0] for d in t_digests):
        out["checked"].append((n, ["traced study differs from untraced"]))
    path = work / "spans-batch.npz"
    recorder.dump(path, role="batch")
    layers = batch_layers(Spans([path]), int(t0 * 1e9), int(t1 * 1e9))
    layers["trace.overhead_share"] = (
        statistics.median(t_walls) / wall - 1.0)
    for name in WORKLOAD_E2E:
        if name in figures:
            layers[name] = figures[name]
    out["figures"] = layers
    return out


# -- reporting ---------------------------------------------------------------


def _fmt(value, n) -> str:
    """A figure with its sample count; ``n`` is None for layer ratios."""
    if value is None:
        return "n/a" if n is None else f"n/a (n={n}, too few samples)"
    return f"{value:.6g}" if n is None else f"{value:.6g} (n={n})"


def emit(args, out: dict, record: dict) -> int:
    spec = out["spec"]
    print(f"# workload {spec.name}: {spec.loop} loop; {spec.load}")
    print(f"#   why: {spec.why}")
    problems = [p for _, ps in out["checked"] for p in ps]
    for n_checked, ps in out["checked"]:
        print(f"# correctness: {n_checked} checked, {len(ps)} problems")
    for p in problems[:20]:
        print(f"#   CHECK FAILED {p}")
    for line in out["report"]:
        print(f"# {line}")
    figures = {k: v if isinstance(v, tuple) else (v, None)
               for k, v in out["figures"].items()}
    if not args.trace:
        for name, unit in REPORTED.items():
            if name in figures:
                print(f"# {name} [{unit}] {_fmt(*figures[name])}")
    metrics = {}
    for name, unit in (PER_LAYER if args.trace else END_TO_END).items():
        value, n = figures.get(name, (None, None))
        print(f"{name} [{unit}] {_fmt(value, n)}")
        metrics[name] = {"value": 0.0 if value is None else float(value),
                         "unit": unit}
    for label, us in out.get("blocking", []):
        print(f"# blocking path  {label:<40} {us:10.3f} us/obs")
    record.update(correct=not problems, attempted=out["attempted"],
                  failed=out["failed"], figures=figures)
    WORK.mkdir(exist_ok=True)
    with open(WORK / "runs.jsonl", "a") as log:
        log.write(json.dumps(record) + "\n")
    print("# run record " + json.dumps(
        {k: v for k, v in record.items() if k != "figures"}))
    print(json.dumps({"correct": not problems, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["ingest", "read_mix", "batch_study"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "serve" / "__main__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    record = run_record(args)
    record["workload_spec"] = SPECS[args.workload].describe()
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "batch_study":
            out = run_batch(args, work)
        else:
            out = run_service(args, work)
    except CheckFailed as error:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return emit(args, out, record)


if __name__ == "__main__":
    sys.exit(main())
