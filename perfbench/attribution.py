"""Per-layer metrics from the traced run's spans.

Each metric is computed from spans that started inside the load phase
``[t0, t1]`` (one ``CLOCK_MONOTONIC`` axis across processes), except
journal replay, which happens at start-up.  A metric whose layer did
no work in a workload reads 0 and is listed as ``n/a`` in the report.
"""

from __future__ import annotations

import numpy as np

from spans import Spans


def _sum(sp: Spans, idx, field: str = "dur") -> float:
    return float(getattr(sp, field)[idx].sum()) if len(idx) else 0.0


def _per(num: float, den: float, scale: float = 1.0):
    """``num / den * scale``, or None (n/a) when there was no work."""
    return num / den * scale if den else None


def service_layers(sp: Spans, t0: int, t1: int, posts, gets,
                   journal_bytes: float, fleet_delta: dict) -> dict:
    """Per-layer metrics of one traced service load phase.

    ``posts``/``gets`` are the load generator's successful samples in
    the phase, ``journal_bytes`` the growth of the journal files over
    it, ``fleet_delta`` the change in summed shard admission stats.
    """
    sel = lambda name: sp.select(name, t0, t1)  # noqa: E731
    ingest = sel("ServiceRunner.ingest")
    query = sel("ServiceRunner.query_block_ex")
    pmap = sel("ServiceRunner.phase_map")
    client_ingest = sel("ShardClient.ingest")
    request = sel("ShardClient.request")
    handle = sel("shard.handle")
    append = sel("StreamJournal.append_many")
    settle = sel("StreamJournal.settle")
    submit = sel("AdmissionController.submit")
    pump = sel("AdmissionController.pump")
    engine = sel("StreamEngine.ingest")
    classify = sel("classify_series")
    cut = sel("WorkerTelemetry.cut_delta")
    apply = sel("FleetView.apply")
    supervise = np.concatenate([sel("FleetView.aggregate"),
                                sel("AlertEngine.evaluate"),
                                sel("MetricsHistory.sample")])
    n_eval = len(sel("AlertEngine.evaluate"))
    window = float(t1 - t0)
    n_obs = float(sp.n[ingest].sum()) if len(ingest) else 0.0

    # ShardClient.ingest calls made on the calling thread are children
    # of ServiceRunner.ingest; fan-out calls on pool threads (R > 1)
    # are adopted by the serialized ingest span whose interval holds
    # them.
    direct = client_ingest[sp.parent[client_ingest] >= 0]
    orphans = client_ingest[sp.parent[client_ingest] < 0]
    kids = sp.adopt(ingest, orphans)
    for c in direct:
        kids.setdefault(int(sp.parent[c]), []).append(int(c))
    covered = sum(sp.covered(p, k) for p, k in kids.items())
    client_ns = _sum(sp, client_ingest)

    # Worker side: the engine work under pump, and close bursts per RPC.
    pumped = engine[np.isin(sp.parent[engine], pump)]
    burst = {}
    for c in classify:
        burst[int(sp.root[c])] = burst.get(int(sp.root[c]), 0) + \
            int(sp.dur[c])
    replay = sp.select("replay_journal")
    all_engine = sp.select("StreamEngine.ingest")
    replayed = all_engine[np.isin(sp.root[all_engine], replay)]
    workers = [m for m in sp.meta if m["role"] == "shard"]

    post_ns = sum(s.service_s for s in posts) * 1e9
    get_ns = sum(s.service_s for s in gets) * 1e9
    return {
        "api.post_self_us_per_obs": _per(
            post_ns - _sum(sp, ingest), n_obs, 1e-3),
        "api.get_self_ms": _per(get_ns - _sum(sp, query), len(query), 1e-6),
        "runner.ingest_self_us_per_obs": _per(
            _sum(sp, ingest) - covered, n_obs, 1e-3),
        "runner.fanout_overlap": _per(client_ns, _sum(sp, ingest)),
        "runner.query_ms": _per(_sum(sp, query), len(query), 1e-6),
        "runner.phase_map_ms": _per(_sum(sp, pmap), len(pmap), 1e-6),
        "runner.rejected_share": _per(_sum(sp, ingest, "aux"), n_obs),
        "shard.rpc_overhead_us_per_call": _per(
            _sum(sp, request, "self_ns") - _sum(sp, handle), len(request),
            1e-3),
        "shard.obs_per_rpc": _per(_sum(sp, client_ingest, "n"),
                                  len(client_ingest)),
        "shard.worker_busy_share": _per(_sum(sp, handle),
                                        window * len(workers)),
        "journal.append_us_per_obs": _per(
            _sum(sp, append) + _sum(sp, settle), _sum(sp, append, "n"), 1e-3),
        "journal.bytes_per_obs": _per(journal_bytes, _sum(sp, append, "n")),
        "journal.replay_us_per_obs": _per(
            _sum(sp, replay), len(replayed), 1e-3),
        "admission.submit_us_per_obs": _per(_sum(sp, submit), len(submit),
                                            1e-3),
        "admission.pump_self_us_per_obs": _per(
            _sum(sp, pump, "self_ns"), len(pumped), 1e-3),
        "admission.queue_depth_max": float(sp.aux[submit].max())
        if len(submit) else None,
        "admission.shed_share": _per(fleet_delta.get("n_shed", 0),
                                     fleet_delta.get("n_submitted", 0)),
        "engine.ingest_self_us_per_obs": _per(
            _sum(sp, engine, "self_ns"), len(engine), 1e-3),
        "engine.closes": float(len(classify)),
        "engine.close_burst_ms_max": max(burst.values()) * 1e-6
        if burst else None,
        "classify.series_us_per_call": _per(_sum(sp, classify),
                                            len(classify), 1e-3),
        "obs.cut_delta_us_per_rpc": _per(_sum(sp, cut), len(cut), 1e-3),
        "obs.delta_apply_us_per_rpc": _per(_sum(sp, apply), len(apply), 1e-3),
        "obs.supervise_cycle_ms": _per(_sum(sp, supervise), n_eval, 1e-6),
        "obs.supervise_busy_share": _per(_sum(sp, supervise), window),
    }


def blocking_path(sp: Spans, t0: int, t1: int, posts) -> list[tuple]:
    """``ingest``'s POST path as µs per observation, layer by layer.

    The layers are the spans along one POST (R = 1 dispatches shard
    RPCs one after another, so their times add up).  ``api`` is the
    client's POST time outside ``ServiceRunner.ingest`` and the shard
    RPC row is ``ShardClient.request`` time outside the worker's
    handling; whatever the client saw that no row accounts for (worker
    time outside every wrapped call: the shard loop, idempotence masks,
    span and event bookkeeping) is ``unattributed``.
    """
    sel = lambda name: sp.select(name, t0, t1)  # noqa: E731
    ingest = sel("ServiceRunner.ingest")
    n_obs = float(sp.n[ingest].sum()) if len(ingest) else 0.0
    if not n_obs:
        return []
    us = lambda ns: ns / n_obs * 1e-3  # noqa: E731
    handle = sel("shard.handle")
    worker_parts = {
        "journal (append_many + settle)": ["StreamJournal.append_many",
                                           "StreamJournal.settle"],
        "admission submit": ["AdmissionController.submit"],
        "admission pump (self)": ["AdmissionController.pump"],
        "engine ingest (self)": ["StreamEngine.ingest"],
        "classify_series (window closes)": ["classify_series"],
        "telemetry cut_delta": ["WorkerTelemetry.cut_delta"],
    }
    rows = []
    post_ns = sum(s.service_s for s in posts) * 1e9
    rows.append(("api (HTTP, JSON, executor)",
                 us(post_ns - _sum(sp, ingest))))
    client = sel("ShardClient.ingest")
    rows.append(("runner (routing, arrays, locks)",
                 us(_sum(sp, ingest) - _sum(sp, client))))
    request = sel("ShardClient.request")
    rows.append(("ShardClient.ingest (self)",
                 us(_sum(sp, client, "self_ns"))))
    rows.append(("shard RPC (pipe, pickle, wake-up)",
                 us(_sum(sp, request, "self_ns") - _sum(sp, handle))))
    rows.append(("FleetView.apply", us(_sum(sp, sel("FleetView.apply")))))
    for label, names in worker_parts.items():
        field = "self_ns" if "(self)" in label else "dur"
        rows.append((label, us(sum(_sum(sp, sel(n), field) for n in names))))
    e2e = us(post_ns)
    rows.append(("unattributed", e2e - sum(v for _, v in rows)))
    rows.append(("end to end (client POST time)", e2e))
    return rows


def batch_layers(sp: Spans, t0: int, t1: int) -> dict:
    sel = lambda name: sp.select(name, t0, t1)  # noqa: E731

    def ns_per(name):
        idx = sel(name)
        return _per(_sum(sp, idx), _sum(sp, idx, "n"))

    many = sel("classify_many")
    return {
        "classify.many_us_per_block": _per(_sum(sp, many),
                                           _sum(sp, many, "n"), 1e-3),
        "estimator.ns_per_block_round": ns_per("estimate_series"),
        "fastsim.synthesize_ns_per_block_round": ns_per(
            "synthesize_availability"),
        "fastsim.adaptive_counts_ns_per_block_round": ns_per(
            "adaptive_counts"),
        "fastsim.restart_bias_ns_per_block_round": ns_per(
            "apply_restart_bias"),
    }
