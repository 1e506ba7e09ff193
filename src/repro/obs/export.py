"""Exporters: Prometheus text, JSON snapshots, and per-run manifests.

Three consumers, three formats:

* :func:`prometheus_text` — the standard text exposition format, for
  scraping a long-lived process (counters/gauges verbatim, histograms as
  cumulative ``_bucket{le=...}`` series, meters as two derived gauges).
* :func:`json_snapshot` / :func:`write_json_snapshot` — a plain-data
  dump of every metric; CI uploads this as an artifact so a
  regression's metrics are attached to the failing run.
* :class:`RunManifest` — the "why did this run do what it did" record: a
  batch or streaming campaign's seeds, fault plan, quality gates, stage
  timings, and final metric values, serialized as JSON next to the
  checkpoint it describes.  Stage timings are a view of the registry's
  ``*_seconds`` histograms, the one source of stage timing: spans
  carry trees and ids, histograms carry the numbers.
* :func:`sparkline_svg` — a dependency-free inline-SVG sparkline over
  history points, the rendering primitive behind the service's
  ``/dashboard`` page (server-side, no scripts, styled by CSS custom
  properties so light/dark theming stays in the embedding page).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.registry import (
    Counter,
    EwmaMeter,
    Gauge,
    Histogram,
    histogram_quantile,
    render_labels,
)

__all__ = [
    "RunManifest",
    "json_snapshot",
    "prometheus_text",
    "sparkline_svg",
    "write_json_snapshot",
]


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def prometheus_text(registry) -> str:
    """Render a registry in the Prometheus text exposition format."""
    by_name: dict[str, list] = {}
    for metric in registry.collect():
        by_name.setdefault(metric.name, []).append(metric)

    lines: list[str] = []
    for name in sorted(by_name):
        group = by_name[name]
        kind = group[0].kind
        if kind == "meter":
            # Meters decompose into two gauges; emit them grouped.
            for suffix, attr in (("rate_short", "rate_short"),
                                 ("rate_long", "rate_long"),
                                 ("updates_total", "count")):
                sub = f"{name}_{suffix}"
                lines.append(
                    f"# TYPE {sub} "
                    f"{'counter' if suffix == 'updates_total' else 'gauge'}"
                )
                for metric in group:
                    labels = render_labels(metric.labels)
                    lines.append(
                        f"{sub}{labels} "
                        f"{_format_value(getattr(metric, attr))}"
                    )
            continue
        lines.append(f"# TYPE {name} {kind}")
        for metric in group:
            labels = render_labels(metric.labels)
            if isinstance(metric, (Counter, Gauge)):
                lines.append(f"{name}{labels} {_format_value(metric.value)}")
            elif isinstance(metric, Histogram):
                for edge, cumulative in metric.cumulative_buckets():
                    le = dict(metric.labels)
                    le["le"] = _format_value(edge)
                    lines.append(
                        f"{name}_bucket{render_labels(le)} {cumulative}"
                    )
                lines.append(
                    f"{name}_sum{labels} {_format_value(metric.sum)}"
                )
                lines.append(f"{name}_count{labels} {metric.count}")
    return "\n".join(lines) + ("\n" if lines else "")


def json_snapshot(registry) -> dict:
    """Plain-data snapshot of a registry, under a ``"metrics"`` key."""
    return {"metrics": registry.snapshot()}


def write_json_snapshot(path, registry, indent: int = 2) -> Path:
    """Serialize :func:`json_snapshot` to ``path``; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(json_snapshot(registry), indent=indent,
                               sort_keys=True) + "\n")
    return path


def _stage_timings(registry) -> dict:
    """Every observed ``*_seconds`` histogram series, summarised.

    Keyed by series (name plus rendered labels), sorted; each entry
    holds ``count``, ``total_s``, ``mean_s`` and the interpolated
    ``p99_s``.  Series with no observations are left out.
    """
    timings = {}
    for metric in registry.collect():
        if (not isinstance(metric, Histogram)
                or not metric.name.endswith("_seconds") or not metric.count):
            continue
        timings[metric.name + render_labels(metric.labels)] = {
            "count": metric.count,
            "total_s": metric.sum,
            "mean_s": metric.sum / metric.count,
            "p99_s": histogram_quantile([metric], 0.99),
        }
    return dict(sorted(timings.items()))


@dataclass
class RunManifest:
    """Everything needed to explain (and re-run) one campaign.

    Attributes:
        kind: what produced it (``"batch"``, ``"stream"``, free-form).
        seed: the run's root seed (None when not applicable).
        n_blocks: blocks the run covered.
        fault_plan: human-readable fault scenario (``FaultPlan.describe``).
        quality_gates: the classifier's refusal thresholds, as a dict.
        stage_timings: per-series summaries of the registry's
            ``*_seconds`` histograms (count, total_s, mean_s, p99_s).
        metrics: final registry snapshot.
        extra: free-form additions (dataset name, git rev, ...).
        created_unix: wall-clock creation time (``time.time()``).
    """

    kind: str
    seed: int | None = None
    n_blocks: int | None = None
    fault_plan: str | None = None
    quality_gates: dict = field(default_factory=dict)
    stage_timings: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)
    created_unix: float = 0.0

    @classmethod
    def capture(
        cls,
        kind: str,
        registry=None,
        seed: int | None = None,
        n_blocks: int | None = None,
        fault_plan: str | None = None,
        quality_gates: dict | None = None,
        **extra,
    ) -> "RunManifest":
        """Snapshot the current registry state into a manifest."""
        return cls(
            kind=kind,
            seed=seed,
            n_blocks=n_blocks,
            fault_plan=fault_plan,
            quality_gates=dict(quality_gates or {}),
            stage_timings=(
                _stage_timings(registry) if registry is not None else {}
            ),
            metrics=registry.snapshot() if registry is not None else {},
            extra=extra,
            created_unix=time.time(),
        )

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "seed": self.seed,
            "n_blocks": self.n_blocks,
            "fault_plan": self.fault_plan,
            "quality_gates": self.quality_gates,
            "stage_timings": self.stage_timings,
            "metrics": self.metrics,
            "extra": self.extra,
            "created_unix": self.created_unix,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def save(self, path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json() + "\n")
        return path

    @classmethod
    def load(cls, path) -> "RunManifest":
        data = json.loads(Path(path).read_text())
        return cls(**data)


def sparkline_svg(
    points,
    width: int = 240,
    height: int = 48,
    value_key: str = "mean",
    band: bool = True,
) -> str:
    """Render history points as one inline SVG sparkline.

    ``points`` is a :meth:`~repro.obs.history.MetricsHistory.range`
    result's point list (``{t, min, max, mean, last, count}``).  The
    main trace is a 2px polyline of ``value_key``; when ``band`` is
    set and any point's min/max straddle its mean (i.e. the window
    includes rollup buckets), a translucent min→max band is drawn
    behind it so compacted spikes stay visible.

    Colors come from CSS custom properties (``--series-1``,
    ``--muted``) so the embedding page owns light/dark theming; the
    SVG itself is theme-neutral and dependency-free.
    """
    points = [
        p for p in points
        if _finite(p.get(value_key)) and _finite(p.get("t"))
    ]
    if len(points) < 2:
        return (
            f'<svg class="spark" viewBox="0 0 {width} {height}" '
            f'width="{width}" height="{height}" role="img" '
            f'aria-label="no data">'
            f'<line x1="0" y1="{height / 2:g}" x2="{width}" '
            f'y2="{height / 2:g}" stroke="var(--muted, #898781)" '
            'stroke-width="1" stroke-dasharray="2 4"/></svg>'
        )
    t0 = points[0]["t"]
    t1 = points[-1]["t"]
    span = (t1 - t0) or 1.0
    lo = min(min(p["min"] for p in points), 0.0)
    hi = max(p["max"] for p in points)
    if hi == lo:
        hi = lo + 1.0
    pad = 3.0
    usable = height - 2 * pad

    def x(t: float) -> float:
        return (t - t0) / span * width

    def y(v: float) -> float:
        return pad + (1.0 - (v - lo) / (hi - lo)) * usable

    def fmt(v: float) -> str:
        return f"{v:.2f}".rstrip("0").rstrip(".") or "0"

    trace = " ".join(
        f"{fmt(x(p['t']))},{fmt(y(p[value_key]))}" for p in points
    )
    parts = [
        f'<svg class="spark" viewBox="0 0 {width} {height}" '
        f'width="{width}" height="{height}" role="img" '
        f'aria-label="sparkline, latest {points[-1][value_key]:g}">'
    ]
    if band and any(p["max"] > p["min"] for p in points):
        upper = [f"{fmt(x(p['t']))},{fmt(y(p['max']))}" for p in points]
        lower = [
            f"{fmt(x(p['t']))},{fmt(y(p['min']))}"
            for p in reversed(points)
        ]
        parts.append(
            f'<polygon points="{" ".join(upper + lower)}" '
            'fill="var(--series-1, #2a78d6)" fill-opacity="0.15" '
            'stroke="none"/>'
        )
    parts.append(
        f'<polyline points="{trace}" fill="none" '
        'stroke="var(--series-1, #2a78d6)" stroke-width="2" '
        'stroke-linejoin="round" stroke-linecap="round"/>'
    )
    parts.append("</svg>")
    return "".join(parts)


def _finite(value) -> bool:
    return (
        isinstance(value, (int, float))
        and value == value
        and value not in (float("inf"), float("-inf"))
    )
