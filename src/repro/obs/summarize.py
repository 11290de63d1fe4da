"""Per-stage span statistics for ``repro trace summarize``.

Given a trace (JSON-lines or Chrome export, via
:func:`repro.obs.sinks.read_events`), aggregate the complete spans by
stage name and report count, mean, p50 and p99 duration plus the top-k
slowest chunks — the quickest way to answer "where did this chunk's
latency come from" without opening Perfetto — and count the instants by
name (drops, arrivals, the control plane's steps).
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Sequence

__all__ = ["summarize_events", "format_summary"]


def _percentile(ordered: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile over an ascending-sorted sequence."""
    if not ordered:
        return 0.0
    rank = max(0, min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1)))))
    return ordered[rank]


def summarize_events(
    events: Sequence[Mapping[str, Any]], top: int = 5
) -> Dict[str, Any]:
    """Aggregate span statistics per stage.

    Returns a dict with ``stages`` (one entry per span name, sorted by
    total duration descending), ``instants`` (name → count, by name) and
    overall ``events``/``spans`` counts.
    Each stage entry carries ``count``, ``total_s``, ``mean_s``,
    ``p50_s``, ``p99_s``, ``max_s`` and ``slowest`` — the ``top`` longest
    spans with their track and, when present, ``flow``/``chunk`` identity.
    """
    stages: Dict[str, List[Mapping[str, Any]]] = {}
    instants: Dict[str, int] = {}
    span_count = 0
    for event in events:
        if event.get("ph") == "i":
            name = str(event.get("name", "instant"))
            instants[name] = instants.get(name, 0) + 1
        if event.get("ph") != "X":
            continue
        span_count += 1
        stages.setdefault(str(event.get("name", "span")), []).append(event)

    stage_rows: List[Dict[str, Any]] = []
    for name, spans in stages.items():
        durations = sorted(float(span.get("dur", 0.0)) for span in spans)
        total = sum(durations)
        slowest = sorted(spans, key=lambda span: float(span.get("dur", 0.0)), reverse=True)
        slowest_rows: List[Dict[str, Any]] = []
        for span in slowest[: max(0, top)]:
            row: Dict[str, Any] = {
                "dur_s": float(span.get("dur", 0.0)),
                "ts_s": float(span.get("ts", 0.0)),
                "track": span.get("track"),
            }
            if "flow" in span:
                row["flow"] = span["flow"]
            if "chunk" in span:
                row["chunk"] = span["chunk"]
            slowest_rows.append(row)
        stage_rows.append(
            {
                "stage": name,
                "count": len(durations),
                "total_s": total,
                "mean_s": total / len(durations) if durations else 0.0,
                "p50_s": _percentile(durations, 0.50),
                "p99_s": _percentile(durations, 0.99),
                "max_s": durations[-1] if durations else 0.0,
                "slowest": slowest_rows,
            }
        )
    stage_rows.sort(key=lambda row: (-row["total_s"], row["stage"]))
    return {
        "events": len(events),
        "spans": span_count,
        "stages": stage_rows,
        "instants": dict(sorted(instants.items())),
    }


def _fmt_seconds(value: float) -> str:
    if value >= 1.0:
        return f"{value:.3f}s"
    if value >= 1e-3:
        return f"{value * 1e3:.3f}ms"
    return f"{value * 1e6:.3f}us"


def format_summary(summary: Mapping[str, Any]) -> str:
    """Render :func:`summarize_events` output as an aligned text table."""
    lines: List[str] = []
    lines.append(
        f"{summary['events']} events, {summary['spans']} spans, "
        f"{len(summary['stages'])} stages"
    )
    if summary["instants"]:
        width = max(len("instant"), *map(len, summary["instants"]))
        lines.append(f"{'instant':<{width}} {'count':>8}")
        lines.extend(
            f"{name:<{width}} {count:>8}" for name, count in summary["instants"].items()
        )
    if not summary["stages"]:
        lines.append("(no spans — was the trace recorded with tracing enabled?)")
        return "\n".join(lines)
    header = (
        f"{'stage':<18} {'count':>8} {'mean':>12} {'p50':>12} "
        f"{'p99':>12} {'max':>12} {'total':>12}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for row in summary["stages"]:
        lines.append(
            f"{row['stage']:<18} {row['count']:>8} "
            f"{_fmt_seconds(row['mean_s']):>12} {_fmt_seconds(row['p50_s']):>12} "
            f"{_fmt_seconds(row['p99_s']):>12} {_fmt_seconds(row['max_s']):>12} "
            f"{_fmt_seconds(row['total_s']):>12}"
        )
    for row in summary["stages"]:
        if not row["slowest"]:
            continue
        lines.append(f"slowest {row['stage']}:")
        for slow in row["slowest"]:
            identity = ""
            if "flow" in slow:
                identity = f"  flow={slow['flow']} chunk={slow.get('chunk')}"
            lines.append(
                f"  {_fmt_seconds(slow['dur_s']):>12} at t={slow['ts_s']:.6f}s "
                f"on {slow['track']}{identity}"
            )
    return "\n".join(lines)
