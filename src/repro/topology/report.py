"""What a topology run reports, and the one fold that builds it.

:class:`TopologyReport` (with its per-flow :class:`FlowResult` entries) is
the single object everything the paper's evaluation reads leaves the
simulator through.  :func:`fold_report` is the only code that builds one:
it folds per-flow results into the all-flow integrity totals and the
``endtoend.latency`` distribution, sums the volumes and measures the
learning delay.  The monolithic engine calls it on its own flows and the
shard merge calls it on the concatenated shard results, so "monolithic ≡
one shard ≡ N shards" holds by construction, not by two code paths
agreeing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.exceptions import TopologyError
from repro.replay.metrics import IntegrityResult, MetricsRegistry
from repro.topology.spec import TopologySpec

__all__ = ["FlowResult", "TopologyReport", "learning_delay", "fold_report"]


@dataclass
class FlowResult:
    """One flow's outcome: identity, volumes, integrity, latency."""

    name: str
    source: str
    seed: int
    chunks_sent: int
    payload_bytes_sent: int
    frames_sent: int
    delivered: int
    integrity: Optional[IntegrityResult]
    latency: Dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-friendly view (one entry of the report's ``flows`` list)."""
        return {
            **vars(self),
            "integrity": None if self.integrity is None else self.integrity.as_dict(),
            "latency": dict(self.latency),
        }


@dataclass
class TopologyReport:
    """Everything one topology run produced.

    The one report every run returns — ``repro replay``, ``repro
    topology`` and each scenario of the experiment matrix print or export
    it — so the matrix's dotted metric paths (``compression_ratio``,
    ``integrity.missing``, ``metrics.counters.link0.dropped_loss``) resolve
    the same way on every shape.  ``flows`` is the per-flow breakdown and
    ``metrics`` carries per-link and per-flow attribution (``flow.<name>.*``
    counters and latency distributions).
    """

    topology: str
    scenario: str
    chunks_sent: int
    payload_bytes_sent: int
    wire_payload_bytes: int
    duration: float
    integrity: Optional[IntegrityResult]
    flows: List[FlowResult] = field(default_factory=list)
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    learning_time: Optional[float] = None

    @property
    def compression_ratio(self) -> Optional[float]:
        """Payload bytes on the measured link over original payload bytes.

        ``None`` when no raw chunks were injected (e.g. a decoder-only
        replay of a processed trace) — there is no meaningful ratio then.
        """
        if self.payload_bytes_sent == 0:
            return None
        return self.wire_payload_bytes / self.payload_bytes_sent

    @property
    def savings_percent(self) -> Optional[float]:
        """Percentage of payload bytes the compression removed (or ``None``)."""
        ratio = self.compression_ratio
        if ratio is None:
            return None
        return 100.0 * (1.0 - ratio)

    def latency_summary(self) -> Dict[str, float]:
        """End-to-end latency percentiles in seconds (empty dict when unknown)."""
        dist = self.metrics.distributions().get("endtoend.latency")
        if dist is None or dist.empty:
            return {}
        return dist.summary()

    def flow(self, name: str) -> FlowResult:
        """Look up one flow's result by name."""
        for result in self.flows:
            if result.name == name:
                return result
        known = ", ".join(result.name for result in self.flows) or "none"
        raise TopologyError(f"unknown flow {name!r}; flows: {known}")

    def as_dict(self) -> Dict[str, Any]:
        """JSON-friendly view of the whole report."""
        return {
            "topology": self.topology,
            "scenario": self.scenario,
            "chunks_sent": self.chunks_sent,
            "payload_bytes_sent": self.payload_bytes_sent,
            "wire_payload_bytes": self.wire_payload_bytes,
            "compression_ratio": self.compression_ratio,
            "savings_percent": self.savings_percent,
            "duration": self.duration,
            "learning_time": self.learning_time,
            "integrity": None if self.integrity is None else self.integrity.as_dict(),
            "latency": self.latency_summary(),
            "metrics": self.metrics.as_dict(),
            "flows": [flow.as_dict() for flow in self.flows],
        }

    def json_text(self) -> str:
        """Canonical JSON — the determinism witness (same spec ⇒ same bytes)."""
        return json.dumps(self.as_dict(), indent=2, sort_keys=True, default=str)

    def render(self, include_counters: bool = False) -> str:
        """Human-readable report: headline, per-flow table, counters."""
        from repro.analysis.reporting import format_table

        ratio, savings = self.compression_ratio, self.savings_percent
        learning = "n/a" if self.learning_time is None else (
            f"{self.learning_time * 1e3:.3f} ms"
        )
        headline: List[List[object]] = [
            ["topology", self.topology],
            ["scenario", self.scenario],
            ["flows", len(self.flows)],
            ["chunks sent", f"{self.chunks_sent:,}"],
            ["payload bytes sent", f"{self.payload_bytes_sent:,}"],
            ["bytes on the measured link", f"{self.wire_payload_bytes:,}"],
            ["compression ratio", "n/a" if ratio is None else f"{ratio:.4f}"],
            ["savings", "n/a" if savings is None else f"{savings:.1f} %"],
            ["duration", f"{self.duration * 1e3:.3f} ms"],
            ["learning delay", learning],
        ]
        latency = self.latency_summary()
        headline += [
            [f"latency {key}", f"{latency[key] * 1e6:.3f} us"]
            for key in ("p50", "p90", "p99", "max")
            if key in latency
        ]
        integrity = self.integrity
        if integrity is not None:
            headline += [
                ["lossless", "yes" if integrity.lossless_in_order else "NO"],
                ["integrity intact", "yes" if integrity.intact else "NO"],
                ["chunks lost", f"{integrity.missing:,}"],
                ["chunks corrupted", f"{integrity.corrupted:,}"],
                ["chunks out of order", f"{integrity.out_of_order:,}"],
            ]
        parts = [
            format_table(
                ["metric", "value"],
                headline,
                title=f"topology {self.topology} ({self.scenario})",
            )
        ]
        if self.flows:
            rows = []
            for flow in self.flows:
                integrity = flow.integrity
                rows.append(
                    [
                        flow.name,
                        f"{flow.chunks_sent:,}",
                        f"{flow.delivered:,}",
                        "n/a" if integrity is None else f"{integrity.missing:,}",
                        "n/a" if integrity is None else f"{integrity.corrupted:,}",
                        "n/a"
                        if not flow.latency
                        else f"{flow.latency.get('p50', 0.0) * 1e6:.2f}",
                    ]
                )
            parts.append(
                format_table(
                    ["flow", "chunks", "delivered", "lost", "corrupted", "p50_us"],
                    rows,
                    title="per-flow breakdown",
                )
            )
        counters = self.metrics.counter_rows() if include_counters else []
        if counters:
            parts.append(
                format_table(["counter", "value"], counters, title="counter breakdown")
            )
        return "\n\n".join(parts)


def learning_delay(
    first_times: Iterable[Tuple[Optional[float], Optional[float]]],
) -> Optional[float]:
    """The paper's dynamic-learning measurement over measured links.

    ``first_times`` holds one ``(first type-2, first type-3)`` arrival-time
    pair per measured link (or per shard); the delay is the gap between
    the earliest type-2 and the earliest type-3 frame, ``None`` when either
    packet type never appeared.
    """
    pairs = list(first_times)
    uncompressed = min((u for u, _c in pairs if u is not None), default=None)
    compressed = min((c for _u, c in pairs if c is not None), default=None)
    if uncompressed is None or compressed is None:
        return None
    return max(0.0, compressed - uncompressed)


def fold_report(
    spec: TopologySpec,
    metrics: MetricsRegistry,
    flows: List[FlowResult],
    wire_payload_bytes: int,
    duration: float,
    first_times: Iterable[Tuple[Optional[float], Optional[float]]],
) -> TopologyReport:
    """Fold per-flow results and collected metrics into the run's report.

    ``metrics`` holds everything collected so far — component counters and
    each flow's ``flow.<name>.*`` counters and latency distribution — but
    no ``endtoend.latency`` yet.  ``flows`` come in the flow-declaration
    order of the whole spec (one engine's own order, or the shard merge's),
    so the float sums inside ``endtoend.latency`` come out bit-identical
    however the run was partitioned.  ``first_times`` holds a
    ``(first type-2, first type-3)`` pair per measured link.
    """
    distributions = metrics.distributions()
    endtoend = metrics.distribution("endtoend.latency")
    totals = dict.fromkeys((entry.name for entry in fields(IntegrityResult)), 0)
    verified = False
    for flow in flows:
        endtoend.merge(distributions[f"flow.{flow.name}.latency"])
        if flow.integrity is not None:
            verified = True
            for key in totals:
                totals[key] += getattr(flow.integrity, key)
    return TopologyReport(
        topology=spec.name,
        scenario=spec.scenario,
        chunks_sent=sum(flow.chunks_sent for flow in flows),
        payload_bytes_sent=sum(flow.payload_bytes_sent for flow in flows),
        wire_payload_bytes=wire_payload_bytes,
        duration=duration,
        integrity=IntegrityResult(**totals) if verified else None,
        flows=flows,
        metrics=metrics,
        learning_time=learning_delay(first_times),
    )
