"""Execute a :class:`~repro.topology.spec.TopologySpec`: N flows, one graph.

:class:`TopologyEngine` turns a declarative spec into a running system on a
single shared :class:`~repro.sim.simulator.Simulator`:

* every node spec becomes a live node (hosts, ZipLine switches wrapped in
  graph adapters, plain forwarders);
* every link spec becomes a direct attachment or a chain of
  :class:`~repro.replay.link.EmulatedLink` hops (impairments seeded per
  link through :func:`~repro.topology.spec.derive_seed`);
* every flow spec becomes a concurrently-scheduled traffic stream with its
  own :class:`~repro.replay.sources.TraceSource`, pacing, source MAC and
  derived seed, injected at its source host one pending frame at a time
  (bounded memory);
* each encoder's control plane either writes decoder mappings directly
  (``control: direct``) or ships them as in-network control messages over
  a dedicated emulated link with real latency (``control: in-network``).

This is the repository's one run loop: the linear builders
(:class:`~repro.replay.harness.ReplayHarness`,
:class:`~repro.zipline.deployment.ZipLineDeployment`), ``repro replay`` and
the experiment matrix all hand a spec to this engine.  The two inputs a
spec cannot carry — a pre-built in-memory source per flow and explicit
static bases — are arguments of :meth:`TopologyEngine.run` and the
constructor.

Per-flow end-to-end integrity is FIFO content matching; arrivals are
attributed to flows by their source MAC, which the ZipLine encode/decode
path preserves.  The resulting
:class:`TopologyReport` carries per-flow, per-link and per-node metrics
and is a deterministic function of (spec, seed): running the same spec
twice yields byte-identical :meth:`TopologyReport.json_text` output.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Deque, Dict, Iterable, List, Mapping, Optional, Tuple

from repro import obs as _obs
from repro.controlplane.manager import ZipLineControlPlane
from repro.core.transform import GDTransform
from repro.obs.snapshot import PeriodicSnapshotter
from repro.exceptions import TopologyError
from repro.net.mac import MacAddress
from repro.perfmodel.linkmodel import ImpairmentModel
from repro.replay.link import EmulatedLink
from repro.replay.metrics import (
    Distribution,
    HeadlineNumbers,
    IntegrityResult,
    MetricsRegistry,
    ReplayReport,
    collect_link_metrics,
    collect_switch_metrics,
    collect_wire_metrics,
)
from repro.replay.sources import (
    Pacing,
    PcapTraceSource,
    TraceSource,
    WorkloadTraceSource,
    pacing_from_name,
    stream_distinct_bases,
)
from repro.sim.simulator import Simulator
from repro.tofino.digest import DigestEngine
from repro.topology.control import ControlChannel
from repro.topology.graph import TopologyGraph, build_link_chain
from repro.topology.nodes import (
    ForwardNode,
    HostNode,
    ZipLineDecoderNode,
    ZipLineEncoderNode,
)
from repro.topology.spec import FlowSpec, LinkSpec, TopologySpec, derive_seed
from repro.zipline.headers import RAW_CHUNK_ETHERTYPE_BYTES, raw_chunk_payload
from repro.zipline.stats import LinkTap
from repro.net.packets import PacketKind

__all__ = ["FlowResult", "TopologyReport", "TopologyEngine", "learning_delay"]


def _flow_source_mac(index: int) -> MacAddress:
    """Unique locally-administered source MAC for flow ``index``.

    Flows live under ``02:00:00:01:xx:xx``, hosts under ``02:00:00:00:xx:xx``
    — disjoint ranges, so per-flow arrival attribution by source MAC can
    never collide with a host address.
    """
    return MacAddress(0x02_00_00_01_00_00 + index + 1)


def _host_mac(index: int) -> MacAddress:
    """Unique locally-administered MAC for host ``index``."""
    return MacAddress(0x02_00_00_00_00_00 + index + 1)


#: How the engine folds per-flow metrics (see :class:`TopologyEngine`).
METRICS_MODES = ("exact", "streaming")


class _NullFlowAccount:
    """No verification, no retention — the counters-only mode."""

    #: Streaming accounts own their latency sketch; batch/null modes get a
    #: registry-created distribution at fold time instead.
    latency: Optional[Distribution] = None

    def record_sent(self, frame_bytes: bytes, now: float) -> None:
        pass

    def record_arrival(self, frame_bytes: bytes, time: float) -> None:
        pass

    def fold_into(self, latency: Distribution) -> Optional[IntegrityResult]:
        return None


class _ExactFlowAccount:
    """Batch FIFO content matching.

    Retains every injected chunk payload and every arrival frame —
    O(traffic) memory, folded into the integrity verdict and the exact
    latency distribution at report time.
    """

    latency: Optional[Distribution] = None

    def __init__(self) -> None:
        self.sent_chunks: List[bytes] = []
        self.sent_times: List[float] = []
        self.pending_by_content: Dict[bytes, Deque[int]] = {}
        self.arrivals: List[Tuple[float, bytes]] = []

    def record_sent(self, frame_bytes: bytes, now: float) -> None:
        payload = frame_bytes[14:]
        index = len(self.sent_chunks)
        self.sent_chunks.append(payload)
        self.sent_times.append(now)
        self.pending_by_content.setdefault(payload, deque()).append(index)

    def record_arrival(self, frame_bytes: bytes, time: float) -> None:
        self.arrivals.append((time, frame_bytes))

    def fold_into(self, latency: Distribution) -> Optional[IntegrityResult]:
        if not self.sent_chunks:
            return None
        pending = {
            content: deque(indices)
            for content, indices in self.pending_by_content.items()
        }
        matched = corrupted = out_of_order = received = 0
        highest_index = -1
        for time, frame_bytes in self.arrivals:
            payload = raw_chunk_payload(frame_bytes)
            if payload is None:
                continue
            received += 1
            queue = pending.get(payload)
            if not queue:
                corrupted += 1
                continue
            index = queue.popleft()
            matched += 1
            if index < highest_index:
                out_of_order += 1
            highest_index = max(highest_index, index)
            latency.add(time - self.sent_times[index])
        return IntegrityResult(
            sent=len(self.sent_chunks),
            received=received,
            matched=matched,
            corrupted=corrupted,
            missing=len(self.sent_chunks) - matched,
            out_of_order=out_of_order,
        )


class _StreamingFlowAccount:
    """Online FIFO content matching with a bounded latency sketch.

    Matches each arrival the moment it happens, so memory holds only the
    chunks currently in flight (plus lost ones), never the whole stream.
    Equivalent to the batch matcher: the link model never duplicates
    frames, so an arrival can never need a copy sent *after* it — eager
    matching pops exactly the index the batch pass would.
    """

    def __init__(self, latency: Distribution) -> None:
        self.latency = latency
        self.sent = 0
        self.received = 0
        self.matched = 0
        self.corrupted = 0
        self.out_of_order = 0
        self.highest_index = -1
        self.pending: Dict[bytes, Deque[Tuple[int, float]]] = {}

    def record_sent(self, frame_bytes: bytes, now: float) -> None:
        self.pending.setdefault(frame_bytes[14:], deque()).append(
            (self.sent, now)
        )
        self.sent += 1

    def record_arrival(self, frame_bytes: bytes, time: float) -> None:
        payload = raw_chunk_payload(frame_bytes)
        if payload is None:
            return
        self.received += 1
        queue = self.pending.get(payload)
        if not queue:
            self.corrupted += 1
            return
        index, sent_time = queue.popleft()
        if not queue:
            del self.pending[payload]
        self.matched += 1
        if index < self.highest_index:
            self.out_of_order += 1
        self.highest_index = max(self.highest_index, index)
        self.latency.add(time - sent_time)

    def fold_into(self, latency: Distribution) -> Optional[IntegrityResult]:
        if not self.sent:
            return None
        return IntegrityResult(
            sent=self.sent,
            received=self.received,
            matched=self.matched,
            corrupted=self.corrupted,
            missing=self.sent - self.matched,
            out_of_order=self.out_of_order,
        )


class _FlowState:
    """Runtime state of one flow: scheduling identity, the injection pump
    and volume counters, with verification delegated to a pluggable
    account."""

    def __init__(
        self,
        spec: FlowSpec,
        seed: int,
        source: TraceSource,
        pacing: Pacing,
        static_bases: Callable[[], Iterable[int]],
        source_mac: MacAddress,
        sink_mac: MacAddress,
        account,
        verifiable: bool,
    ):
        self.spec = spec
        self.seed = seed
        self.static_bases = static_bases
        self.source_mac_bytes = bytes(source_mac)
        self._own_addresses = bytes(sink_mac) + self.source_mac_bytes
        self.account = account
        #: False when no decoder can restore this flow's chunks, so there
        #: is nothing to verify end to end.
        self.verifiable = verifiable
        # Workload sources already frame with the flow's addresses.
        self.use_source(source, pacing, rewrite_addresses=spec.trace is not None)
        self.frames_sent = 0
        self.chunks_sent = 0
        self.chunk_bytes_sent = 0
        self.delivered = 0

    def use_source(
        self, source: TraceSource, pacing: Pacing, rewrite_addresses: bool = True
    ) -> None:
        """Take frames from ``source``, paced by ``pacing``.

        Captures and caller-built sources carry whatever addresses they
        were made with; their Ethernet addresses are rewritten to the
        flow's own identity so arrival attribution by source MAC works for
        every source kind.
        """
        self.source = source
        self.pacing = pacing
        self._mac_rewrite: Optional[bytes] = (
            self._own_addresses if rewrite_addresses else None
        )

    @property
    def sent_chunks(self) -> List[bytes]:
        """Retained chunk payloads (empty outside the exact account)."""
        return getattr(self.account, "sent_chunks", [])

    @property
    def arrivals(self) -> List[Tuple[float, bytes]]:
        """Retained arrival frames (empty outside the exact account)."""
        return getattr(self.account, "arrivals", [])

    def frame_for_injection(self, frame_bytes: bytes) -> bytes:
        """The frame as this flow puts it on the wire (flow-owned MACs)."""
        if self._mac_rewrite is None:
            return frame_bytes
        return self._mac_rewrite + frame_bytes[12:]

    def record_injection(self, frame_bytes: bytes, now: float) -> None:
        self.frames_sent += 1
        if frame_bytes[12:14] == RAW_CHUNK_ETHERTYPE_BYTES:
            self.chunks_sent += 1
            self.chunk_bytes_sent += len(frame_bytes) - 14
            self.account.record_sent(frame_bytes, now)

    def record_arrival(self, frame_bytes: bytes, time: float) -> None:
        self.delivered += 1
        self.account.record_arrival(frame_bytes, time)

    # -- injection -------------------------------------------------------------

    def start(self, simulator: Simulator, host: HostNode) -> None:
        """Begin one-pending-frame streaming injection.

        Exactly one frame per flow is ever scheduled, so its bytes live in
        one slot and one method serves every injection event.
        """
        self.pacing.reset()
        self._simulator = simulator
        self._host = host
        self._frames = self.source.frames()
        self._index = 0
        self._schedule_next()

    def _schedule_next(self) -> None:
        timed = next(self._frames, None)
        if timed is None:
            return
        data = self._pending = timed.data
        at = self.pacing.inject_at(self._index, timed.recorded_time, len(data))
        now = self._simulator.now
        self._simulator.schedule_at(
            at if at > now else now,
            self._inject_pending,
            description="replay:inject",
        )

    def _inject_pending(self) -> None:
        frame = self.frame_for_injection(self._pending)
        now = self._simulator.now
        self.record_injection(frame, now)
        index = self._index
        self._index = index + 1
        tracer = _obs.TRACER
        if tracer.enabled:
            # Everything the injection triggers synchronously — switch
            # encode, link admission — inherits this chunk's identity; the
            # link re-establishes it for the delivery side of the wire.
            tracer.set_context(self.spec.name, index)
            tracer.instant("flow.inject", self.spec.source)
            try:
                self._host.inject(frame, now)
            finally:
                tracer.clear_context()
        else:
            self._host.inject(frame, now)
        self._schedule_next()


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
            "name": self.name,
            "source": self.source,
            "seed": self.seed,
            "chunks_sent": self.chunks_sent,
            "payload_bytes_sent": self.payload_bytes_sent,
            "frames_sent": self.frames_sent,
            "delivered": self.delivered,
            "integrity": None if self.integrity is None else self.integrity.as_dict(),
            "latency": dict(self.latency),
        }


@dataclass
class TopologyReport(HeadlineNumbers):
    """Everything one topology run produced.

    The top-level shape mirrors :class:`~repro.replay.metrics.ReplayReport`
    (``compression_ratio``, ``integrity``, ``metrics.counters...``) so the
    experiment matrix's dotted metric paths resolve on either report kind;
    ``flows`` adds the per-flow breakdown and ``metrics`` carries per-link
    and per-flow attribution (``flow.<name>.*`` counters and latency
    distributions).
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
            "flows": [flow.as_dict() for flow in self.flows],
            "metrics": self.metrics.as_dict(),
        }

    def as_replay_report(self, topology: str) -> ReplayReport:
        """A one-flow linear run as the :class:`ReplayReport` its callers read.

        The registry loses the per-flow ``flow.*`` attribution namespace
        (there is one flow, so it repeats the totals), and the end-to-end
        latency distribution appears only when integrity was verified.
        ``topology`` names the linear shape that ran.
        """
        verified = self.integrity is not None
        metrics = self.metrics.select(
            lambda name: not name.startswith("flow.")
            and (verified or name != "endtoend.latency")
        )
        return ReplayReport(
            topology=topology,
            scenario=self.scenario,
            source=self.flows[0].source,
            chunks_sent=self.chunks_sent,
            payload_bytes_sent=self.payload_bytes_sent,
            wire_payload_bytes=self.wire_payload_bytes,
            duration=self.duration,
            integrity=self.integrity,
            metrics=metrics,
            learning_time=self.learning_time,
        )

    def json_text(self) -> str:
        """Canonical JSON — the determinism witness (same spec ⇒ same bytes)."""
        import json

        return json.dumps(self.as_dict(), indent=2, sort_keys=True, default=str)

    def render(self, include_counters: bool = False) -> str:
        """Human-readable report: headline, per-flow table, counters."""
        from repro.analysis.reporting import format_table

        headline: List[List[object]] = [
            ["topology", self.topology],
            ["scenario", self.scenario],
            ["flows", len(self.flows)],
            ["chunks sent", f"{self.chunks_sent:,}"],
            ["payload bytes sent", f"{self.payload_bytes_sent:,}"],
            ["bytes on the measured link", f"{self.wire_payload_bytes:,}"],
            [
                "compression ratio",
                "n/a"
                if self.compression_ratio is None
                else f"{self.compression_ratio:.4f}",
            ],
            [
                "savings",
                "n/a"
                if self.savings_percent is None
                else f"{self.savings_percent:.1f} %",
            ],
            ["duration", f"{self.duration * 1e3:.3f} ms"],
            [
                "learning delay",
                "n/a"
                if self.learning_time is None
                else f"{self.learning_time * 1e3:.3f} ms",
            ],
        ]
        if self.integrity is not None:
            headline.append(
                ["integrity intact", "yes" if self.integrity.intact else "NO"]
            )
            headline.append(["chunks lost", f"{self.integrity.missing:,}"])
            headline.append(["chunks corrupted", f"{self.integrity.corrupted:,}"])
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
        if include_counters:
            counter_rows = self.metrics.counter_rows()
            if counter_rows:
                parts.append(
                    format_table(
                        ["counter", "value"], counter_rows, title="counter breakdown"
                    )
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


class TopologyEngine:
    """Build and run one :class:`~repro.topology.spec.TopologySpec`.

    Parameters
    ----------
    spec:
        The validated topology description.
    verify_integrity:
        When true (default) every flow is checked end to end and gets
        latency percentiles.  False skips verification entirely —
        counters only, ``integrity: None``.  A flow with no decoder on its
        side of the graph reports ``integrity: None`` either way: nothing
        restores its chunks, so there is nothing to verify.
    metrics_mode:
        How per-flow metrics are kept.  ``"exact"`` (default) retains
        every chunk, arrival and latency sample — O(traffic) memory, the
        historical behaviour.  ``"streaming"`` matches arrivals online and
        folds latencies into fixed-size sketches
        (:class:`~repro.replay.metrics.Distribution` bounded mode), keeps
        link taps counters-only and skips per-sample queueing-delay
        retention — bounded memory at any scale, with identical counters,
        gauges and integrity verdicts; only latency percentiles become
        sketch estimates (and per-link queueing-delay distributions are
        empty).  The mode never changes what the simulation *does*, so a
        run's counters are byte-identical across modes.
    tap_fallback:
        When no link is explicitly ``measured: true``, whether to tap the
        spec's fallback measured link (default true).  Sharded sub-spec
        runs disable this: the partitioner resolves the fallback against
        the *full* spec and marks it explicitly, so a shard can never
        invent a tap the monolithic run would not have.
    qualify_controlplane:
        Controls whether control-plane counters are namespaced as
        ``controlplane.<encoder>`` (true) or plain ``controlplane``
        (false).  ``None`` (default) qualifies exactly when the engine
        builds more than one control plane; shard workers receive the
        full-spec answer so shard-local reports merge without colliding.
    static_bases:
        Bases to preload instead of the ones the flows' workloads or
        traces would yield (the spec cannot carry them).  With a control
        plane they are preloaded whatever the scenario; on a ``no_table``
        graph without encoders they are written straight into the
        decoders; ``no_table`` with an encoder rejects them.
    """

    def __init__(
        self,
        spec: TopologySpec,
        verify_integrity: bool = True,
        metrics_mode: str = "exact",
        tap_fallback: bool = True,
        qualify_controlplane: Optional[bool] = None,
        static_bases: Optional[Iterable[int]] = None,
    ):
        if metrics_mode not in METRICS_MODES:
            raise TopologyError(
                f"metrics_mode must be one of {', '.join(METRICS_MODES)}; "
                f"got {metrics_mode!r}"
            )
        self.spec = spec
        self.verify_integrity = verify_integrity
        self.metrics_mode = metrics_mode
        self._streaming = metrics_mode == "streaming"
        self.tap_fallback = tap_fallback
        self._qualify_controlplane = qualify_controlplane
        self.simulator = Simulator()
        self.transform = GDTransform(order=spec.order)
        self.graph = TopologyGraph(self.simulator)
        self.measured_tap: Optional[LinkTap] = None
        self.measured_taps: List[Tuple[str, LinkTap]] = []
        self.control_planes: Dict[str, ZipLineControlPlane] = {}
        self.control_channels: Dict[str, ControlChannel] = {}
        self._decoder_owner: Dict[str, str] = {}
        self._fault_restarts = 0
        self._fault_storm_evicted = 0
        self._fault_resync_installs = 0
        self._encoder_nodes: Dict[str, ZipLineEncoderNode] = {}
        self._decoder_nodes: Dict[str, ZipLineDecoderNode] = {}
        self._host_nodes: Dict[str, HostNode] = {}
        self._forward_nodes: Dict[str, ForwardNode] = {}
        self.flow_states: List[_FlowState] = []
        self._flows_by_mac: Dict[bytes, _FlowState] = {}
        self._unattributed = 0
        self._misdelivered = 0
        self._static_bases = None if static_bases is None else list(static_bases)
        self._build_nodes()
        self._build_links()
        self.graph.wire()
        self._build_control_planes()
        self._build_flows()
        if spec.scenario == "static" or self._static_bases is not None:
            self._preload_static_bases()
        self._snapshotter = None
        tracer = _obs.TRACER
        if tracer.enabled:
            # Bind the tracer's clock to this engine's simulator so every
            # event downstream is stamped with simulated time, and attach
            # the periodic snapshotter when one was requested.
            tracer.clock = lambda: self.simulator.now
            if tracer.snapshot_interval:
                self._snapshotter = PeriodicSnapshotter(
                    tracer.snapshot_interval, tracer, self._snapshot_sample
                )
                self.simulator.add_observer(self._snapshotter.on_event)

    # -- construction ---------------------------------------------------------

    def _switch_port_count(self, node_spec) -> Optional[int]:
        """Size a switch for every port the spec references on it.

        The Tofino model defaults to 32 front-panel ports; a wide fan-in
        (or a hand-written spec addressing a high port) gets a switch big
        enough for its highest referenced port instead of an out-of-range
        failure halfway through the build.
        """
        highest = -1
        for link in self.spec.links:
            if link.source[0] == node_spec.name:
                highest = max(highest, link.source[1])
            if link.target[0] == node_spec.name:
                highest = max(highest, link.target[1])
        for ingress, egress in node_spec.forwarding.items():
            highest = max(highest, ingress, egress)
        if node_spec.default_egress_port is not None:
            highest = max(highest, node_spec.default_egress_port)
        return None if highest < 32 else highest + 1

    def _build_nodes(self) -> None:
        host_index = 0
        self._host_macs: Dict[str, MacAddress] = {}
        for node_spec in self.spec.nodes:
            if node_spec.kind == "host":
                # Frames are retained per flow (for the integrity check),
                # never a second time at the host.
                node = HostNode(node_spec.name, store=False)
                self._host_nodes[node_spec.name] = node
                self._host_macs[node_spec.name] = _host_mac(host_index)
                host_index += 1
            elif node_spec.kind == "encoder":
                digest_engine = DigestEngine(self.simulator)
                node = ZipLineEncoderNode(
                    node_spec.name,
                    transform=self.transform,
                    identifier_bits=self.spec.identifier_bits,
                    simulator=self.simulator,
                    forwarding=dict(node_spec.forwarding),
                    default_egress_port=node_spec.default_egress_port,
                    entry_ttl=self.spec.entry_ttl,
                    digest_engine=digest_engine,
                    port_count=self._switch_port_count(node_spec),
                )
                self._encoder_nodes[node_spec.name] = node
            elif node_spec.kind == "decoder":
                node = ZipLineDecoderNode(
                    node_spec.name,
                    transform=self.transform,
                    identifier_bits=self.spec.identifier_bits,
                    simulator=self.simulator,
                    forwarding=dict(node_spec.forwarding),
                    default_egress_port=node_spec.default_egress_port,
                    port_count=self._switch_port_count(node_spec),
                )
                self._decoder_nodes[node_spec.name] = node
            else:  # forward
                node = ForwardNode(
                    node_spec.name,
                    forwarding=dict(node_spec.forwarding),
                    default_egress_port=node_spec.default_egress_port,
                )
                self._forward_nodes[node_spec.name] = node
            self.graph.add_node(node)

    def _build_one_link(self, link: LinkSpec) -> List[EmulatedLink]:
        impairments = None
        if link.loss or link.reorder:
            seed = link.seed
            if seed is None:
                seed = derive_seed(self.spec.name, self.spec.seed, f"link:{link.name}")
            impairments = ImpairmentModel(
                loss_probability=link.loss,
                reorder_probability=link.reorder,
                seed=seed,
            )
        return build_link_chain(
            self.simulator,
            names=link.hop_names(),
            bandwidth_bps=link.bandwidth_gbps * 1e9,
            propagation_delay=link.propagation_us * 1e-6,
            queue_capacity=link.queue_capacity or None,
            impairments=impairments,
            record_delays=self.verify_integrity and not self._streaming,
        )

    def _build_links(self) -> None:
        measured_names = {link.name for link in self.spec.links if link.measured}
        if not measured_names and self.tap_fallback:
            fallback = self.spec.measured_link
            if fallback is not None:
                measured_names = {fallback.name}
        for link in self.spec.links:
            tap = None
            if link.name in measured_names:
                tap = LinkTap(
                    store_records=self.verify_integrity and not self._streaming
                )
                self.measured_taps.append((link.name, tap))
                if self.measured_tap is None:
                    self.measured_tap = tap
            chain: List[EmulatedLink] = []
            if not link.direct:
                chain = self._build_one_link(link)
            self.graph.add_edge(
                link.source[0],
                link.source[1],
                link.target[0],
                link.target[1],
                links=chain,
                tap=tap,
            )

    def _build_control_planes(self) -> None:
        if self.spec.scenario == "no_table":
            return
        paired: Dict[str, str] = {}
        for node_spec in self.spec.nodes:
            if node_spec.kind != "encoder":
                continue
            decoder_name = node_spec.decoder
            if decoder_name is None:
                if len(self._decoder_nodes) == 1:
                    decoder_name = next(iter(self._decoder_nodes))
                elif self._decoder_nodes:
                    raise TopologyError(
                        f"node {node_spec.name!r}: multiple decoder nodes exist; "
                        "set its 'decoder' pairing explicitly"
                    )
            if decoder_name is not None:
                if decoder_name in paired:
                    raise TopologyError(
                        f"node {decoder_name!r}: paired with both "
                        f"{paired[decoder_name]!r} and {node_spec.name!r}; a "
                        "decoder's identifier table serves one encoder"
                    )
                paired[decoder_name] = node_spec.name
            encoder = self._encoder_nodes[node_spec.name].switch
            decoder = (
                None
                if decoder_name is None
                else self._decoder_nodes[decoder_name].switch
            )
            decoder_transport = None
            if self.spec.control == "in-network" and decoder is not None:
                impairments = None
                faults = self.spec.faults
                if faults is not None and (
                    faults.control_loss or faults.control_reorder
                ):
                    # Seeded from the spec identity + the encoder name, so
                    # the control-link fault stream is independent of which
                    # shard the encoder lands in.
                    impairments = ImpairmentModel(
                        loss_probability=faults.control_loss,
                        reorder_probability=faults.control_reorder,
                        seed=derive_seed(
                            self.spec.name,
                            self.spec.seed,
                            f"control:{node_spec.name}",
                        ),
                    )
                control_link = EmulatedLink(
                    simulator=self.simulator,
                    name=f"control.{node_spec.name}",
                    bandwidth_bps=self.spec.control_bandwidth_gbps * 1e9,
                    propagation_delay=self.spec.control_propagation_us * 1e-6,
                    impairments=impairments,
                )
                channel = ControlChannel(
                    self.simulator,
                    control_link,
                    decoder,
                    rate=self.spec.control_rate,
                    queue_capacity=self.spec.control_queue,
                )
                self.control_channels[node_spec.name] = channel
                decoder_transport = channel.transport
            self.control_planes[node_spec.name] = ZipLineControlPlane(
                digest_engine=encoder.digest_engine,
                encoder_switch=encoder,
                decoder_switch=decoder,
                simulator=self.simulator,
                identifier_bits=self.spec.identifier_bits,
                entry_ttl=self.spec.entry_ttl,
                seed=self.spec.seed,
                decoder_transport=decoder_transport,
            )
        # Restart/storm fault events resolve their control plane through
        # this pairing (decoder name -> owning encoder name).
        self._decoder_owner = paired
        if not self._encoder_nodes and (
            self.spec.scenario == "static" or self._static_bases is not None
        ):
            # An encoder-less graph still takes its static table through a
            # control plane, one per decoder.
            for name, node in self._decoder_nodes.items():
                self.control_planes[name] = ZipLineControlPlane(
                    digest_engine=DigestEngine(self.simulator),
                    decoder_switch=node.switch,
                    simulator=self.simulator,
                    identifier_bits=self.spec.identifier_bits,
                    entry_ttl=self.spec.entry_ttl,
                    seed=self.spec.seed,
                )

    def _flow_workload(self, flow: FlowSpec, seed: int):
        """A workload flow's generator and its ``bases()`` callable — the
        one place a spec's workload name becomes a workload object."""
        from repro.workloads import (
            DictionaryThrashWorkload,
            DnsQueryWorkload,
            SyntheticSensorWorkload,
        )

        if flow.workload == "synthetic":
            workload = SyntheticSensorWorkload(
                num_chunks=flow.chunks,
                distinct_bases=flow.bases,
                order=self.spec.order,
                seed=seed,
            )
            return workload, workload.bases
        if flow.workload == "thrash":
            workload = DictionaryThrashWorkload(
                num_chunks=flow.chunks,
                distinct_bases=flow.bases,
                order=self.spec.order,
                # A quarter-trace phase with a working-set migration keeps
                # the control plane installing for the whole run.
                phase_chunks=max(1, flow.chunks // 4),
                phase_shift=max(1, flow.bases // 4),
                seed=seed,
            )
            return workload, workload.bases
        workload = DnsQueryWorkload(
            num_queries=flow.chunks,
            distinct_names=flow.names,
            seed=seed,
        )
        return workload, partial(workload.bases, order=self.spec.order)

    def _build_flow_pacing(self, flow: FlowSpec) -> Pacing:
        return pacing_from_name(
            flow.pacing,
            packet_rate=flow.packet_rate,
            speedup=flow.speedup,
            start=flow.start,
        )

    def _make_account(self, flow: FlowSpec):
        if not self.verify_integrity:
            return _NullFlowAccount()
        if self._streaming:
            return _StreamingFlowAccount(
                Distribution(f"flow.{flow.name}.latency", bounded=True)
            )
        return _ExactFlowAccount()

    def _build_flows(self) -> None:
        component_of = self.spec.node_components()
        decoder_components = {component_of[name] for name in self._decoder_nodes}
        for index, flow in enumerate(self.spec.flows):
            seed = self.spec.flow_seed(flow)
            source_mac = _flow_source_mac(index)
            sink_mac = self._host_macs[flow.sink]
            if flow.trace is not None:
                source: TraceSource = PcapTraceSource(flow.trace)
                static_bases = partial(
                    stream_distinct_bases, flow.trace, order=self.spec.order
                )
            else:
                workload, static_bases = self._flow_workload(flow, seed)
                source = WorkloadTraceSource(
                    workload, source=source_mac, destination=sink_mac
                )
            state = _FlowState(
                spec=flow,
                seed=seed,
                source=source,
                pacing=self._build_flow_pacing(flow),
                static_bases=static_bases,
                source_mac=source_mac,
                sink_mac=sink_mac,
                account=self._make_account(flow),
                verifiable=component_of[flow.source] in decoder_components,
            )
            self.flow_states.append(state)
            self._flows_by_mac[state.source_mac_bytes] = state
        for name, host in self._host_nodes.items():
            host.on_deliver = partial(self._dispatch_arrival, name)

    def _dispatch_arrival(
        self, host_name: str, frame_bytes: bytes, time: float
    ) -> None:
        flow = self._flows_by_mac.get(frame_bytes[6:12])
        tracer = _obs.TRACER
        if flow is None:
            self._unattributed += 1
            if tracer.enabled:
                tracer.instant(
                    "flow.arrive",
                    host_name,
                    args={"outcome": "unattributed"},
                    ts=time,
                )
            return
        if flow.spec.sink != host_name:
            # A flow's frame delivered to the wrong host is a routing bug,
            # not a successful arrival: count it, and let the flow's
            # integrity report the chunk as missing.
            self._misdelivered += 1
            if tracer.enabled:
                tracer.instant(
                    "flow.arrive",
                    host_name,
                    args={"outcome": "misdelivered", "flow": flow.spec.name},
                    ts=time,
                )
            return
        flow.record_arrival(frame_bytes, time)
        if tracer.enabled:
            tracer.instant(
                "flow.arrive", host_name, args={"outcome": "delivered"}, ts=time
            )

    def _preload_static_bases(self) -> None:
        """Install each component's flows' bases into that component's
        tables, in flow-declaration order (or the caller's explicit bases
        into every table).

        Scoping the preload per connected component keeps a multi-encoder
        spec's dictionaries identical whether the spec runs monolithically
        or partitioned into per-encoder shards; on a single-component spec
        this is exactly the global union.
        """
        component_of = self.spec.node_components()
        bases_by_component: Dict[int, Dict[int, None]] = {}
        if self._static_bases is not None:
            everywhere = dict.fromkeys(self._static_bases)
            bases_by_component = dict.fromkeys(component_of.values(), everywhere)
        else:
            for state in self.flow_states:
                bucket = bases_by_component.setdefault(
                    component_of[state.spec.source], {}
                )
                for basis in state.static_bases():
                    bucket.setdefault(basis, None)
        if self.control_planes:
            for name, control_plane in self.control_planes.items():
                bucket = bases_by_component.get(component_of[name])
                if bucket:
                    control_plane.preload_static_mappings(list(bucket))
        elif self._encoder_nodes:
            # An explicit argument must never be silently ignored: with an
            # encoder present, no_table means "no mappings, ever".
            raise TopologyError(
                "static_bases conflicts with the no_table scenario; use "
                "the static or dynamic scenario instead"
            )
        else:
            for name, decoder_node in self._decoder_nodes.items():
                bucket = bases_by_component.get(component_of[name])
                if not bucket:
                    continue
                # The sequential identifier order a control plane's pool
                # would assign.
                for identifier, basis in enumerate(bucket):
                    decoder_node.switch.install_identifier_mapping(identifier, basis)

    # -- execution ---------------------------------------------------------------

    def _restart_decoder(self, node_name: str) -> None:
        """Crash-restart one decoder: wipe its table, then resynchronise.

        The identifier table is the decoder's crash-volatile state; wiring
        and counters survive (a fast process restart).  Until the owning
        control plane's resync installs land, type-3 frames for wiped
        identifiers count as ``unknown_identifier`` drops — loss, never
        corruption.
        """
        decoder_node = self._decoder_nodes[node_name]
        decoder_node.switch.identifier_table.clear()
        self._fault_restarts += 1
        tracer = _obs.TRACER
        if tracer.enabled:
            tracer.instant("fault.restart", node_name)
        owner = self._decoder_owner.get(node_name)
        plane = self.control_planes.get(owner) if owner is not None else None
        if plane is not None:
            self._fault_resync_installs += plane.resync_decoder()

    def _trigger_storm(self, node_name: str, count: int) -> None:
        plane = self.control_planes.get(node_name)
        if plane is None:
            return
        evicted = plane.force_evict(count)
        self._fault_storm_evicted += evicted
        tracer = _obs.TRACER
        if tracer.enabled:
            tracer.instant(
                "fault.storm", node_name, args={"requested": count, "evicted": evicted}
            )

    def _schedule_faults(self) -> None:
        faults = self.spec.faults
        if faults is None or not faults.active:
            return
        for restart in faults.restarts:
            if restart.node not in self._decoder_nodes:
                continue  # filtered shard: event belongs to another worker
            self.simulator.schedule_at(
                restart.time,
                partial(self._restart_decoder, restart.node),
                description=f"fault:restart:{restart.node}",
            )
        for storm in faults.storms:
            if storm.node not in self._encoder_nodes:
                continue
            self.simulator.schedule_at(
                storm.time,
                partial(self._trigger_storm, storm.node, storm.count),
                description=f"fault:storm:{storm.node}",
            )

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        sources: Optional[Mapping[str, Tuple[TraceSource, Pacing]]] = None,
    ) -> TopologyReport:
        """Schedule every flow, run the simulation, and build the report.

        ``sources`` maps flow names to pre-built ``(source, pacing)`` pairs
        that replace what the flow spec describes — how in-memory traces,
        which a spec cannot carry, enter a run.  ``until``/``max_events``
        bound the simulation for open-ended sources.
        """
        by_name = {state.spec.name: state for state in self.flow_states}
        for name, (source, pacing) in (sources or {}).items():
            if name not in by_name:
                raise TopologyError(
                    f"source given for unknown flow {name!r}; "
                    f"flows: {', '.join(by_name) or 'none'}"
                )
            by_name[name].use_source(source, pacing)
        self._schedule_faults()
        for state in self.flow_states:
            state.start(self.simulator, self._host_nodes[state.spec.source])
        self.simulator.run(until=until, max_events=max_events)
        if self._snapshotter is not None:
            self._snapshotter.flush()
            self.simulator.remove_observer(self._snapshotter.on_event)
            self._snapshotter = None
        return self.report()

    def _snapshot_sample(self) -> Dict[str, float]:
        """The live series the periodic snapshotter records.

        All values come from counters the run maintains anyway, so
        sampling is O(nodes + links) and never touches the event queue.
        """
        now = self.simulator.now
        sent_bytes = sum(state.chunk_bytes_sent for state in self.flow_states)
        wire_bytes = sum(
            tap.total_payload_bytes() for _name, tap in self.measured_taps
        )
        wire_frames = sum(tap.total_frames() for _name, tap in self.measured_taps)
        sample = {
            "chunks_sent": float(
                sum(state.chunks_sent for state in self.flow_states)
            ),
            "payload_bytes_sent": float(sent_bytes),
            "wire_payload_bytes": float(wire_bytes),
            # Same definition as the report's compression_ratio.
            "ratio": (wire_bytes / sent_bytes) if sent_bytes else 0.0,
            "queue_depth": float(
                sum(link.queue_depth for link in self.graph.links)
            ),
            "pkt_per_s": (wire_frames / now) if now > 0 else 0.0,
            "dictionary_entries": float(
                sum(
                    len(node.switch.known_bases())
                    for node in self._encoder_nodes.values()
                )
            ),
        }
        return sample

    # -- results -----------------------------------------------------------------

    def wire_first_times(self) -> List[Tuple[Optional[float], Optional[float]]]:
        """First type-2 and type-3 frame time on each measured tap."""
        return [
            (
                tap.first_time_of_kind(PacketKind.PROCESSED_UNCOMPRESSED),
                tap.first_time_of_kind(PacketKind.PROCESSED_COMPRESSED),
            )
            for _name, tap in self.measured_taps
        ]

    def learning_time(self) -> Optional[float]:
        """Gap between the first type-2 and type-3 frame on the measured links."""
        return learning_delay(self.wire_first_times())

    def _collect_metrics(self) -> MetricsRegistry:
        metrics = MetricsRegistry(bounded_distributions=self._streaming)
        for name, node in self._encoder_nodes.items():
            collect_switch_metrics(metrics, encoder=node.switch, encoder_prefix=name)
        for name, node in self._decoder_nodes.items():
            collect_switch_metrics(metrics, decoder=node.switch, decoder_prefix=name)
        for name, node in self._forward_nodes.items():
            metrics.merge_counters(name, node.counters())
        collect_link_metrics(metrics, self.graph.links)
        if self._qualify_controlplane is None:
            single = len(self.control_planes) == 1
        else:
            single = not self._qualify_controlplane
        for name, control_plane in self.control_planes.items():
            namespace = "controlplane" if single else f"controlplane.{name}"
            metrics.merge_counters(namespace, control_plane.stats.as_dict())
        for name, channel in self.control_channels.items():
            metrics.merge_counters(f"control.{name}", channel.counters())
            metrics.merge_counters(
                f"control.{name}.link", channel.link.stats.as_dict()
            )
        faults = self.spec.faults
        if faults is not None and faults.active:
            # Only fault runs carry this namespace, so fault-free reports
            # stay byte-identical to pre-fault-layer ones.
            metrics.merge_counters(
                "faults",
                {
                    "restarts": self._fault_restarts,
                    "storm_evicted": self._fault_storm_evicted,
                    "resync_installs": self._fault_resync_installs,
                },
            )
        for _name, tap in self.measured_taps:
            collect_wire_metrics(metrics, tap)
        if self._unattributed:
            metrics.increment("flows.unattributed_frames", self._unattributed)
        if self._misdelivered:
            metrics.increment("flows.misdelivered_frames", self._misdelivered)
        return metrics

    def report(self) -> TopologyReport:
        """Fold everything measured so far into a :class:`TopologyReport`."""
        metrics = self._collect_metrics()
        flow_results: List[FlowResult] = []
        totals = {"sent": 0, "received": 0, "matched": 0, "corrupted": 0,
                  "missing": 0, "out_of_order": 0}
        any_integrity = False
        endtoend = metrics.distribution("endtoend.latency")
        for state in self.flow_states:
            if state.account.latency is not None:
                # Streaming accounts own their (bounded) latency sketch;
                # adopt it so the registry reports it under the flow key.
                latency = metrics.add_distribution(state.account.latency)
            else:
                latency = metrics.distribution(f"flow.{state.spec.name}.latency")
            integrity = (
                state.account.fold_into(latency) if state.verifiable else None
            )
            # Fold per-flow latencies into the all-flow distribution in
            # flow-declaration order — the exact order the shard merge
            # replays, so the float fold is byte-identical either way.
            if self._streaming:
                endtoend.merge(latency)
            else:
                endtoend.extend(latency.samples)
            metrics.increment(f"flow.{state.spec.name}.chunks_sent", state.chunks_sent)
            metrics.increment(
                f"flow.{state.spec.name}.payload_bytes_sent", state.chunk_bytes_sent
            )
            metrics.increment(f"flow.{state.spec.name}.delivered", state.delivered)
            if integrity is not None:
                any_integrity = True
                for key in totals:
                    totals[key] += getattr(integrity, key)
                metrics.increment(
                    f"flow.{state.spec.name}.missing", integrity.missing
                )
                metrics.increment(
                    f"flow.{state.spec.name}.corrupted", integrity.corrupted
                )
            flow_results.append(
                FlowResult(
                    name=state.spec.name,
                    source=state.source.description,
                    seed=state.seed,
                    chunks_sent=state.chunks_sent,
                    payload_bytes_sent=state.chunk_bytes_sent,
                    frames_sent=state.frames_sent,
                    delivered=state.delivered,
                    integrity=integrity,
                    latency={} if latency.empty else latency.summary(),
                )
            )
        aggregate = IntegrityResult(**totals) if any_integrity else None
        return TopologyReport(
            topology=self.spec.name,
            scenario=self.spec.scenario,
            chunks_sent=sum(state.chunks_sent for state in self.flow_states),
            payload_bytes_sent=sum(state.chunk_bytes_sent for state in self.flow_states),
            wire_payload_bytes=sum(
                tap.total_payload_bytes() for _name, tap in self.measured_taps
            ),
            duration=self.simulator.now,
            integrity=aggregate,
            flows=flow_results,
            metrics=metrics,
            learning_time=self.learning_time(),
        )
