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
  derived seed, injected at its source host by the engine's one
  :class:`~repro.topology.flows.FlowInjector` (one pending event for all
  flows, bounded memory);
* each encoder's control plane either writes decoder mappings directly
  (``control: direct``) or ships them as in-network control messages over
  a dedicated emulated link with real latency (``control: in-network``).

This is the repository's one run loop and its one front door: ``repro
replay``, ``repro topology``, ``repro claims`` (the paper's Figure 3 and
§7 runs) and the experiment matrix all build a spec (a preset such as
:func:`~repro.topology.presets.linear_topology` or
:func:`~repro.topology.presets.paper_testbed_topology`, or a JSON document)
and run it here.  The two inputs a spec cannot carry — a pre-built
in-memory source per flow and explicit static bases — are arguments of
:meth:`TopologyEngine.run` and the constructor.  Every run, linear or
not, reports as one :class:`TopologyReport`.

This module is build + run.  The per-flow runtime — the injector,
arrival attribution, the one FIFO content matcher — lives in
:mod:`repro.topology.flows`; the report classes and the one fold that
builds them in :mod:`repro.topology.report` (re-exported here).  The
resulting :class:`TopologyReport` carries per-flow, per-link and per-node
metrics and is a deterministic function of (spec, seed): running the same
spec twice yields byte-identical :meth:`TopologyReport.json_text` output.
"""

from __future__ import annotations

from functools import partial
from typing import Collection, Dict, Iterable, List, Mapping, Optional, Tuple

from repro import obs as _obs
from repro.controlplane.idpool import IdentifierPool
from repro.controlplane.manager import ZipLineControlPlane
from repro.core.transform import GDTransform
from repro.obs.snapshot import PeriodicSnapshotter
from repro.exceptions import TopologyError
from repro.net.mac import MacAddress
from repro.replay.link import EmulatedLink, ImpairmentModel
from repro.replay.metrics import (
    Distribution,
    MetricsRegistry,
    collect_link_metrics,
    collect_switch_metrics,
    collect_wire_metrics,
)
from repro.replay.sources import Pacing, TraceSource, pacing_from_name
from repro.sim.lookahead import InFlight
from repro.sim.simulator import Simulator
from repro.tofino.digest import DigestEngine
from repro.topology.control import ControlChannel
from repro.topology.flows import (
    FlowArrivals,
    FlowInjector,
    FlowState,
    flow_source,
    flow_source_mac,
)
from repro.topology.graph import (
    TopologyGraph,
    build_link_chain,
    decoder_pairing,
    node_components,
)
from repro.topology.nodes import (
    ForwardNode,
    HostNode,
    ZipLineDecoderNode,
    ZipLineEncoderNode,
)
from repro.topology.report import (
    FlowResult,
    TopologyReport,
    fold_report,
    learning_delay,
)
from repro.topology.spec import LinkSpec, TopologySpec, _check, derive_seed
from repro.zipline.stats import LinkTap
from repro.net.packets import PacketKind

__all__ = ["FlowResult", "TopologyReport", "TopologyEngine", "learning_delay"]


def _host_mac(index: int) -> MacAddress:
    """Unique locally-administered MAC for host ``index``."""
    return MacAddress(0x02_00_00_00_00_00 + index + 1)


#: How the engine keeps per-flow metrics (see :class:`TopologyEngine`).
METRICS_MODES = ("exact", "streaming")


def check_metrics_mode(metrics_mode: str) -> None:
    _check.choice("topology run", "metrics_mode", metrics_mode, METRICS_MODES)


class TopologyEngine:
    """Build and run one :class:`~repro.topology.spec.TopologySpec`.

    Parameters
    ----------
    spec:
        The validated topology description.  Every flow is checked end to
        end and gets latency percentiles, except a flow with no decoder on
        its side of the graph: nothing restores its chunks, so it reports
        ``integrity: None``.
    metrics_mode:
        What the run *keeps* — never what it does.  Both modes run the one
        online matcher (:class:`~repro.topology.flows.FlowAccount`) and the
        one report fold, so counters, gauges and integrity verdicts are
        byte-identical across modes.  ``"exact"`` (default) retains every
        flow latency sample and link queueing-delay sample, 8 bytes each
        — O(traffic) memory, exact percentiles.  Neither mode keeps the
        frames themselves.  ``"streaming"`` retains no samples either:
        latencies fold into fixed-size sketches
        (:class:`~repro.replay.metrics.Distribution` bounded mode), so
        memory is bounded at any scale, latency percentiles become sketch
        estimates and per-link queueing-delay distributions are empty.
    static_bases:
        Bases to preload instead of the ones the flows' workloads or
        traces would yield (the spec cannot carry them).  With a control
        plane they are preloaded whatever the scenario; on a ``no_table``
        graph without encoders they are written straight into the
        decoders; ``no_table`` with an encoder rejects them.
    shard:
        The names of the nodes to build — one connected component of
        ``spec``, as :func:`~repro.topology.sharding.partition_spec` finds
        them — or ``None`` (default) for every node.  Every decision is
        still the whole spec's: the shard taps the spec's measured links
        among its nodes, pairs and names its control planes as the whole
        spec does, and runs the flows and fault events of its own nodes.
    """

    def __init__(
        self,
        spec: TopologySpec,
        metrics_mode: str = "exact",
        static_bases: Optional[Iterable[int]] = None,
        shard: Optional[Collection[str]] = None,
    ):
        check_metrics_mode(metrics_mode)
        self.spec = spec
        self.metrics_mode = metrics_mode
        self._streaming = metrics_mode == "streaming"
        self.simulator = Simulator()
        self.transform = GDTransform(order=spec.order)
        self.graph = TopologyGraph(self.simulator)
        self.measured_tap: Optional[LinkTap] = None
        self.measured_taps: List[Tuple[str, LinkTap]] = []
        self.control_planes: Dict[str, ZipLineControlPlane] = {}
        self.control_channels: Dict[str, ControlChannel] = {}
        self._decoder_owner: Dict[str, str] = {}
        self._control_plane_owners = 0  # the whole spec's, shard or not
        self._fault_restarts = 0
        self._fault_storm_evicted = 0
        self._fault_resync_installs = 0
        self._encoder_nodes: Dict[str, ZipLineEncoderNode] = {}
        self._decoder_nodes: Dict[str, ZipLineDecoderNode] = {}
        self._host_nodes: Dict[str, HostNode] = {}
        self._forward_nodes: Dict[str, ForwardNode] = {}
        self.flow_states: List[FlowState] = []
        self._arrivals = FlowArrivals()
        self._static_bases = None if static_bases is None else list(static_bases)
        self._component_of = node_components(spec).component_of
        self._build_nodes(None if shard is None else set(shard))
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

    def _build_nodes(self, members: Optional[Collection[str]]) -> None:
        self._host_macs: Dict[str, MacAddress] = {}
        for node_spec in self.spec.nodes:
            if members is not None and node_spec.name not in members:
                continue
            routing = dict(
                forwarding=dict(node_spec.forwarding),
                default_egress_port=node_spec.default_egress_port,
            )
            if node_spec.kind == "host":
                node = HostNode(node_spec.name)
                self._host_nodes[node_spec.name] = node
                self._host_macs[node_spec.name] = _host_mac(len(self._host_macs))
            elif node_spec.kind == "encoder":
                node = ZipLineEncoderNode(
                    node_spec.name,
                    transform=self.transform,
                    identifier_bits=self.spec.identifier_bits,
                    simulator=self.simulator,
                    entry_ttl=self.spec.entry_ttl,
                    digest_engine=DigestEngine(self.simulator),
                    port_count=self._switch_port_count(node_spec),
                    **routing,
                )
                self._encoder_nodes[node_spec.name] = node
            elif node_spec.kind == "decoder":
                node = ZipLineDecoderNode(
                    node_spec.name,
                    transform=self.transform,
                    identifier_bits=self.spec.identifier_bits,
                    simulator=self.simulator,
                    port_count=self._switch_port_count(node_spec),
                    **routing,
                )
                self._decoder_nodes[node_spec.name] = node
            else:  # forward
                node = ForwardNode(node_spec.name, **routing)
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
            record_delays=not self._streaming,
        )

    def _build_links(self) -> None:
        measured_names = {link.name for link in self.spec.measured_links}
        for link in self.spec.links:
            if link.source[0] not in self.graph.nodes:
                continue  # another shard's link
            tap = None
            if link.name in measured_names:
                tap = LinkTap()
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
        pairing = decoder_pairing(self.spec)
        for encoder_name, encoder_node in self._encoder_nodes.items():
            decoder_name = pairing[encoder_name]
            encoder = encoder_node.switch
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
                            f"control:{encoder_name}",
                        ),
                    )
                control_link = EmulatedLink(
                    simulator=self.simulator,
                    name=f"control.{encoder_name}",
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
                # A command's acknowledgement starts the encoder-side
                # install, so what the channel has in flight is the
                # encoder's too.
                channel.in_flight.watch(encoder.lookahead)
                self.control_channels[encoder_name] = channel
                decoder_transport = channel.transport
            self.control_planes[encoder_name] = ZipLineControlPlane(
                digest_engine=encoder.digest_engine,
                encoder_switch=encoder,
                decoder_switch=decoder,
                simulator=self.simulator,
                identifier_bits=self.spec.identifier_bits,
                entry_ttl=self.spec.entry_ttl,
                seed=self.spec.seed,
                decoder_transport=decoder_transport,
            )
        # Restart fault events resolve their control plane through the
        # pairing (decoder name -> owning encoder name).
        self._decoder_owner = {
            decoder: encoder
            for encoder, decoder in pairing.items()
            if decoder is not None
        }
        owners = len(pairing)
        if not pairing and (
            self.spec.scenario == "static" or self._static_bases is not None
        ):
            # An encoder-less graph still takes its static table through a
            # control plane, one per decoder.
            owners = sum(node.kind == "decoder" for node in self.spec.nodes)
            for name, node in self._decoder_nodes.items():
                self.control_planes[name] = ZipLineControlPlane(
                    digest_engine=DigestEngine(self.simulator),
                    decoder_switch=node.switch,
                    simulator=self.simulator,
                    identifier_bits=self.spec.identifier_bits,
                    entry_ttl=self.spec.entry_ttl,
                    seed=self.spec.seed,
                )
        self._control_plane_owners = owners

    def _build_flows(self) -> None:
        component_of = self._component_of
        decoder_components = {component_of[name] for name in self._decoder_nodes}
        # A shard's own flows; MACs need only be unique within one engine.
        own = [flow for flow in self.spec.flows if flow.source in self._host_nodes]
        for index, flow in enumerate(own):
            seed = self.spec.flow_seed(flow)
            source_mac = flow_source_mac(index)
            sink_mac = self._host_macs[flow.sink]
            source, static_bases = flow_source(
                flow, seed, self.spec.order, source_mac, sink_mac
            )
            state = FlowState(
                spec=flow,
                seed=seed,
                source=source,
                pacing=pacing_from_name(
                    flow.pacing,
                    packet_rate=flow.packet_rate,
                    speedup=flow.speedup,
                    start=flow.start,
                ),
                static_bases=static_bases,
                source_mac=source_mac,
                sink_mac=sink_mac,
                latency=Distribution(
                    f"flow.{flow.name}.latency", bounded=self._streaming
                ),
                # A flow with no decoder on its side of the graph has
                # nothing restoring its chunks, so nothing to verify.
                verified=component_of[flow.source] in decoder_components,
            )
            self.flow_states.append(state)
            self._arrivals.register(state)
        for name, host in self._host_nodes.items():
            deliver = partial(self._arrivals.deliver, name)
            deliver.cross = partial(self._arrivals.cross, name)  # type: ignore[attr-defined]
            host.on_deliver = deliver

    def _preload_static_bases(self) -> None:
        """Install each component's flows' bases into that component's
        tables, in flow-declaration order (or the caller's explicit bases
        into every table).

        Scoping the preload per connected component, and deciding where
        it goes by the whole spec's control planes, keeps a multi-encoder
        spec's dictionaries identical whether the spec runs monolithically
        or partitioned into per-encoder shards; on a single-component spec
        this is exactly the global union.
        """
        component_of = self._component_of
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
        if self._control_plane_owners:
            for name, control_plane in self.control_planes.items():
                bucket = bases_by_component.get(component_of[name])
                if bucket:
                    control_plane.preload_static_mappings(list(bucket))
        elif any(node.kind == "encoder" for node in self.spec.nodes):
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
                # The identifiers a control plane's pool would assign.
                pool = IdentifierPool(1 << self.spec.identifier_bits)
                for basis in bucket:
                    decoder_node.switch.install_identifier_mapping(
                        pool.allocate(basis).identifier, basis
                    )

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
        decoder_node.switch.mapping_table.clear()
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
        """Schedule each fault, in flight on the programs it can write: a
        restart on its decoder, a storm on its control plane's switches."""
        faults = self.spec.faults
        if faults is None or not faults.active:
            return
        for restart in faults.restarts:
            node = self._decoder_nodes.get(restart.node)
            if node is None:
                continue  # another shard's node
            wipe = InFlight(self.simulator)
            wipe.watch(node.lookahead)
            wipe.schedule_at(
                restart.time,
                partial(self._restart_decoder, restart.node),
                f"fault:restart:{restart.node}",
            )
        for storm in faults.storms:
            if storm.node not in self._encoder_nodes:
                continue
            plane = self.control_planes.get(storm.node)
            schedule = self.simulator if plane is None else plane.in_flight
            schedule.schedule_at(
                storm.time,
                partial(self._trigger_storm, storm.node, storm.count),
                f"fault:storm:{storm.node}",
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
        which a spec cannot carry, enter a run.  Under the ``static``
        scenario such a run needs the constructor's ``static_bases``: the
        table is preloaded at build time from what the spec describes.
        ``until``/``max_events`` bound the simulation for open-ended sources.
        """
        if sources and self.spec.scenario == "static" and self._static_bases is None:
            raise TopologyError(
                "a caller-built source under the static scenario needs "
                "explicit static_bases"
            )
        by_name = {state.spec.name: state for state in self.flow_states}
        for name, (source, pacing) in (sources or {}).items():
            if name not in by_name:
                raise TopologyError(
                    f"source given for unknown flow {name!r}; "
                    f"flows: {', '.join(by_name) or 'none'}"
                )
            by_name[name].use_source(source, pacing)
        self._schedule_faults()
        FlowInjector(self.simulator, self.flow_states, self.graph).start()
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
        return {
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
        # Named per owner whenever the whole spec has several, so shard
        # reports merge without colliding.
        qualify = self._control_plane_owners > 1
        for name, control_plane in self.control_planes.items():
            namespace = f"controlplane.{name}" if qualify else "controlplane"
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
        if self._arrivals.unattributed:
            metrics.increment(
                "flows.unattributed_frames", self._arrivals.unattributed
            )
        if self._arrivals.misdelivered:
            metrics.increment(
                "flows.misdelivered_frames", self._arrivals.misdelivered
            )
        return metrics

    def report(self) -> TopologyReport:
        """Fold everything measured so far into a :class:`TopologyReport`."""
        metrics = self._collect_metrics()
        return fold_report(
            self.spec,
            metrics,
            [state.result(metrics) for state in self.flow_states],
            wire_payload_bytes=sum(
                tap.total_payload_bytes() for _name, tap in self.measured_taps
            ),
            duration=self.simulator.now,
            first_times=self.wire_first_times(),
        )
