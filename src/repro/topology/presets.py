"""Named topology shapes: the specs users reach for without writing JSON.

:data:`TOPOLOGY_PRESETS` registers them by name for ``repro topology
--preset`` and the experiment matrix: ``linear`` (the paper's chain,
optionally one switch short), ``fan-in`` (K senders sharing one encoder —
the dictionary-contention scenario a single-flow chain cannot express),
``fan-in-stress`` (the same at rack scale), ``rack-fan-in`` (R independent
fan-ins, the shape that shards), ``fault-storm`` (fan-in + lossy control
channel + decoder restart) and ``paper-testbed`` (the two-switch
deployment).  Every builder returns a validated
:class:`~repro.topology.spec.TopologySpec`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.exceptions import TopologyError
from repro.topology.faults import FaultPlan, NodeRestart, validate_spec_faults
from repro.topology.spec import (
    LINEAR_SHAPES,
    MAX_PORT,
    FlowSpec,
    LinkSpec,
    NodeSpec,
    TopologySpec,
    _check,
)

__all__ = [
    "TOPOLOGY_PRESETS",
    "preset_topology",
    "linear_topology",
    "fan_in_topology",
    "fan_in_stress_topology",
    "rack_fan_in_topology",
    "fault_storm_topology",
    "paper_testbed_topology",
]


def linear_topology(
    name: str = "linear",
    scenario: str = "dynamic",
    hops: int = 1,
    workload: str = "synthetic",
    chunks: int = 1000,
    bases: int = 16,
    names: int = 300,
    trace: Optional[str] = None,
    pacing: str = "rate",
    packet_rate: float = 1e6,
    speedup: float = 1.0,
    bandwidth_gbps: float = 100.0,
    propagation_us: float = 0.5,
    queue_capacity: int = 0,
    loss: float = 0.0,
    reorder: float = 0.0,
    seed: int = 0,
    flow_seed: Optional[int] = None,
    link_seed: Optional[int] = None,
    order: int = 8,
    identifier_bits: int = 15,
    shape: str = "encoder-link-decoder",
    **overrides: Any,
) -> TopologySpec:
    """The paper's chain as a spec: sender → encoder → link(s) → decoder → sink.

    ``shape`` drops one switch from the chain: ``encoder-only`` delivers the
    processed (type-2/3) frames to the sink, ``decoder-only`` feeds the
    sender's frames straight onto the wire.  Either way the measured link is
    the emulated chain, whose hops are named ``link0``, ``link1``, ….
    """
    where = f"topology {name!r}"
    _check.choice(where, "shape", shape, LINEAR_SHAPES)
    _check.positive_int(where, "hops", hops)
    has_encoder = shape != "decoder-only"
    has_decoder = shape != "encoder-only"
    ports = dict(forwarding={0: 1}, default_egress_port=1)
    nodes = [NodeSpec(name="sender", kind="host")]
    links = []
    if has_encoder:
        nodes.append(
            NodeSpec(name="encoder", kind="encoder",
                     decoder="decoder" if has_decoder else None, **ports)
        )
        links.append(
            LinkSpec(name="ingress", source=("sender", 0), target=("encoder", 0),
                     direct=True)
        )
    if has_decoder:
        nodes.append(NodeSpec(name="decoder", kind="decoder", **ports))
    nodes.append(NodeSpec(name="sink", kind="host"))
    links.append(
        LinkSpec(
            name="link0" if hops == 1 else "link",
            source=("encoder", 1) if has_encoder else ("sender", 0),
            target=("decoder", 0) if has_decoder else ("sink", 0),
            bandwidth_gbps=bandwidth_gbps,
            propagation_us=propagation_us,
            queue_capacity=queue_capacity,
            loss=loss,
            reorder=reorder,
            hops=hops,
            measured=True,
            seed=link_seed,
        )
    )
    if has_decoder:
        links.append(
            LinkSpec(name="egress", source=("decoder", 1), target=("sink", 0),
                     direct=True)
        )
    return TopologySpec(
        name=name,
        scenario=scenario,
        order=order,
        identifier_bits=identifier_bits,
        seed=seed,
        nodes=nodes,
        links=links,
        flows=[
            FlowSpec(
                name="flow0", source="sender", sink="sink", workload=workload,
                chunks=chunks, bases=bases, names=names, trace=trace,
                pacing=pacing, packet_rate=packet_rate, speedup=speedup,
                seed=flow_seed,
            )
        ],
        **overrides,
    )


def _fan_in_rack(
    rack: Optional[int], senders: int, wire: Dict[str, Any], flow: Dict[str, Any]
) -> Tuple[List[NodeSpec], List[LinkSpec], List[FlowSpec]]:
    """One K-sender fan-in: senders → encoder → measured wire → decoder → sink.

    The single-rack ``fan-in`` preset (``rack=None``) names its parts
    ``sender3`` / ``encoder`` / ``shared``; rack ``r`` of ``rack-fan-in``
    names them ``sender<r>_3`` / ``encoder<r>`` / ``wire<r>``.  ``wire``
    and ``flow`` hold the measured link's and every flow's parameters.
    """
    # Checked before anything is allocated: each sender takes an encoder
    # port, and the wire sits on the port after the last one.
    _check.positive_int("fan-in preset", "senders", senders, MAX_PORT)
    tag = "" if rack is None else str(rack)
    members = [f"{tag}_{index}" if tag else str(index) for index in range(senders)]
    wire_port = senders  # the encoder's egress sits after its K ingress ports
    nodes = [NodeSpec(name=f"sender{member}", kind="host") for member in members]
    nodes += [
        NodeSpec(
            name=f"encoder{tag}",
            kind="encoder",
            forwarding={index: wire_port for index in range(senders)},
            default_egress_port=wire_port,
            decoder=f"decoder{tag}",
        ),
        NodeSpec(name=f"decoder{tag}", kind="decoder", forwarding={0: 1},
                 default_egress_port=1),
        NodeSpec(name=f"sink{tag}", kind="host"),
    ]
    links = [
        LinkSpec(
            name=f"ingress{member}",
            source=(f"sender{member}", 0),
            target=(f"encoder{tag}", index),
            direct=True,
        )
        for index, member in enumerate(members)
    ]
    links += [
        LinkSpec(
            name=f"wire{tag}" if tag else "shared",
            source=(f"encoder{tag}", wire_port),
            target=(f"decoder{tag}", 0),
            measured=True,
            **wire,
        ),
        LinkSpec(name=f"egress{tag}", source=(f"decoder{tag}", 1),
                 target=(f"sink{tag}", 0), direct=True),
    ]
    flows = [
        FlowSpec(
            name=f"flow{member}",
            source=f"sender{member}",
            sink=f"sink{tag}",
            # Stagger starts by one inter-packet gap so simultaneous-arrival
            # ties never depend on flow declaration order.
            start=index / (flow["packet_rate"] * senders),
            **flow,
        )
        for index, member in enumerate(members)
    ]
    return nodes, links, flows


def fan_in_topology(
    name: str = "fan-in",
    senders: int = 4,
    scenario: str = "dynamic",
    hops: int = 1,
    workload: str = "synthetic",
    chunks: int = 1000,
    bases: int = 16,
    names: int = 300,
    trace: Optional[str] = None,
    pacing: str = "rate",
    packet_rate: float = 1e6,
    speedup: float = 1.0,
    bandwidth_gbps: float = 100.0,
    propagation_us: float = 0.5,
    queue_capacity: int = 0,
    loss: float = 0.0,
    reorder: float = 0.0,
    seed: int = 0,
    order: int = 8,
    identifier_bits: int = 15,
    **overrides: Any,
) -> TopologySpec:
    """K senders fan in through one shared ZipLine encoder.

    Every sender drives its own flow (own workload stream, own derived
    seed) into a dedicated encoder ingress port; the shared encoder, the
    measured inter-switch link and the decoder serve all of them — the
    dictionary-contention scenario a single-flow chain cannot express.
    """
    nodes, links, flows = _fan_in_rack(
        None,
        senders,
        wire=dict(
            bandwidth_gbps=bandwidth_gbps, propagation_us=propagation_us,
            queue_capacity=queue_capacity, loss=loss, reorder=reorder, hops=hops,
        ),
        flow=dict(
            workload=workload, chunks=chunks, bases=bases, names=names,
            trace=trace, pacing=pacing, packet_rate=packet_rate, speedup=speedup,
        ),
    )
    return TopologySpec(
        name=name,
        scenario=scenario,
        order=order,
        identifier_bits=identifier_bits,
        seed=seed,
        nodes=nodes,
        links=links,
        flows=flows,
        **overrides,
    )


def rack_fan_in_topology(
    name: str = "rack-fan-in",
    racks: int = 4,
    senders: int = 8,
    scenario: str = "dynamic",
    hops: int = 1,
    workload: str = "synthetic",
    chunks: int = 500,
    bases: int = 8,
    names: int = 300,
    trace: Optional[str] = None,
    pacing: str = "rate",
    packet_rate: float = 1e6,
    speedup: float = 1.0,
    bandwidth_gbps: float = 100.0,
    propagation_us: float = 0.5,
    queue_capacity: int = 0,
    loss: float = 0.0,
    reorder: float = 0.0,
    seed: int = 0,
    order: int = 8,
    identifier_bits: int = 15,
    **overrides: Any,
) -> TopologySpec:
    """R independent racks, each a K-sender fan-in behind its own encoder.

    The datacenter deployment at scale: every rack has its own encoder,
    measured rack wire and decoder, and nothing crosses rack boundaries —
    exactly the shape the shard partitioner splits into R independent
    subgraphs, so ``--workers N`` gets genuine parallelism here where the
    single-encoder ``fan-in`` preset collapses to one shard.
    """
    _check.positive_int(f"topology {name!r}", "racks", racks)
    wire = dict(
        bandwidth_gbps=bandwidth_gbps, propagation_us=propagation_us,
        queue_capacity=queue_capacity, loss=loss, reorder=reorder, hops=hops,
    )
    flow = dict(
        workload=workload, chunks=chunks, bases=bases, names=names,
        trace=trace, pacing=pacing, packet_rate=packet_rate, speedup=speedup,
    )
    nodes: List[NodeSpec] = []
    links: List[LinkSpec] = []
    flows: List[FlowSpec] = []
    for rack in range(racks):
        rack_nodes, rack_links, rack_flows = _fan_in_rack(rack, senders, wire, flow)
        nodes += rack_nodes
        links += rack_links
        flows += rack_flows
    return TopologySpec(
        name=name,
        scenario=scenario,
        order=order,
        identifier_bits=identifier_bits,
        seed=seed,
        nodes=nodes,
        links=links,
        flows=flows,
        **overrides,
    )


def fan_in_stress_topology(
    name: str = "fan-in-stress",
    senders: int = 1000,
    chunks: int = 100,
    bases: int = 8,
    **kwargs: Any,
) -> TopologySpec:
    """The ``senders=1000+`` stress shape: the fan-in preset at rack scale.

    Defaults trade per-flow depth (``chunks=100``) for breadth so a stress
    run finishes in minutes; pass ``senders=``/``chunks=`` to push further.
    """
    return fan_in_topology(
        name=name, senders=senders, chunks=chunks, bases=bases, **kwargs
    )


def paper_testbed_topology(
    name: str = "paper-testbed",
    scenario: str = "dynamic",
    workload: str = "synthetic",
    chunks: int = 1000,
    bases: int = 16,
    names: int = 300,
    trace: Optional[str] = None,
    pacing: str = "rate",
    packet_rate: float = 1e6,
    speedup: float = 1.0,
    seed: int = 0,
    order: int = 8,
    identifier_bits: int = 15,
    **overrides: Any,
) -> TopologySpec:
    """The paper's two-switch testbed: a direct, tapped inter-switch hop."""
    spec = linear_topology(
        name=name,
        scenario=scenario,
        workload=workload,
        chunks=chunks,
        bases=bases,
        names=names,
        trace=trace,
        pacing=pacing,
        packet_rate=packet_rate,
        speedup=speedup,
        seed=seed,
        order=order,
        identifier_bits=identifier_bits,
        **overrides,
    )
    # Replace the emulated hop with the deployment's synchronous tapped wire.
    spec.links = [
        link if not link.measured else LinkSpec(
            name=link.name, source=link.source, target=link.target,
            direct=True, measured=True,
        )
        for link in spec.links
    ]
    return spec


def fault_storm_topology(
    name: str = "fault-storm",
    senders: int = 4,
    chunks: int = 600,
    bases: int = 6,
    control_loss: float = 0.10,
    control_rate: Optional[float] = None,
    restart_at: Optional[float] = None,
    packet_rate: float = 1e5,
    **kwargs: Any,
) -> TopologySpec:
    """The chaos-smoke shape: fan-in + lossy control channel + decoder restart.

    An in-network control plane loses ``control_loss`` of its frames, and
    the decoder crashes mid-trace (halfway through the nominal send window
    by default), wiping its identifier table.  The run must still finish
    with zero corruption: lost installs surface as ``control.dropped`` and
    ``decoder.unknown_identifier`` misses, and the post-restart resync
    restores every surviving binding.  CI runs this preset with
    ``--workers 2`` and asserts nonzero recovery counters.
    """
    if restart_at is None:
        # Halfway through the nominal send window of one flow.  The default
        # packet rate keeps that window well past the control plane's
        # learning latency (digest + table writes ≈ 1.8 ms), so the wiped
        # table is non-empty and the resync actually has work to do.
        restart_at = chunks / (2.0 * packet_rate)
    spec = fan_in_topology(
        name=name,
        senders=senders,
        chunks=chunks,
        bases=bases,
        packet_rate=packet_rate,
        control="in-network",
        control_rate=control_rate,
        **kwargs,
    )
    spec.faults = FaultPlan(
        control_loss=control_loss,
        restarts=(NodeRestart(node="decoder", time=restart_at),),
    )
    validate_spec_faults(spec)
    return spec


#: Named topology shapes ``repro topology --preset`` and the experiment
#: matrix can reach without writing a spec file.
TOPOLOGY_PRESETS: Dict[str, Callable[..., TopologySpec]] = {
    "linear": linear_topology,
    "fan-in": fan_in_topology,
    "fan-in-stress": fan_in_stress_topology,
    "rack-fan-in": rack_fan_in_topology,
    "fault-storm": fault_storm_topology,
    "paper-testbed": paper_testbed_topology,
}


def preset_topology(name: str, **kwargs: Any) -> TopologySpec:
    """Build a preset topology by name; unknown names list the valid ones."""
    builder = TOPOLOGY_PRESETS.get(name)
    if builder is None:
        valid = ", ".join(sorted(TOPOLOGY_PRESETS))
        raise TopologyError(
            f"unknown topology preset {name!r}; valid presets: {valid}"
        )
    return builder(**kwargs)
