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

A builder's signature declares only what is its own — the shape's
arguments, and the defaults it sets differently from the schema.  Every
other keyword is a run parameter of :mod:`repro.topology.spec`
(``FLOW_PARAMETERS``, ``WIRE_PARAMETERS``, ``SPEC_SETTINGS``), which owns
its default and check: ``route_parameters`` hands each to the flows, the
measured wire or the spec, and rejects any other name with a
:class:`~repro.exceptions.TopologyError` listing what the preset takes.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

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
    route_parameters,
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


def _chain(
    name: str, shape: str, flow: Dict[str, Any], wire: Dict[str, Any],
    settings: Dict[str, Any],
) -> TopologySpec:
    """sender → encoder → measured link → decoder → sink, less the switch
    ``shape`` drops; ``flow`` and ``wire`` are the one flow's and the
    measured link's fields."""
    _check.choice(f"topology {name!r}", "shape", shape, LINEAR_SHAPES)
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
            name="link0" if wire.get("hops", LinkSpec.hops) == 1 else "link",
            source=("encoder", 1) if has_encoder else ("sender", 0),
            target=("decoder", 0) if has_decoder else ("sink", 0),
            measured=True,
            **wire,
        )
    )
    if has_decoder:
        links.append(
            LinkSpec(name="egress", source=("decoder", 1), target=("sink", 0),
                     direct=True)
        )
    flows = [FlowSpec(name="flow0", source="sender", sink="sink", **flow)]
    return TopologySpec(name=name, nodes=nodes, links=links, flows=flows, **settings)


def linear_topology(
    name: str = "linear",
    shape: str = "encoder-link-decoder",
    flow_seed: Optional[int] = None,
    link_seed: Optional[int] = None,
    **params: Any,
) -> TopologySpec:
    """The paper's chain as a spec: sender → encoder → link(s) → decoder → sink.

    ``shape`` drops one switch from the chain: ``encoder-only`` delivers the
    processed (type-2/3) frames to the sink, ``decoder-only`` feeds the
    sender's frames straight onto the wire.  Either way the measured link is
    the emulated chain, whose hops are named ``link0``, ``link1``, ….
    """
    flow, wire, settings = route_parameters(linear_topology, params)
    return _chain(
        name, shape, dict(flow, seed=flow_seed), dict(wire, seed=link_seed), settings
    )


def paper_testbed_topology(
    name: str = "paper-testbed", flow_seed: Optional[int] = None, **params: Any
) -> TopologySpec:
    """The paper's two-switch testbed: a direct, tapped inter-switch hop."""
    # The deployment's synchronous wire is not emulated: no link parameter
    # applies to it.
    flow, _, settings = route_parameters(paper_testbed_topology, params, wire=False)
    return _chain(
        name, LINEAR_SHAPES[0], dict(flow, seed=flow_seed), dict(direct=True), settings
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
    packet_rate = flow.get("packet_rate", FlowSpec.packet_rate)
    flows = [
        FlowSpec(
            name=f"flow{member}",
            source=f"sender{member}",
            sink=f"sink{tag}",
            # Stagger starts by one inter-packet gap so simultaneous-arrival
            # ties never depend on flow declaration order.
            start=index / (packet_rate * senders),
            **flow,
        )
        for index, member in enumerate(members)
    ]
    return nodes, links, flows


def _fan_in(
    name: str, racks: Iterable[Optional[int]], senders: int,
    flow: Dict[str, Any], wire: Dict[str, Any], settings: Dict[str, Any],
) -> TopologySpec:
    """One :func:`_fan_in_rack` per entry of ``racks``, side by side."""
    nodes: List[NodeSpec] = []
    links: List[LinkSpec] = []
    flows: List[FlowSpec] = []
    for rack in racks:
        rack_nodes, rack_links, rack_flows = _fan_in_rack(rack, senders, wire, flow)
        nodes += rack_nodes
        links += rack_links
        flows += rack_flows
    return TopologySpec(name=name, nodes=nodes, links=links, flows=flows, **settings)


def fan_in_topology(
    name: str = "fan-in", senders: int = 4, **params: Any
) -> TopologySpec:
    """K senders fan in through one shared ZipLine encoder.

    Every sender drives its own flow (own workload stream, own derived
    seed) into a dedicated encoder ingress port; the shared encoder, the
    measured inter-switch link and the decoder serve all of them — the
    dictionary-contention scenario a single-flow chain cannot express.
    """
    return _fan_in(name, (None,), senders, *route_parameters(fan_in_topology, params))


def rack_fan_in_topology(
    name: str = "rack-fan-in",
    racks: int = 4,
    senders: int = 8,
    chunks: int = 500,
    bases: int = 8,
    **params: Any,
) -> TopologySpec:
    """R independent racks, each a K-sender fan-in behind its own encoder.

    The datacenter deployment at scale: every rack has its own encoder,
    measured rack wire and decoder, and nothing crosses rack boundaries —
    exactly the shape the shard partitioner splits into R independent
    subgraphs, so ``--workers N`` gets genuine parallelism here where the
    single-encoder ``fan-in`` preset collapses to one shard.
    """
    routed = route_parameters(
        rack_fan_in_topology, dict(params, chunks=chunks, bases=bases)
    )
    _check.positive_int(f"topology {name!r}", "racks", racks)
    return _fan_in(name, range(racks), senders, *routed)


def fan_in_stress_topology(
    name: str = "fan-in-stress",
    senders: int = 1000,
    chunks: int = 100,
    bases: int = 8,
    **params: Any,
) -> TopologySpec:
    """The ``senders=1000+`` stress shape: the fan-in preset at rack scale.

    Defaults trade per-flow depth (``chunks=100``) for breadth so a stress
    run finishes in minutes; pass ``senders=``/``chunks=`` to push further.
    """
    routed = route_parameters(
        fan_in_stress_topology, dict(params, chunks=chunks, bases=bases)
    )
    return _fan_in(name, (None,), senders, *routed)


def fault_storm_topology(
    name: str = "fault-storm",
    senders: int = 4,
    chunks: int = 600,
    bases: int = 6,
    packet_rate: float = 1e5,
    control_loss: float = 0.10,
    restart_at: Optional[float] = None,
    **params: Any,
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
    routed = route_parameters(
        fault_storm_topology,
        dict(params, chunks=chunks, bases=bases, packet_rate=packet_rate),
        control="in-network",  # the lossy channel: not the caller's to choose
    )
    if restart_at is None:
        # Halfway through the nominal send window of one flow.  The default
        # packet rate keeps that window well past the control plane's
        # learning latency (digest + table writes ≈ 1.8 ms), so the wiped
        # table is non-empty and the resync actually has work to do.
        restart_at = chunks / (2.0 * packet_rate)
    spec = _fan_in(name, (None,), senders, *routed)
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
