"""The topology graph: nodes, edges, and deterministic wiring.

A :class:`TopologyGraph` is a directed graph of named :class:`Node` objects
connected by edges.  An edge goes from one node's egress *port* to another
node's ingress port and is either **direct** (a synchronous function call,
the way the original two-switch deployment wired its hop) or **emulated**
(one or more :class:`~repro.replay.link.EmulatedLink` hops in series on the
shared simulator).  An edge may carry a
:class:`~repro.zipline.stats.LinkTap` that observes every frame entering it
— the measurement point the Figure 3 byte accounting reads.

The graph only *describes and wires*; traffic generation, flow bookkeeping
and reporting live in :class:`~repro.topology.engine.TopologyEngine`.

:func:`node_components` answers the one graph question asked of a *spec*
before anything is built: which nodes can exchange traffic or control state
(the engine scopes static preloads by it, the shard partitioner splits
along it).  :func:`decoder_pairing` is the one rule that pairs an encoder
with the decoder its control plane writes; both the components and the
engine's control planes read it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.exceptions import TopologyError
from repro.sim.lookahead import Lookahead
from repro.sim.simulator import Simulator

if TYPE_CHECKING:  # runtime imports stay lazy: repro.replay imports us back
    from repro.replay.link import EmulatedLink, ImpairmentModel
    from repro.topology.spec import LinkSpec, TopologySpec
    from repro.zipline.stats import LinkTap

__all__ = [
    "LinkSink", "Node", "TopologyEdge", "TopologyGraph", "build_link_chain",
    "SpecComponents", "decoder_pairing", "node_components",
]

#: ``sink(frame_bytes, time)`` — the signature shared by switch port sinks,
#: link sends and host delivery (same shape as ``repro.replay.link.LinkSink``).
LinkSink = Callable[[bytes, float], None]


class Node:
    """One vertex of the topology graph.

    Every node has a unique ``name``, answers :meth:`ingress` with the sink
    that takes the frames of one numbered ingress port, and exposes
    numbered egress ports the graph attaches sinks to via :meth:`attach`.
    Concrete nodes live in :mod:`repro.topology.nodes`.

    ``timed_ingress`` says the node's ingress sinks honour their ``time``
    argument and the node may take any frame stamped ahead of the clock:
    it acts as of that instant, and nothing else it does depends on when.
    ``lookahead`` is set on a node that runs a switch program against its
    tables instead: it honours ``time`` too, but may only take a frame
    ahead of the clock when its :class:`~repro.sim.lookahead.Lookahead`
    admits the stamp.
    """

    timed_ingress = False
    lookahead: Optional["Lookahead"] = None

    def __init__(self, name: str):
        if not name or not isinstance(name, str):
            raise TopologyError(f"node name must be a non-empty string, got {name!r}")
        self.name = name

    def ingress(self, port: int) -> LinkSink:
        """The sink ``(frame_bytes, time)`` for frames arriving on ``port``.

        :meth:`TopologyGraph.wire` asks once per edge and hands the answer
        to the upstream link or node, so a frame enters the node without
        an adapter call in between.  Whatever a node decides per port it
        decides here; what may change after wiring (a host's
        ``on_deliver``, a switch's forwarding and egress sinks) the
        returned sink must read per frame.
        """
        raise NotImplementedError

    def receive(self, frame_bytes: bytes, port: int, time: float) -> None:
        """Handle one frame arriving on ingress ``port`` at ``time``."""
        self.ingress(port)(frame_bytes, time)

    def attach(
        self,
        port: int,
        sink: LinkSink,
        timed: bool = False,
        lookahead: Optional["Lookahead"] = None,
    ) -> None:
        """Attach the sink that egress ``port`` transmits into.

        ``timed`` says the sink honours its ``time`` argument; ``lookahead``
        is that of the switch program the sink feeds as its only data input
        (see :meth:`repro.tofino.switch.TofinoSwitch.attach_port`).  Nodes
        that never transmit ahead of the clock ignore both.
        """
        raise NotImplementedError

    def counters(self) -> Dict[str, float]:
        """Per-node counters for the metrics registry (may be empty)."""
        return {}


@dataclass
class TopologyEdge:
    """A directed connection between two node ports.

    ``links`` is the serial chain of emulated hops the edge traverses — an
    empty tuple means a direct synchronous attachment.  ``tap`` observes
    every frame entering the edge (before the first hop), exactly where the
    paper's testbed places its measurement tap.
    """

    source: str
    source_port: int
    target: str
    target_port: int = 0
    links: Tuple["EmulatedLink", ...] = ()
    tap: Optional["LinkTap"] = None


class TopologyGraph:
    """A named collection of nodes plus the edges that connect them.

    Nodes and edges are registered first, then :meth:`wire` performs all
    the attachments in one deterministic pass (edge registration order).
    Wiring is idempotent per graph: calling :meth:`wire` twice raises, so a
    half-wired graph can never go unnoticed.
    """

    def __init__(self, simulator: Simulator):
        self.simulator = simulator
        self.nodes: Dict[str, Node] = {}
        self.edges: List[TopologyEdge] = []
        self._wired = False

    # -- construction --------------------------------------------------------

    def add_node(self, node: Node) -> Node:
        """Register a node; names must be unique within the graph."""
        if node.name in self.nodes:
            raise TopologyError(f"duplicate node name {node.name!r}")
        self.nodes[node.name] = node
        return node

    def node(self, name: str) -> Node:
        """Look up a node by name."""
        try:
            return self.nodes[name]
        except KeyError:
            known = ", ".join(sorted(self.nodes)) or "none"
            raise TopologyError(
                f"unknown node {name!r}; known nodes: {known}"
            ) from None

    def add_edge(
        self,
        source: str,
        source_port: int,
        target: str,
        target_port: int = 0,
        links: Sequence["EmulatedLink"] = (),
        tap: Optional["LinkTap"] = None,
    ) -> TopologyEdge:
        """Register a directed edge (validated against registered nodes)."""
        if source not in self.nodes:
            raise TopologyError(
                f"edge references unknown source node {source!r}"
            )
        if target not in self.nodes:
            raise TopologyError(
                f"edge references unknown target node {target!r}"
            )
        edge = TopologyEdge(
            source=source,
            source_port=source_port,
            target=target,
            target_port=target_port,
            links=tuple(links),
            tap=tap,
        )
        self.edges.append(edge)
        return edge

    # -- wiring --------------------------------------------------------------

    def wire(self) -> None:
        """Attach every edge: chain its links and connect both endpoints.

        Each edge's entry is attached *timed* when it honours the ``time``
        it is called with — an emulated link's ``send``, or a node with
        ``timed_ingress`` (a host) — so a switch may hand frames into it
        stamped ahead of the clock.

        An edge into a switch program hands the program a frame at once,
        stamped with the instant it arrives there, exactly when no pending
        or possible event can touch the program before that stamp; so does
        each hop of a chain of links into the next.  The part of that rule
        a run cannot change is decided here, once: the edge must be the
        program's only data input, so frames reach it in stamp order.  Such
        an edge hands the program's :class:`~repro.sim.lookahead.Lookahead`
        to its last link, or, when it is direct, to the upstream switch's
        port.  A link's only writer is the link upstream of it, so every
        hop of a chain hands its downstream link a fresh ``Lookahead`` that
        no source of writes watches.  The per-frame rest — the earliest
        write pending on the receiver after the stamp, no frame delayed by
        the impairment model or owed by the link still pending, the stamp
        within the run's horizon and closer than a new control write could
        land — is :meth:`~repro.sim.lookahead.Lookahead.admits` and the
        link's own order (:meth:`~repro.replay.link.EmulatedLink.send`).
        Every other edge into a program, and every edge into a forwarder,
        keeps its delivery or transmit event.
        """
        if self._wired:
            raise TopologyError("topology graph is already wired")
        self._wired = True
        inputs = Counter(edge.target for edge in self.edges)
        for edge in self.edges:
            target = self.nodes[edge.target]
            sink = target.ingress(edge.target_port)
            lookahead = target.lookahead if inputs[edge.target] == 1 else None
            if edge.links:
                for upstream, downstream in zip(edge.links, edge.links[1:]):
                    upstream.attach(downstream.send, Lookahead(self.simulator))
                edge.links[-1].attach(sink, lookahead=lookahead)
                entry: LinkSink = edge.links[0].send
                timed = True
                lookahead = None
            else:
                entry = sink
                timed = target.timed_ingress
            if edge.tap is not None:
                edge.tap.attach(entry)
                entry = edge.tap.observe
            self.nodes[edge.source].attach(
                edge.source_port, entry, timed=timed, lookahead=lookahead
            )

    # -- inspection ----------------------------------------------------------

    @property
    def links(self) -> List["EmulatedLink"]:
        """Every emulated link of the graph, in edge then hop order."""
        return [link for edge in self.edges for link in edge.links]


def build_link_chain(
    simulator: Simulator,
    names: Sequence[str],
    bandwidth_bps: float = 100e9,
    propagation_delay: float = 0.5e-6,
    queue_capacity: Optional[int] = None,
    impairments: Optional["ImpairmentModel"] = None,
    record_delays: bool = True,
) -> List["EmulatedLink"]:
    """Build a serial chain of identically-parameterised emulated links.

    One link per entry of ``names``; when an impairment model is given,
    every hop receives an independent deterministic ``fork(index)`` so
    multi-hop loss streams stay exactly reproducible.  This is the one
    place multi-hop paths are constructed.
    """
    from repro.replay.link import EmulatedLink

    if not names:
        raise TopologyError("a link chain needs at least one link name")
    return [
        EmulatedLink(
            simulator=simulator,
            name=name,
            bandwidth_bps=bandwidth_bps,
            propagation_delay=propagation_delay,
            queue_capacity=queue_capacity,
            impairments=None if impairments is None else impairments.fork(index),
            record_delays=record_delays,
        )
        for index, name in enumerate(names)
    ]


def decoder_pairing(spec: "TopologySpec") -> Dict[str, Optional[str]]:
    """Each encoder's paired decoder, by name: the one pairing rule.

    An encoder pairs with its explicit ``decoder``, else with the spec's
    only decoder node; with no decoder it stays unpaired (``None``).  Under
    a scenario that builds control planes, an encoder left unpaired among
    several decoders, and a decoder claimed by two encoders (its table
    serves one control plane), are spec errors; ``no_table`` takes both.
    """
    decoders = [node.name for node in spec.nodes if node.kind == "decoder"]
    pairing: Dict[str, Optional[str]] = {}
    owner: Dict[Optional[str], str] = {}
    for node in spec.nodes:
        if node.kind != "encoder":
            continue
        decoder = node.decoder
        if decoder is None and len(decoders) == 1:
            decoder = decoders[0]
        if spec.scenario != "no_table":
            if decoder is None and decoders:
                raise TopologyError(
                    f"node {node.name!r}: multiple decoder nodes exist; "
                    "set its 'decoder' pairing explicitly"
                )
            if decoder is not None and decoder in owner:
                raise TopologyError(
                    f"node {decoder!r}: paired with both {owner[decoder]!r} and "
                    f"{node.name!r}; a decoder's identifier table serves one "
                    "encoder"
                )
        pairing[node.name] = decoder
        owner.setdefault(decoder, node.name)
    return pairing


class SpecComponents(NamedTuple):
    """A spec's connected components, from one union-find pass.

    ``component_of`` maps every node name to a dense component id, ordered
    by first appearance in the node list; ``groups`` holds each
    component's node names in declaration order.  ``bridge`` is the first
    link that joined two parts each holding an encoder (``None`` when no
    link did): the link a per-encoder partition would have to cut.
    """

    component_of: Dict[str, int]
    groups: List[List[str]]
    bridge: Optional["LinkSpec"]


def node_components(spec: "TopologySpec") -> SpecComponents:
    """The connected components of ``spec``.

    Components are computed over the undirected union of all links, then
    of each encoder's control coupling to its paired decoder
    (:func:`decoder_pairing`) — two nodes share a component exactly when
    traffic or control state can flow between them.  Deterministic for a
    given spec.
    """
    parent = {node.name: node.name for node in spec.nodes}
    encoders = {node.name: int(node.kind == "encoder") for node in spec.nodes}

    def find(name: str) -> str:
        while parent[name] != name:
            parent[name] = parent[parent[name]]
            name = parent[name]
        return name

    def union(a: str, b: str) -> bool:
        """Join the parts of ``a`` and ``b``; true when both held an encoder."""
        root_a, root_b = find(a), find(b)
        if root_a == root_b:
            return False
        parent[root_a] = root_b
        both = encoders[root_a] > 0 and encoders[root_b] > 0
        encoders[root_b] += encoders[root_a]
        return both

    bridge = None
    for link in spec.links:
        if union(link.source[0], link.target[0]) and bridge is None:
            bridge = link
    for encoder, decoder in decoder_pairing(spec).items():
        if decoder is not None:
            union(encoder, decoder)
    ids: Dict[str, int] = {}
    component_of: Dict[str, int] = {}
    groups: List[List[str]] = []
    for node in spec.nodes:
        root = find(node.name)
        if root not in ids:
            ids[root] = len(groups)
            groups.append([])
        component_of[node.name] = ids[root]
        groups[ids[root]].append(node.name)
    return SpecComponents(component_of, groups, bridge)
