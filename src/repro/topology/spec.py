"""Declarative topology descriptions: nodes, links, flows — and presets.

A :class:`TopologySpec` is the JSON/dict form of a topology experiment:

* ``nodes`` — named vertices with a ``kind`` (``host``, ``encoder``,
  ``decoder``, ``forward``);
* ``links`` — directed connections ``"node:port" -> "node:port"`` with
  per-link emulation parameters (bandwidth, propagation, queue bound,
  loss/reorder, serial ``hops``); ``direct: true`` makes the connection a
  synchronous wire (the original testbed's tapped hop), ``measured: true``
  marks the link whose traffic the Figure 3 byte accounting reads;
* ``flows`` — concurrent traffic streams, each with its own source/sink
  host, workload or trace, pacing, start offset and seed.  A flow without
  an explicit seed gets one derived from the spec name, the spec seed and
  the flow name via the same CRC-32 scheme the experiment matrix uses, so
  per-flow randomness never depends on declaration order, scheduling order
  or worker count.

Validation is strict and *names the offending node, link or flow* in every
error — a sweep over hundreds of generated specs must fail with "link
'uplink': unknown target node 'decdoer'", not a bare KeyError.

:data:`TOPOLOGY_PRESETS` registers the shapes users reach for by name:
``linear`` (the paper's chain, optionally one switch short), ``fan-in`` (K senders sharing one
encoder — the dictionary-contention scenario a single-flow harness cannot
express) and ``paper-testbed`` (the two-switch deployment).
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.exceptions import TopologyError
from repro.topology.faults import FaultPlan, NodeRestart, validate_spec_faults

__all__ = [
    "NodeSpec",
    "LinkSpec",
    "FlowSpec",
    "TopologySpec",
    "TOPOLOGY_PRESETS",
    "preset_topology",
    "linear_topology",
    "fan_in_topology",
    "fan_in_stress_topology",
    "rack_fan_in_topology",
    "fault_storm_topology",
    "paper_testbed_topology",
    "derive_seed",
    "derive_flow_seed",
]

NODE_KINDS = ("host", "encoder", "decoder", "forward")
WORKLOADS = ("synthetic", "dns", "thrash")
PACINGS = ("recorded", "rate", "back-to-back")
SCENARIOS = ("no_table", "static", "dynamic")
CONTROL_MODES = ("direct", "in-network")
#: What :func:`linear_topology` can put between the sender and the sink.
LINEAR_SHAPES = ("encoder-link-decoder", "encoder-only", "decoder-only")


def derive_seed(name: str, seed: int, entity_id: str) -> int:
    """Stable component seed: a name/seed pair mixed with an entity identity.

    This is *the* seed-derivation scheme of the repository (CRC-32, stable
    across processes, platforms and Python versions, result in the
    non-negative 31-bit range every consumer accepts).  The experiment
    matrix derives per-scenario seeds through it, topologies derive
    per-flow and per-link seeds through it — so randomness is always a
    pure function of *what* an entity is, never of scheduling order,
    declaration order or worker count.
    """
    digest = zlib.crc32(f"{name}:{entity_id}".encode("utf-8"))
    return (digest ^ (seed & 0xFFFFFFFF)) & 0x7FFFFFFF


def derive_flow_seed(spec_name: str, spec_seed: int, flow_name: str) -> int:
    """Per-flow seed: the flow's identity through :func:`derive_seed`.

    >>> derive_flow_seed("demo", 0, "flow0") == derive_flow_seed("demo", 0, "flow0")
    True
    >>> derive_flow_seed("demo", 0, "flow0") != derive_flow_seed("demo", 0, "flow1")
    True
    """
    return derive_seed(spec_name, spec_seed, f"flow:{flow_name}")


def _where_error(where: str, message: str) -> TopologyError:
    return TopologyError(f"{where}: {message}")


def _require_string(where: str, name: str, value: Any) -> str:
    if not isinstance(value, str) or not value:
        raise _where_error(where, f"{name} must be a non-empty string, got {value!r}")
    return value


def _require_choice(where: str, name: str, value: Any, options: Sequence[str]) -> str:
    if not isinstance(value, str) or value not in options:
        raise _where_error(
            where, f"{name} must be one of {', '.join(options)}; got {value!r}"
        )
    return value


def _require_positive_int(where: str, name: str, value: Any) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
        raise _where_error(where, f"{name} must be a positive integer, got {value!r}")
    return value


def _require_non_negative_number(where: str, name: str, value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value < 0:
        raise _where_error(
            where, f"{name} must be a non-negative number, got {value!r}"
        )
    return float(value)


def _require_positive_number(where: str, name: str, value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value <= 0:
        raise _where_error(where, f"{name} must be a positive number, got {value!r}")
    return float(value)


def _require_probability(where: str, name: str, value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _where_error(where, f"{name} must be a number in [0, 1], got {value!r}")
    if not 0.0 <= value <= 1.0:
        raise _where_error(where, f"{name} must be within [0, 1], got {value!r}")
    return float(value)


def _reject_unknown_keys(where: str, data: Mapping[str, Any], known: Sequence[str]) -> None:
    unknown = set(data) - set(known)
    if unknown:
        raise _where_error(
            where,
            f"unknown keys: {', '.join(sorted(unknown))} "
            f"(expected {', '.join(known)})",
        )


def _parse_port_ref(where: str, name: str, value: Any) -> Tuple[str, int]:
    """Parse a ``"node:port"`` endpoint reference."""
    if not isinstance(value, str) or ":" not in value:
        raise _where_error(
            where, f"{name} must be a 'node:port' string, got {value!r}"
        )
    node, _, port_text = value.rpartition(":")
    if not node:
        raise _where_error(where, f"{name} names no node in {value!r}")
    try:
        port = int(port_text)
    except ValueError:
        raise _where_error(
            where, f"{name} has a non-integer port in {value!r}"
        ) from None
    if port < 0:
        raise _where_error(where, f"{name} port must be non-negative, got {port}")
    return node, port


@dataclass(frozen=True)
class NodeSpec:
    """One vertex of the declarative topology."""

    name: str
    kind: str
    forwarding: Dict[int, int] = field(default_factory=dict)
    default_egress_port: Optional[int] = None
    decoder: Optional[str] = None  # encoder nodes: the paired decoder node

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "NodeSpec":
        if not isinstance(data, Mapping):
            raise TopologyError(f"node entries must be mappings, got {data!r}")
        name = _require_string("node", "name", data.get("name"))
        where = f"node {name!r}"
        _reject_unknown_keys(
            where, data, ("name", "kind", "forwarding", "default_egress_port", "decoder")
        )
        kind = _require_choice(where, "kind", data.get("kind"), NODE_KINDS)
        forwarding: Dict[int, int] = {}
        for ingress, egress in (data.get("forwarding") or {}).items():
            try:
                forwarding[int(ingress)] = int(egress)
            except (TypeError, ValueError):
                raise _where_error(
                    where, f"forwarding entries must be integer ports, got "
                    f"{ingress!r}: {egress!r}"
                ) from None
        default_egress = data.get("default_egress_port")
        if default_egress is not None:
            if (
                isinstance(default_egress, bool)
                or not isinstance(default_egress, int)
                or default_egress < 0
            ):
                raise _where_error(
                    where,
                    f"default_egress_port must be a non-negative integer, "
                    f"got {default_egress!r}",
                )
        decoder = data.get("decoder")
        if decoder is not None:
            decoder = _require_string(where, "decoder", decoder)
            if kind != "encoder":
                raise _where_error(where, "only encoder nodes take a 'decoder' pairing")
        return cls(
            name=name,
            kind=kind,
            forwarding=forwarding,
            default_egress_port=default_egress,
            decoder=decoder,
        )

    def as_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"name": self.name, "kind": self.kind}
        if self.forwarding:
            data["forwarding"] = {str(k): v for k, v in self.forwarding.items()}
        if self.default_egress_port is not None:
            data["default_egress_port"] = self.default_egress_port
        if self.decoder is not None:
            data["decoder"] = self.decoder
        return data


@dataclass(frozen=True)
class LinkSpec:
    """One directed connection of the declarative topology."""

    name: str
    source: Tuple[str, int]
    target: Tuple[str, int]
    bandwidth_gbps: float = 100.0
    propagation_us: float = 0.5
    queue_capacity: int = 0  # 0 = unbounded
    loss: float = 0.0
    reorder: float = 0.0
    hops: int = 1
    direct: bool = False
    measured: bool = False
    seed: Optional[int] = None  # None → derived from the spec identity

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "LinkSpec":
        if not isinstance(data, Mapping):
            raise TopologyError(f"link entries must be mappings, got {data!r}")
        name = _require_string("link", "name", data.get("name"))
        where = f"link {name!r}"
        _reject_unknown_keys(
            where,
            data,
            (
                "name", "source", "target", "bandwidth_gbps", "propagation_us",
                "queue_capacity", "loss", "reorder", "hops", "direct", "measured",
                "seed",
            ),
        )
        seed = data.get("seed")
        if seed is not None and (not isinstance(seed, int) or isinstance(seed, bool)):
            raise _where_error(where, f"seed must be an integer, got {seed!r}")
        direct = bool(data.get("direct", False))
        hops = _require_positive_int(where, "hops", data.get("hops", 1))
        if direct and hops != 1:
            raise _where_error(where, "a direct link cannot have multiple hops")
        queue_capacity = data.get("queue_capacity", 0)
        if not isinstance(queue_capacity, int) or isinstance(queue_capacity, bool) or queue_capacity < 0:
            raise _where_error(
                where,
                f"queue_capacity must be a non-negative integer (0 = unbounded), "
                f"got {queue_capacity!r}",
            )
        return cls(
            name=name,
            source=_parse_port_ref(where, "source", data.get("source")),
            target=_parse_port_ref(where, "target", data.get("target")),
            bandwidth_gbps=_require_positive_number(
                where, "bandwidth_gbps", data.get("bandwidth_gbps", 100.0)
            ),
            propagation_us=_require_non_negative_number(
                where, "propagation_us", data.get("propagation_us", 0.5)
            ),
            queue_capacity=queue_capacity,
            loss=_require_probability(where, "loss", data.get("loss", 0.0)),
            reorder=_require_probability(where, "reorder", data.get("reorder", 0.0)),
            hops=hops,
            direct=direct,
            measured=bool(data.get("measured", False)),
            seed=seed,
        )

    def hop_names(self) -> List[str]:
        """Names of the serial hops this link expands into.

        A single-hop link keeps its own name; a multi-hop link numbers its
        hops ``<name>0 .. <name>N-1`` (``link0``, ``link1``, … on the
        linear chain).
        """
        if self.hops == 1:
            return [self.name]
        return [f"{self.name}{index}" for index in range(self.hops)]

    def as_dict(self) -> Dict[str, Any]:
        data = {
            "name": self.name,
            "source": f"{self.source[0]}:{self.source[1]}",
            "target": f"{self.target[0]}:{self.target[1]}",
            "bandwidth_gbps": self.bandwidth_gbps,
            "propagation_us": self.propagation_us,
            "queue_capacity": self.queue_capacity,
            "loss": self.loss,
            "reorder": self.reorder,
            "hops": self.hops,
            "direct": self.direct,
            "measured": self.measured,
        }
        if self.seed is not None:
            data["seed"] = self.seed
        return data


@dataclass(frozen=True)
class FlowSpec:
    """One concurrent traffic stream of the declarative topology."""

    name: str
    source: str
    sink: str
    workload: str = "synthetic"
    chunks: int = 1000
    bases: int = 16
    names: int = 300
    trace: Optional[str] = None
    pacing: str = "rate"
    packet_rate: float = 1e6
    speedup: float = 1.0
    start: float = 0.0
    seed: Optional[int] = None

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FlowSpec":
        if not isinstance(data, Mapping):
            raise TopologyError(f"flow entries must be mappings, got {data!r}")
        name = _require_string("flow", "name", data.get("name"))
        where = f"flow {name!r}"
        _reject_unknown_keys(
            where,
            data,
            (
                "name", "source", "sink", "workload", "chunks", "bases", "names",
                "trace", "pacing", "packet_rate", "speedup", "start", "seed",
            ),
        )
        seed = data.get("seed")
        if seed is not None and (not isinstance(seed, int) or isinstance(seed, bool)):
            raise _where_error(where, f"seed must be an integer, got {seed!r}")
        trace = data.get("trace")
        if trace is not None:
            trace = _require_string(where, "trace", trace)
        return cls(
            name=name,
            source=_require_string(where, "source", data.get("source")),
            sink=_require_string(where, "sink", data.get("sink")),
            workload=_require_choice(
                where, "workload", data.get("workload", "synthetic"), WORKLOADS
            ),
            chunks=_require_positive_int(where, "chunks", data.get("chunks", 1000)),
            bases=_require_positive_int(where, "bases", data.get("bases", 16)),
            names=_require_positive_int(where, "names", data.get("names", 300)),
            trace=trace,
            pacing=_require_choice(where, "pacing", data.get("pacing", "rate"), PACINGS),
            packet_rate=_require_positive_number(
                where, "packet_rate", data.get("packet_rate", 1e6)
            ),
            speedup=_require_positive_number(
                where, "speedup", data.get("speedup", 1.0)
            ),
            start=_require_non_negative_number(where, "start", data.get("start", 0.0)),
            seed=seed,
        )

    def as_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "name": self.name,
            "source": self.source,
            "sink": self.sink,
            "workload": self.workload,
            "chunks": self.chunks,
            "bases": self.bases,
            "names": self.names,
            "pacing": self.pacing,
            "packet_rate": self.packet_rate,
            "speedup": self.speedup,
            "start": self.start,
        }
        if self.trace is not None:
            data["trace"] = self.trace
        if self.seed is not None:
            data["seed"] = self.seed
        return data


class TopologySpec:
    """A validated topology document: nodes + links + flows + scenario.

    Build one from plain data with :meth:`from_dict` / :meth:`from_file`,
    or use the preset constructors (:func:`linear_topology`,
    :func:`fan_in_topology`, :func:`paper_testbed_topology`).
    """

    def __init__(
        self,
        name: str,
        nodes: Sequence[NodeSpec],
        links: Sequence[LinkSpec],
        flows: Sequence[FlowSpec],
        scenario: str = "dynamic",
        order: int = 8,
        identifier_bits: int = 15,
        seed: int = 0,
        entry_ttl: Optional[float] = None,
        control: str = "direct",
        control_bandwidth_gbps: float = 10.0,
        control_propagation_us: float = 5.0,
        control_rate: Optional[float] = None,
        control_queue: Optional[int] = None,
        faults: Optional[FaultPlan] = None,
    ):
        where = "topology"
        self.name = _require_string(where, "name", name)
        where = f"topology {self.name!r}"
        self.scenario = _require_choice(where, "scenario", scenario, SCENARIOS)
        self.order = _require_positive_int(where, "order", order)
        self.identifier_bits = _require_positive_int(
            where, "identifier_bits", identifier_bits
        )
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise _where_error(where, f"seed must be an integer, got {seed!r}")
        self.seed = seed
        self.entry_ttl = (
            None
            if entry_ttl is None
            else _require_positive_number(where, "entry_ttl", entry_ttl)
        )
        self.control = _require_choice(where, "control", control, CONTROL_MODES)
        self.control_bandwidth_gbps = _require_positive_number(
            where, "control_bandwidth_gbps", control_bandwidth_gbps
        )
        self.control_propagation_us = _require_non_negative_number(
            where, "control_propagation_us", control_propagation_us
        )
        self.control_rate = (
            None
            if control_rate is None
            else _require_positive_number(where, "control_rate", control_rate)
        )
        self.control_queue = (
            None
            if control_queue is None
            else _require_positive_int(where, "control_queue", control_queue)
        )
        if faults is not None and not isinstance(faults, FaultPlan):
            faults = FaultPlan.from_dict(faults)
        self.faults = faults
        self.nodes: List[NodeSpec] = list(nodes)
        self.links: List[LinkSpec] = list(links)
        self.flows: List[FlowSpec] = list(flows)
        self._validate()
        validate_spec_faults(self)

    # -- validation ------------------------------------------------------------

    def _validate(self) -> None:
        if not self.nodes:
            raise _where_error(f"topology {self.name!r}", "has no nodes")
        by_name: Dict[str, NodeSpec] = {}
        for node in self.nodes:
            if node.name in by_name:
                raise _where_error(
                    f"node {node.name!r}", "is declared more than once"
                )
            by_name[node.name] = node
        for node in self.nodes:
            if node.decoder is not None and node.decoder not in by_name:
                raise _where_error(
                    f"node {node.name!r}",
                    f"pairs with unknown decoder node {node.decoder!r}",
                )
            if node.decoder is not None and by_name[node.decoder].kind != "decoder":
                raise _where_error(
                    f"node {node.name!r}",
                    f"pairs with {node.decoder!r}, which is not a decoder node",
                )

        seen_links: Dict[str, LinkSpec] = {}
        seen_hop_names: Dict[str, str] = {}
        seen_sources: Dict[Tuple[str, int], str] = {}
        for link in self.links:
            where = f"link {link.name!r}"
            if link.name in seen_links:
                raise _where_error(where, "is declared more than once")
            seen_links[link.name] = link
            for label, (node, _port) in (("source", link.source), ("target", link.target)):
                if node not in by_name:
                    raise _where_error(
                        where, f"references unknown {label} node {node!r}"
                    )
            # Expanded hop names are metric namespaces; a collision would
            # silently sum two different links' counters under one key.
            for hop_name in link.hop_names():
                if hop_name in seen_hop_names:
                    raise _where_error(
                        where,
                        f"hop name {hop_name!r} collides with link "
                        f"{seen_hop_names[hop_name]!r}",
                    )
                seen_hop_names[hop_name] = link.name
            # One egress port feeds one edge; a second edge from the same
            # port would silently overwrite the first at wiring time.
            if link.source in seen_sources:
                raise _where_error(
                    where,
                    f"source {link.source[0]}:{link.source[1]} is already "
                    f"used by link {seen_sources[link.source]!r}",
                )
            seen_sources[link.source] = link.name

        seen_flows: Dict[str, FlowSpec] = {}
        for flow in self.flows:
            where = f"flow {flow.name!r}"
            if flow.name in seen_flows:
                raise _where_error(where, "is declared more than once")
            seen_flows[flow.name] = flow
            for label, node_name in (("source", flow.source), ("sink", flow.sink)):
                if node_name not in by_name:
                    raise _where_error(
                        where, f"references unknown {label} node {node_name!r}"
                    )
                if by_name[node_name].kind != "host":
                    raise _where_error(
                        where,
                        f"{label} node {node_name!r} is a "
                        f"{by_name[node_name].kind} node, not a host",
                    )

    # -- accessors ---------------------------------------------------------------

    def node(self, name: str) -> NodeSpec:
        """Look up a node spec by name."""
        for node in self.nodes:
            if node.name == name:
                return node
        known = ", ".join(repr(node.name) for node in self.nodes)
        raise TopologyError(f"unknown node {name!r}; known nodes: {known}")

    @property
    def measured_link(self) -> Optional[LinkSpec]:
        """The (first) link the wire accounting reads.

        An explicit ``measured: true`` link wins.  Without one, the first
        *emulated* (non-direct) link is used — direct links are typically
        the host-facing ingress/egress attachments, and tapping one of
        those would measure raw traffic before compression.  Falls back to
        the first link only when every link is direct.
        """
        for link in self.links:
            if link.measured:
                return link
        for link in self.links:
            if not link.direct:
                return link
        return self.links[0] if self.links else None

    @property
    def measured_links(self) -> List[LinkSpec]:
        """Every link the wire accounting reads, in declaration order.

        A spec may mark several links ``measured: true`` (one wire per
        rack in the multi-encoder presets); their payload bytes are summed
        into the report's ``wire_payload_bytes`` and the learning-time
        gap uses the earliest type-2/type-3 frame across all of them.
        Without any explicit mark this is the :attr:`measured_link`
        fallback as a one-element list (or empty).
        """
        explicit = [link for link in self.links if link.measured]
        if explicit:
            return explicit
        fallback = self.measured_link
        return [] if fallback is None else [fallback]

    # -- connectivity ------------------------------------------------------------

    def node_components(self) -> Dict[str, int]:
        """Map every node name to its connected-component id.

        Components are computed over the undirected union of all links
        *plus* each encoder's control coupling to its paired decoder
        (explicit ``decoder:`` pairing, or the implied pairing when the
        spec has exactly one decoder) — two nodes share a component id
        exactly when traffic or control state can flow between them.
        Component ids are dense and ordered by first appearance in the
        node list, so they are deterministic for a given spec.
        """
        parent = {node.name: node.name for node in self.nodes}

        def find(name: str) -> str:
            while parent[name] != name:
                parent[name] = parent[parent[name]]
                name = parent[name]
            return name

        def union(a: str, b: str) -> None:
            root_a, root_b = find(a), find(b)
            if root_a != root_b:
                parent[root_a] = root_b

        for link in self.links:
            union(link.source[0], link.target[0])
        decoders = [node for node in self.nodes if node.kind == "decoder"]
        for node in self.nodes:
            if node.kind != "encoder":
                continue
            decoder = node.decoder
            if decoder is None and len(decoders) == 1:
                decoder = decoders[0].name
            if decoder is not None:
                union(node.name, decoder)
        ids: Dict[str, int] = {}
        component_of: Dict[str, int] = {}
        for node in self.nodes:
            root = find(node.name)
            if root not in ids:
                ids[root] = len(ids)
            component_of[node.name] = ids[root]
        return component_of

    def components(self) -> List[List[str]]:
        """Node names grouped by connected component, in declaration order."""
        component_of = self.node_components()
        groups: Dict[int, List[str]] = {}
        for node in self.nodes:
            groups.setdefault(component_of[node.name], []).append(node.name)
        return [groups[index] for index in range(len(groups))]

    def flow_seed(self, flow: FlowSpec) -> int:
        """The flow's effective seed (explicit, or derived from identity)."""
        if flow.seed is not None:
            return flow.seed
        return derive_flow_seed(self.name, self.seed, flow.name)

    # -- serialisation -----------------------------------------------------------

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TopologySpec":
        """Build and validate a spec from a plain dictionary."""
        if not isinstance(data, Mapping):
            raise TopologyError(f"topology spec must be a mapping, got {data!r}")
        _reject_unknown_keys(
            "topology spec",
            data,
            (
                "name", "scenario", "order", "identifier_bits", "seed",
                "entry_ttl", "control", "control_bandwidth_gbps",
                "control_propagation_us", "control_rate", "control_queue",
                "faults", "nodes", "links", "flows",
            ),
        )
        return cls(
            name=data.get("name", "topology"),
            nodes=[NodeSpec.from_dict(entry) for entry in data.get("nodes", [])],
            links=[LinkSpec.from_dict(entry) for entry in data.get("links", [])],
            flows=[FlowSpec.from_dict(entry) for entry in data.get("flows", [])],
            scenario=data.get("scenario", "dynamic"),
            order=data.get("order", 8),
            identifier_bits=data.get("identifier_bits", 15),
            seed=data.get("seed", 0),
            entry_ttl=data.get("entry_ttl"),
            control=data.get("control", "direct"),
            control_bandwidth_gbps=data.get("control_bandwidth_gbps", 10.0),
            control_propagation_us=data.get("control_propagation_us", 5.0),
            control_rate=data.get("control_rate"),
            control_queue=data.get("control_queue"),
            faults=(
                FaultPlan.from_dict(data["faults"])
                if data.get("faults") is not None
                else None
            ),
        )

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "TopologySpec":
        """Load a spec from a JSON file."""
        target = Path(path)
        if not target.exists():
            raise TopologyError(f"topology spec file {target} does not exist")
        try:
            document = json.loads(target.read_text(encoding="utf-8"))
        except json.JSONDecodeError as error:
            raise TopologyError(f"invalid JSON in {target}: {error}") from None
        return cls.from_dict(document)

    def as_dict(self) -> Dict[str, Any]:
        """The validated spec as plain data (round-trips through JSON)."""
        data: Dict[str, Any] = {
            "name": self.name,
            "scenario": self.scenario,
            "order": self.order,
            "identifier_bits": self.identifier_bits,
            "seed": self.seed,
            "control": self.control,
            "nodes": [node.as_dict() for node in self.nodes],
            "links": [link.as_dict() for link in self.links],
            "flows": [flow.as_dict() for flow in self.flows],
        }
        if self.entry_ttl is not None:
            data["entry_ttl"] = self.entry_ttl
        if self.control == "in-network":
            data["control_bandwidth_gbps"] = self.control_bandwidth_gbps
            data["control_propagation_us"] = self.control_propagation_us
        if self.control_rate is not None:
            data["control_rate"] = self.control_rate
        if self.control_queue is not None:
            data["control_queue"] = self.control_queue
        if self.faults is not None and self.faults.active:
            data["faults"] = self.faults.as_dict()
        return data


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


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
    _require_choice(where, "shape", shape, LINEAR_SHAPES)
    _require_positive_int(where, "hops", hops)
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
    if senders < 1:
        raise TopologyError(f"fan-in needs at least one sender, got {senders}")
    nodes = [NodeSpec(name=f"sender{index}", kind="host") for index in range(senders)]
    wire_port = senders  # encoder egress sits after the K ingress ports
    nodes.extend(
        [
            NodeSpec(
                name="encoder",
                kind="encoder",
                forwarding={index: wire_port for index in range(senders)},
                default_egress_port=wire_port,
                decoder="decoder",
            ),
            NodeSpec(name="decoder", kind="decoder", forwarding={0: 1},
                     default_egress_port=1),
            NodeSpec(name="sink", kind="host"),
        ]
    )
    links = [
        LinkSpec(
            name=f"ingress{index}",
            source=(f"sender{index}", 0),
            target=("encoder", index),
            direct=True,
        )
        for index in range(senders)
    ]
    links.append(
        LinkSpec(
            name="shared",
            source=("encoder", wire_port),
            target=("decoder", 0),
            bandwidth_gbps=bandwidth_gbps,
            propagation_us=propagation_us,
            queue_capacity=queue_capacity,
            loss=loss,
            reorder=reorder,
            hops=hops,
            measured=True,
        )
    )
    links.append(
        LinkSpec(name="egress", source=("decoder", 1), target=("sink", 0),
                 direct=True)
    )
    flows = [
        FlowSpec(
            name=f"flow{index}",
            source=f"sender{index}",
            sink="sink",
            workload=workload,
            chunks=chunks,
            bases=bases,
            names=names,
            trace=trace,
            pacing=pacing,
            packet_rate=packet_rate,
            speedup=speedup,
            # Stagger starts by one inter-packet gap so simultaneous-arrival
            # ties never depend on flow declaration order.
            start=index / (packet_rate * max(1, senders)),
        )
        for index in range(senders)
    ]
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
    if racks < 1:
        raise TopologyError(f"rack-fan-in needs at least one rack, got {racks}")
    if senders < 1:
        raise TopologyError(
            f"rack-fan-in needs at least one sender per rack, got {senders}"
        )
    nodes: List[NodeSpec] = []
    links: List[LinkSpec] = []
    flows: List[FlowSpec] = []
    wire_port = senders  # each encoder's egress sits after its K ingress ports
    for rack in range(racks):
        nodes.extend(
            NodeSpec(name=f"sender{rack}_{index}", kind="host")
            for index in range(senders)
        )
        nodes.extend(
            [
                NodeSpec(
                    name=f"encoder{rack}",
                    kind="encoder",
                    forwarding={index: wire_port for index in range(senders)},
                    default_egress_port=wire_port,
                    decoder=f"decoder{rack}",
                ),
                NodeSpec(name=f"decoder{rack}", kind="decoder",
                         forwarding={0: 1}, default_egress_port=1),
                NodeSpec(name=f"sink{rack}", kind="host"),
            ]
        )
        links.extend(
            LinkSpec(
                name=f"ingress{rack}_{index}",
                source=(f"sender{rack}_{index}", 0),
                target=(f"encoder{rack}", index),
                direct=True,
            )
            for index in range(senders)
        )
        links.append(
            LinkSpec(
                name=f"wire{rack}",
                source=(f"encoder{rack}", wire_port),
                target=(f"decoder{rack}", 0),
                bandwidth_gbps=bandwidth_gbps,
                propagation_us=propagation_us,
                queue_capacity=queue_capacity,
                loss=loss,
                reorder=reorder,
                hops=hops,
                measured=True,
            )
        )
        links.append(
            LinkSpec(name=f"egress{rack}", source=(f"decoder{rack}", 1),
                     target=(f"sink{rack}", 0), direct=True)
        )
        flows.extend(
            FlowSpec(
                name=f"flow{rack}_{index}",
                source=f"sender{rack}_{index}",
                sink=f"sink{rack}",
                workload=workload,
                chunks=chunks,
                bases=bases,
                names=names,
                trace=trace,
                pacing=pacing,
                packet_rate=packet_rate,
                speedup=speedup,
                # Same per-rack stagger rule as the fan-in preset so ties
                # never depend on flow declaration order.
                start=index / (packet_rate * max(1, senders)),
            )
            for index in range(senders)
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
