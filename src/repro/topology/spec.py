"""Declarative topology descriptions: nodes, links, flows.

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
'uplink': unknown target node 'decdoer'", not a bare KeyError.  Every field
goes through the repository's one :class:`~repro.validation.Validator`, so
an untrusted document can only ever raise :class:`TopologyError`; hop and
port counts are capped (:data:`MAX_HOPS`, :data:`MAX_PORT`) because the
engine allocates per hop and per port.

The named shapes (``linear``, ``fan-in``, ``rack-fan-in``, …) live in
:mod:`repro.topology.presets`.
"""

from __future__ import annotations

import inspect
import json
import zlib
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

from repro.exceptions import TopologyError
from repro.topology.faults import FaultPlan, validate_spec_faults
from repro.topology.graph import decoder_pairing
from repro.validation import Validator
from repro.workloads import WORKLOAD_FACTORIES
from repro.workloads.dns import DNS_CHUNK_ORDER

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
    "FLOW_PARAMETERS",
    "WIRE_PARAMETERS",
    "RUN_PARAMETERS",
    "RunParameter",
    "route_parameters",
]

NODE_KINDS = ("host", "encoder", "decoder", "forward")
WORKLOADS = tuple(WORKLOAD_FACTORIES)
PACINGS = ("recorded", "rate", "back-to-back")
SCENARIOS = ("no_table", "static", "dynamic")
CONTROL_MODES = ("direct", "in-network")
#: What :func:`linear_topology` can put between the sender and the sink.
LINEAR_SHAPES = ("encoder-link-decoder", "encoder-only", "decoder-only")
#: The :class:`FlowSpec` fields a preset builder puts on every flow, and the
#: :class:`LinkSpec` fields it puts on the measured wire (every rack's).
FLOW_PARAMETERS = (
    "workload", "chunks", "bases", "names", "trace", "pacing", "packet_rate", "speedup",
)
WIRE_PARAMETERS = (
    "bandwidth_gbps", "propagation_us", "queue_capacity", "loss", "reorder", "hops",
)

#: Load-time ceilings.  The engine builds one emulated link per hop and
#: sizes every switch for its highest referenced port, so both are capped
#: where the spec is validated rather than found by running out of memory.
#: ``fan-in-stress`` at thousands of senders sits far below the port cap.
MAX_HOPS = 1024
MAX_PORT = 65535

_check = Validator(TopologyError)


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


def _optional(check: Callable, validator: Validator, where: str, name: str, value: Any):
    """``check`` applied to a field that may be absent (``None``)."""
    return None if value is None else check(validator, where, name, value)


def _decimal(value: Any) -> Any:
    """A short plain-ASCII-digit string as the integer it spells.

    Anything else comes back unchanged for the integer check that follows
    to reject by name: ``int()`` alone would also take ``"1_0"``, ``" 1"``
    or a million-digit string.  The :data:`MAX_PORT` ceiling itself is
    checked with the other cross-field rules in ``TopologySpec._validate``.
    """
    if isinstance(value, str) and value.isascii() and value.isdigit() and len(value) <= 9:
        return int(value)
    return value


def _parse_port_ref(where: str, name: str, value: Any) -> Tuple[str, int]:
    """Parse a ``"node:port"`` endpoint reference."""
    node, _, port_text = value.rpartition(":") if isinstance(value, str) else ("",) * 3
    if not node:
        raise _check.rejected(where, name, "a 'node:port' string", value)
    return node, _check.non_negative_int(where, f"{name} port", _decimal(port_text))


def _checked(
    cls: type, checks: Mapping[str, Callable], where: str, data: Mapping[str, Any]
) -> Dict[str, Any]:
    """Every field of ``checks`` validated; one the document leaves out
    takes the dataclass default (``None`` when the field has none)."""
    return {
        key: check(_check, where, key, data.get(key, getattr(cls, key, None)))
        for key, check in checks.items()
    }


def _entry(kind: str, cls: type, data: Any) -> Tuple[str, Mapping[str, Any]]:
    """The common head of every entry parser: the document form of ``cls``,
    with a name.  Returns the ``where`` label built from it and the data."""
    name = _check.mapping(kind, "entry", data).get("name")
    where = f"{kind} {_check.string(kind, 'name', name)!r}"
    return where, _check.record(where, data, cls)


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
        where, data = _entry("node", cls, data)
        values = _checked(cls, _NODE_CHECKS, where, data)
        if values["decoder"] is not None and values["kind"] != "encoder":
            raise _check.failure(where, "only encoder nodes take a 'decoder' pairing")
        forwarding: Dict[int, int] = {}
        entries = data.get("forwarding")
        if entries is not None:
            entries = _check.mapping(where, "forwarding", entries)
            for key, egress in entries.items():
                # JSON object keys are strings; the egress must be a real
                # integer (1.9 is not port 1).
                ingress = _check.non_negative_int(
                    where, "forwarding ingress port", _decimal(key)
                )
                forwarding[ingress] = _check.non_negative_int(
                    where, f"forwarding[{ingress}] egress port", egress
                )
        return cls(name=data["name"], forwarding=forwarding, **values)

    def as_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"name": self.name, "kind": self.kind}
        if self.forwarding:
            data["forwarding"] = {str(k): v for k, v in self.forwarding.items()}
        if self.default_egress_port is not None:
            data["default_egress_port"] = self.default_egress_port
        if self.decoder is not None:
            data["decoder"] = self.decoder
        return data


#: What each field a node document may set must pass (see ``_checked``).
#: Check tables hold ``Validator`` methods unbound, ``check(validator, where,
#: name, value)``: the experiment table runs them under its own error class.
_NODE_CHECKS = {
    "kind": partial(Validator.choice, options=NODE_KINDS),
    "default_egress_port": partial(_optional, Validator.non_negative_int),
    "decoder": partial(_optional, Validator.string),
}


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
        where, data = _entry("link", cls, data)
        values = _checked(cls, _LINK_CHECKS, where, data)
        if values["direct"] and values["hops"] != 1:
            raise _check.failure(where, "a direct link cannot have multiple hops")
        return cls(
            name=data["name"],
            source=_parse_port_ref(where, "source", data.get("source")),
            target=_parse_port_ref(where, "target", data.get("target")),
            **values,
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
            **{key: getattr(self, key) for key in WIRE_PARAMETERS},
            "direct": self.direct,
            "measured": self.measured,
        }
        if self.seed is not None:
            data["seed"] = self.seed
        return data


_LINK_CHECKS = {
    "bandwidth_gbps": Validator.positive_number,
    "propagation_us": Validator.non_negative_number,
    "queue_capacity": Validator.non_negative_int,  # 0 = unbounded
    "loss": Validator.probability,
    "reorder": Validator.probability,
    "hops": partial(Validator.positive_int, maximum=MAX_HOPS),
    "direct": Validator.boolean,
    "measured": Validator.boolean,
    "seed": partial(_optional, Validator.integer),
}


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
        where, data = _entry("flow", cls, data)
        return cls(name=data["name"], **_checked(cls, _FLOW_CHECKS, where, data))

    def as_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "name": self.name,
            "source": self.source,
            "sink": self.sink,
            **{key: getattr(self, key) for key in FLOW_PARAMETERS},
            "start": self.start,
        }
        if self.trace is None:
            del data["trace"]
        if self.seed is not None:
            data["seed"] = self.seed
        return data


_FLOW_CHECKS = {
    "source": Validator.string,
    "sink": Validator.string,
    "workload": partial(Validator.choice, options=WORKLOADS),
    "chunks": Validator.positive_int,
    "bases": Validator.positive_int,
    "names": Validator.positive_int,
    "trace": partial(_optional, Validator.string),
    "pacing": partial(Validator.choice, options=PACINGS),
    "packet_rate": Validator.positive_number,
    "speedup": Validator.positive_number,
    "start": Validator.non_negative_number,
    "seed": partial(_optional, Validator.integer),
}


#: What each scalar setting of a spec must pass, in the order checked.
_SPEC_CHECKS = {
    "name": Validator.string,
    "scenario": partial(Validator.choice, options=SCENARIOS),
    "order": Validator.positive_int,
    "identifier_bits": Validator.positive_int,
    "seed": Validator.integer,
    "entry_ttl": partial(_optional, Validator.positive_number),
    "control": partial(Validator.choice, options=CONTROL_MODES),
    "control_bandwidth_gbps": Validator.positive_number,
    "control_propagation_us": Validator.non_negative_number,
    "control_rate": partial(_optional, Validator.positive_number),
    "control_queue": partial(_optional, Validator.positive_int),
}
#: A spec's scalar settings: constructor arguments (which own the
#: defaults), attributes and JSON keys of the same name.
SPEC_SETTINGS = tuple(_SPEC_CHECKS)
_SPEC_KEYS = SPEC_SETTINGS + ("faults", "nodes", "links", "flows")


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
        given = locals()  # the settings by name, for the one table of checks
        self.name = _SPEC_CHECKS["name"](_check, "topology", "name", name)
        where = f"topology {self.name!r}"
        for key in SPEC_SETTINGS[1:]:
            setattr(self, key, _SPEC_CHECKS[key](_check, where, key, given[key]))
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
            raise _check.failure(f"topology {self.name!r}", "has no nodes")
        by_name: Dict[str, NodeSpec] = {}
        for node in self.nodes:
            where = f"node {node.name!r}"
            if node.name in by_name:
                raise _check.failure(where, "is declared more than once")
            by_name[node.name] = node
            for port in (*node.forwarding, *node.forwarding.values()):
                _check.non_negative_int(where, "forwarding port", port, MAX_PORT)
            if node.default_egress_port is not None:
                _check.non_negative_int(
                    where, "default_egress_port", node.default_egress_port, MAX_PORT
                )
        for node in self.nodes:
            if node.decoder is not None and node.decoder not in by_name:
                raise _check.failure(
                    f"node {node.name!r}",
                    f"pairs with unknown decoder node {node.decoder!r}",
                )
            if node.decoder is not None and by_name[node.decoder].kind != "decoder":
                raise _check.failure(
                    f"node {node.name!r}",
                    f"pairs with {node.decoder!r}, which is not a decoder node",
                )
        decoder_pairing(self)  # refuses an ambiguous pairing at every entry point

        seen_links: Dict[str, LinkSpec] = {}
        seen_hop_names: Dict[str, str] = {}
        seen_sources: Dict[Tuple[str, int], str] = {}
        for link in self.links:
            where = f"link {link.name!r}"
            if link.name in seen_links:
                raise _check.failure(where, "is declared more than once")
            seen_links[link.name] = link
            _LINK_CHECKS["hops"](_check, where, "hops", link.hops)
            for label, (node, port) in (("source", link.source), ("target", link.target)):
                if node not in by_name:
                    raise _check.failure(
                        where, f"references unknown {label} node {node!r}"
                    )
                _check.non_negative_int(where, f"{label} port", port, MAX_PORT)
            # Expanded hop names are metric namespaces; a collision would
            # silently sum two different links' counters under one key.
            for hop_name in link.hop_names():
                if hop_name in seen_hop_names:
                    raise _check.failure(
                        where,
                        f"hop name {hop_name!r} collides with link "
                        f"{seen_hop_names[hop_name]!r}",
                    )
                seen_hop_names[hop_name] = link.name
            # One egress port feeds one edge; a second edge from the same
            # port would silently overwrite the first at wiring time.
            if link.source in seen_sources:
                raise _check.failure(
                    where,
                    f"source {link.source[0]}:{link.source[1]} is already "
                    f"used by link {seen_sources[link.source]!r}",
                )
            seen_sources[link.source] = link.name

        seen_flows: Dict[str, FlowSpec] = {}
        for flow in self.flows:
            where = f"flow {flow.name!r}"
            if flow.name in seen_flows:
                raise _check.failure(where, "is declared more than once")
            seen_flows[flow.name] = flow
            if (
                flow.trace is None
                and flow.workload == "dns"
                and self.order != DNS_CHUNK_ORDER
            ):
                # Every chunk would fail the parser: a silent ratio of 0.0.
                raise _check.failure(
                    where,
                    f"workload 'dns' sends 32-byte chunks, which only order "
                    f"{DNS_CHUNK_ORDER} parses; the spec's order is {self.order}",
                )
            for label, node_name in (("source", flow.source), ("sink", flow.sink)):
                if node_name not in by_name:
                    raise _check.failure(
                        where, f"references unknown {label} node {node_name!r}"
                    )
                if by_name[node_name].kind != "host":
                    raise _check.failure(
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

    def flow_seed(self, flow: FlowSpec) -> int:
        """The flow's effective seed (explicit, or derived from identity)."""
        if flow.seed is not None:
            return flow.seed
        return derive_flow_seed(self.name, self.seed, flow.name)

    # -- serialisation -----------------------------------------------------------

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TopologySpec":
        """Build and validate a spec from a plain dictionary."""
        where = "topology spec"
        data = _check.mapping(where, "document", data)
        _check.known_keys(where, data, _SPEC_KEYS)
        options = {key: data[key] for key in _SPEC_KEYS if key in data}
        options.setdefault("name", "topology")
        for key, kind in (("nodes", NodeSpec), ("links", LinkSpec), ("flows", FlowSpec)):
            entries = _check.sequence(where, key, data.get(key, []))
            options[key] = [kind.from_dict(entry) for entry in entries]
        return cls(**options)

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "TopologySpec":
        """Load a spec from a JSON file."""
        target = Path(path)
        if not target.exists():
            raise TopologyError(f"topology spec file {target} does not exist")
        try:
            document = json.loads(target.read_text(encoding="utf-8"))
        except ValueError as error:  # JSONDecodeError, or an integer past the digit limit
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


class RunParameter(NamedTuple):
    """One run parameter as its owner declares it."""

    default: Any
    check: Callable[..., Any]  # unbound: check(validator, where, name, value)


#: What a preset builder, an experiment scenario or a ``repro replay`` flag
#: may set: the flow's and the wire's parameters, then the spec's settings
#: (all but ``name``, which each builder defaults itself).  The owner's
#: field or constructor argument is the only default, its ``_*_CHECKS``
#: entry the only check; every other module reads them from here.
RUN_PARAMETERS: Dict[str, RunParameter] = {
    name: RunParameter(declared[name].default, checks[name])
    for owner, checks, names in (
        (FlowSpec, _FLOW_CHECKS, FLOW_PARAMETERS),
        (LinkSpec, _LINK_CHECKS, WIRE_PARAMETERS),
        (TopologySpec, _SPEC_CHECKS, SPEC_SETTINGS[1:]),
    )
    for declared in [inspect.signature(owner).parameters]
    for name in names
}


def route_parameters(
    builder: Callable[..., TopologySpec],
    params: Mapping[str, Any],
    wire: bool = True,
    **fixed: Any,
) -> Tuple[Dict[str, Any], Dict[str, Any], Dict[str, Any]]:
    """A preset builder's ``**params`` split by owner: ``(flow, wire, settings)``.

    Keywords the builder declares itself never get here.  Of the rest, a
    name the schema does not own — or a wire parameter when the builder has
    no emulated wire to put it on (``wire=False``), or one the preset sets
    itself (``fixed``, routed with the rest) — is rejected, naming the
    preset (the builder's default spec name) and what it does take.  Every
    value passes its owner's check here, so a bad one is named before any
    node, link or flow is built.
    """
    groups = (FLOW_PARAMETERS, WIRE_PARAMETERS if wire else (), SPEC_SETTINGS[1:])
    routable = [name for group in groups for name in group if name not in fixed]
    own = inspect.signature(builder).parameters
    where = f"topology preset {own['name'].default!r}"
    for key in params:
        if key not in routable:
            takes = [name for name in own if own[name].kind is not own[name].VAR_KEYWORD]
            takes += [name for name in routable if name not in takes]
            raise TopologyError(
                f"{where} takes no parameter {key!r}; it takes: {', '.join(takes)}"
            )
    given = {**params, **fixed}
    return tuple(
        {
            key: RUN_PARAMETERS[key].check(_check, where, key, given[key])
            for key in group
            if key in given
        }
        for group in groups
    )
