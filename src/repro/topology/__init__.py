"""Topology graphs: arbitrary node/link networks with concurrent flows.

This package generalises the point-to-point replay chain into a graph
engine:

* :mod:`repro.topology.graph` — :class:`Node`/:class:`TopologyGraph`
  abstractions and the shared multi-hop link-chain builder;
* :mod:`repro.topology.nodes` — hosts, ZipLine encoder/decoder adapters,
  plain forwarders;
* :mod:`repro.topology.spec` — the declarative :class:`TopologySpec`
  (JSON/dict: nodes, links, flows), its validation and the shared CRC-32
  seed derivation; :mod:`repro.topology.presets` — the named shapes
  (``linear``, ``fan-in``, ``rack-fan-in``, ``paper-testbed``, …);
* :mod:`repro.topology.control` — in-network control messages (table
  installs that cross an emulated link instead of a method call), with
  optional token-bucket pacing and a bounded install queue;
* :mod:`repro.topology.faults` — the declarative :class:`FaultPlan`
  (control-link loss/reorder, scheduled node restarts, eviction storms)
  a spec can carry for deterministic fault injection;
* :mod:`repro.topology.engine` — :class:`TopologyEngine`, which builds
  one spec and runs its N concurrent flows;
  :mod:`repro.topology.flows` — the per-flow runtime (the injector,
  arrival attribution, the one FIFO content matcher);
  :mod:`repro.topology.report` — :class:`TopologyReport` with per-flow
  and per-link attribution, and the one fold that builds it;
* :mod:`repro.topology.sharding` — :func:`run_topology`, which splits a
  spec into independent per-encoder shards, simulates them across a
  process pool, and merges one byte-identical report at any worker count.

Quick start::

    from repro.topology import run_topology, rack_fan_in_topology

    spec = rack_fan_in_topology(racks=4, senders=8, chunks=2000)
    report = run_topology(spec, workers=4, metrics_mode="streaming")
    print(report.render())
"""

from repro.topology.graph import (
    LinkSink,
    Node,
    TopologyEdge,
    TopologyGraph,
    build_link_chain,
)
from repro.topology.nodes import (
    ForwardNode,
    HostNode,
    ZipLineDecoderNode,
    ZipLineEncoderNode,
)
from repro.topology.faults import (
    EvictionStorm,
    FaultPlan,
    NodeRestart,
    load_fault_plan,
    validate_spec_faults,
)
from repro.topology.spec import (
    FlowSpec,
    LinkSpec,
    NodeSpec,
    TopologySpec,
    derive_flow_seed,
    derive_seed,
)
from repro.topology.presets import (
    TOPOLOGY_PRESETS,
    fan_in_stress_topology,
    fan_in_topology,
    fault_storm_topology,
    linear_topology,
    paper_testbed_topology,
    preset_topology,
    rack_fan_in_topology,
)
from repro.topology.control import (
    ETHERTYPE_ZIPLINE_CONTROL,
    ControlChannel,
    apply_switch_command,
)
from repro.topology.engine import (
    METRICS_MODES,
    FlowResult,
    TopologyEngine,
    TopologyReport,
)
from repro.topology.sharding import (
    PartitionError,
    TopologyShard,
    partition_spec,
    run_topology,
)

__all__ = [
    "LinkSink",
    "Node",
    "TopologyEdge",
    "TopologyGraph",
    "build_link_chain",
    "ForwardNode",
    "HostNode",
    "ZipLineDecoderNode",
    "ZipLineEncoderNode",
    "TOPOLOGY_PRESETS",
    "FlowSpec",
    "LinkSpec",
    "NodeSpec",
    "TopologySpec",
    "derive_flow_seed",
    "derive_seed",
    "EvictionStorm",
    "FaultPlan",
    "NodeRestart",
    "load_fault_plan",
    "validate_spec_faults",
    "fan_in_stress_topology",
    "fan_in_topology",
    "fault_storm_topology",
    "linear_topology",
    "paper_testbed_topology",
    "preset_topology",
    "rack_fan_in_topology",
    "ETHERTYPE_ZIPLINE_CONTROL",
    "ControlChannel",
    "apply_switch_command",
    "METRICS_MODES",
    "FlowResult",
    "TopologyEngine",
    "TopologyReport",
    "PartitionError",
    "TopologyShard",
    "partition_spec",
    "run_topology",
]
