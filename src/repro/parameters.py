"""The run parameters' defaults and the words their choices take.

:mod:`repro.topology.spec` owns every run parameter: the
:class:`~repro.topology.spec.FlowSpec` / :class:`~repro.topology.spec.LinkSpec`
field or :class:`~repro.topology.spec.TopologySpec` argument that carries
it, and its check (:data:`~repro.topology.spec.RUN_PARAMETERS`).  Those
fields and arguments take their defaults from :data:`DEFAULTS`, declared
here in a module that imports nothing, so that a reader which only quotes
them (the ``repro`` argument parser) loads no simulator.
"""

from __future__ import annotations

from typing import Any, Dict

__all__ = ["CONTROL_MODES", "DEFAULTS", "LINEAR_SHAPES", "PACINGS", "SCENARIOS"]

PACINGS = ("recorded", "rate", "back-to-back")
SCENARIOS = ("no_table", "static", "dynamic")
CONTROL_MODES = ("direct", "in-network")
#: What :func:`~repro.topology.presets.linear_topology` can put between the
#: sender and the sink.
LINEAR_SHAPES = ("encoder-link-decoder", "encoder-only", "decoder-only")

#: Each run parameter's one default: a flow's, the measured wire's, then a
#: spec's settings (the order of ``FLOW_PARAMETERS``, ``WIRE_PARAMETERS``
#: and ``SPEC_SETTINGS`` in :mod:`repro.topology.spec`).
DEFAULTS: Dict[str, Any] = {
    "workload": "synthetic",
    "chunks": 1000,
    "bases": 16,
    "names": 300,
    "trace": None,
    "pacing": "rate",
    "packet_rate": 1e6,
    "speedup": 1.0,
    "bandwidth_gbps": 100.0,
    "propagation_us": 0.5,
    "queue_capacity": 0,  # 0 = unbounded
    "loss": 0.0,
    "reorder": 0.0,
    "hops": 1,
    "scenario": "dynamic",
    "order": 8,
    "identifier_bits": 15,
    "seed": 0,
    "entry_ttl": None,
    "control": "direct",
    "control_bandwidth_gbps": 10.0,
    "control_propagation_us": 5.0,
    "control_rate": None,
    "control_queue": None,
}
