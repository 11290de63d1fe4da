"""Hostile spec documents: only ``ReproError`` subclasses may escape.

Topology specs, fault plans and experiment specs are JSON a user wrote.
Each case below takes a valid document, breaks one field, and loads it
(or hands a preset builder a keyword it does not take):
the loader must answer with its own error class, naming the entry, in
well under two seconds — never an ``AttributeError``/``TypeError`` from
deep inside, never a silently coerced value, never an allocation sized by
the document.
"""

import copy
import json
from functools import partial
import time
import tracemalloc

import pytest

from repro.exceptions import ReproError, TopologyError
from repro.experiments import ExperimentSpec
from repro.experiments.spec import ExperimentSpecError
from repro.topology import (
    FaultPlan,
    TopologyEngine,
    TopologySpec,
    fan_in_stress_topology,
    fan_in_topology,
    fault_storm_topology,
    linear_topology,
    paper_testbed_topology,
    preset_topology,
    rack_fan_in_topology,
)
from repro.topology.spec import MAX_HOPS, MAX_PORT

NAN = float("nan")
INF = float("inf")

TOPOLOGY = {
    "name": "t",
    "control": "in-network",
    "nodes": [
        {"name": "a", "kind": "host"},
        {"name": "enc", "kind": "encoder", "forwarding": {"0": 1},
         "default_egress_port": 1, "decoder": "dec"},
        {"name": "dec", "kind": "decoder", "default_egress_port": 1},
        {"name": "b", "kind": "host"},
    ],
    "links": [
        {"name": "in", "source": "a:0", "target": "enc:0", "direct": True},
        {"name": "w", "source": "enc:1", "target": "dec:0"},
        {"name": "out", "source": "dec:1", "target": "b:0", "direct": True},
    ],
    "flows": [{"name": "f", "source": "a", "sink": "b", "chunks": 10}],
    "faults": {"restarts": [{"node": "dec", "time": 1e-3}]},
}

EXPERIMENT = {
    "name": "e",
    "base": {"chunks": 10},
    "axes": {"loss": [0.0, 0.1]},
    "overrides": [{"when": {"loss": 0.1}, "set": {"chunks": 20}}],
}

FAULTS = {
    "control_loss": 0.1,
    "restarts": [{"node": "dec", "time": 0.5}],
    "storms": [{"node": "enc", "time": 0.5, "count": 3}],
}

#: (path into the document, hostile value, text the message must contain).
TOPOLOGY_CASES = [
    # Wrong container types: used to escape as AttributeError / TypeError.
    (["nodes", 1, "forwarding"], [[0, 1]], "node 'enc': forwarding"),
    (["nodes", 1, "forwarding"], "0:1", "node 'enc': forwarding"),
    (["nodes"], 5, "nodes must be a list"),
    (["links"], None, "links must be a list"),
    (["flows"], "f", "flows must be a list"),
    (["nodes", 0], 5, "node: entry must be a mapping"),
    (["links", 0], [1], "link: entry must be a mapping"),
    (["flows", 0], None, "flow: entry must be a mapping"),
    (["faults"], {"restarts": [1]}, "faults.restarts[0]"),
    (["faults"], {"restarts": 1}, "faults: restarts must be a list"),
    (["faults"], 3, "faults"),
    # Silent wrong answers: truthy strings and truncated floats.
    (["links", 0, "direct"], "false", "link 'in': direct must be true or false"),
    (["links", 1, "measured"], "no", "link 'w': measured must be true or false"),
    (["nodes", 1, "forwarding"], {"0": 1.9}, "node 'enc': forwarding[0]"),
    (["nodes", 1, "forwarding"], {"0": True}, "node 'enc': forwarding[0]"),
    (["nodes", 1, "forwarding"], {"1_0": 1}, "forwarding ingress port"),
    (["nodes", 1, "default_egress_port"], 1.0, "default_egress_port"),
    # Non-finite numbers: nan passes every `<= 0` test.
    (["flows", 0, "start"], NAN, "flow 'f': start"),
    (["flows", 0, "packet_rate"], INF, "flow 'f': packet_rate"),
    (["flows", 0, "speedup"], NAN, "flow 'f': speedup"),
    (["control_rate"], NAN, "control_rate"),
    (["control_bandwidth_gbps"], INF, "control_bandwidth_gbps"),
    (["entry_ttl"], INF, "entry_ttl"),
    (["links", 1, "bandwidth_gbps"], NAN, "link 'w': bandwidth_gbps"),
    (["links", 1, "bandwidth_gbps"], 10 ** 400, "link 'w': bandwidth_gbps"),
    (["links", 1, "propagation_us"], INF, "link 'w': propagation_us"),
    (["links", 1, "loss"], NAN, "link 'w': loss"),
    (["faults"], {"restarts": [{"node": "dec", "time": NAN}]}, "time"),
    (["faults"], {"storms": [{"node": "enc", "time": INF, "count": 1}]}, "time"),
    (["faults"], {"control_loss": NAN}, "control_loss"),
    # Unbounded allocations: ceilings checked at load.
    (["links", 1, "hops"], 200_000, f"hops must be at most {MAX_HOPS}"),
    (["links", 1, "target"], "dec:100000000", f"at most {MAX_PORT}"),
    (["links", 1, "source"], "enc:" + "9" * 5000, "link 'w': source port"),
    (["nodes", 1, "default_egress_port"], 10 ** 9, f"at most {MAX_PORT}"),
    (["nodes", 1, "forwarding"], {"0": 10 ** 9}, f"at most {MAX_PORT}"),
    # One per remaining validator kind.
    (["name"], "", "name must be a non-empty string"),
    (["scenario"], "statik", "scenario must be one of"),
    (["order"], True, "order must be a positive integer"),
    (["seed"], 1.5, "seed must be an integer"),
    (["links", 1, "queue_capacity"], -1, "queue_capacity"),
    (["links", 1, "reorder"], 1.5, "reorder"),
    (["links", 1, "bandwith_gbps"], 1.0, "unknown keys: bandwith_gbps"),
    (["flows", 0, "sink"], 7, "flow 'f': sink"),
]

EXPERIMENT_CASES = [
    (["base"], 5, "base must be a mapping"),
    (["axes"], [1], "axes must be a mapping"),
    (["axes", "loss"], 0.1, "list of values"),
    (["overrides"], 5, "overrides must be a list"),
    (["overrides", 0], 5, "override 0"),
    (["overrides", 0, "when"], 5, "must be a mapping"),
    (["name"], 5, "name must be a non-empty string"),
    (["base", "chunks"], 0, "base: chunks must be a positive integer"),
    (["base", "chunks"], "10", "base: chunks"),
    (["base", "queue_capacity"], -1, "queue_capacity"),
    (["base", "packet_rate"], NAN, "base: packet_rate"),
    (["base", "propagation_us"], INF, "base: propagation_us"),
    (["base", "bandwidth_gbps"], 10 ** 400, "base: bandwidth_gbps"),
    (["base", "loss"], NAN, "base: loss"),
    (["base", "workload"], "dsn", "workload must be one of"),
    (["base", "seed"], 1.5, "seed must be an integer"),
    (["base", "trace"], "", "trace must be a non-empty string"),
    (["base", "hops"], 200_000, f"at most {MAX_HOPS}"),
    (["axes", "senders"], [10 ** 9], f"at most {MAX_PORT}"),
    (["bases"], {}, "unknown keys: bases"),
]

#: (preset builder or name, hostile keywords, texts the message must contain):
#: the preset, the offending name, and a name it does take — or, for a name
#: it takes with a value its owner refuses, the owner's complaint.
PRESET_CASES = [
    (fan_in_topology, {"los": 0.1}, ("preset 'fan-in'", "'los'", "loss")),
    ("fault-storm", {"racks": 2}, ("preset 'fault-storm'", "'racks'", "restart_at")),
    (fault_storm_topology, {"flow_seed": 1}, ("preset 'fault-storm'", "'flow_seed'", "senders")),
    (fan_in_stress_topology, {"shape": "encoder-only"}, ("preset 'fan-in-stress'", "'shape'", "chunks")),
    (paper_testbed_topology, {"loss": 0.1}, ("preset 'paper-testbed'", "'loss'", "flow_seed")),
    (paper_testbed_topology, {"faults": {}}, ("preset 'paper-testbed'", "'faults'", "control")),
    (rack_fan_in_topology, {"rack": 2}, ("preset 'rack-fan-in'", "'rack'", "racks")),
    (linear_topology, {"senders": 4}, ("preset 'linear'", "'senders'", "link_seed")),
    (fault_storm_topology, {"control": "direct"}, ("preset 'fault-storm'", "'control'", "control_rate")),
    (linear_topology, {"workload": "nope"}, ("preset 'linear'", "workload must be one of", "'nope'")),
    (fan_in_topology, {"loss": 2}, ("preset 'fan-in'", "loss must be a number within [0, 1]")),
    ("rack-fan-in", {"hops": 0}, ("preset 'rack-fan-in'", "hops must be a positive integer")),
    (paper_testbed_topology, {"chunks": "9"}, ("preset 'paper-testbed'", "chunks must be", "'9'")),
]

FAULT_CASES = [
    (["control_loss"], "x", "control_loss"),
    (["control_reorder"], 2, "control_reorder"),
    (["restarts"], {"node": "dec"}, "restarts must be a list"),
    (["restarts", 0], "dec", "faults.restarts[0]"),
    (["restarts", 0, "node"], "", "faults.restarts[0]: node"),
    (["restarts", 0, "time"], -1.0, "faults.restarts[0]: time"),
    (["restarts", 0, "time"], INF, "faults.restarts[0]: time"),
    (["storms", 0, "count"], 0, "faults.storms[0]: count"),
    (["storms", 0, "count"], 2.0, "faults.storms[0]: count"),
    (["storms", 0], {"node": "enc", "time": 0.5}, "missing keys: count"),
    (["storms", 0, "when"], 1, "unknown keys: when"),
]


def broken(document, path, value):
    document = copy.deepcopy(document)
    target = document
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return document


def case_ids(cases):
    return [f"{'.'.join(map(str, path))}={str(value)[:16]}" for path, value, _ in cases]


def assert_rejected(load, document, error, expected):
    start = time.perf_counter()
    with pytest.raises(ReproError) as caught:
        load(document)
    elapsed = time.perf_counter() - start
    assert isinstance(caught.value, error)
    assert expected in str(caught.value)
    assert len(str(caught.value)) < 1000
    assert elapsed < 2.0


def test_the_unbroken_documents_load():
    spec = TopologySpec.from_dict(TOPOLOGY)
    assert TopologySpec.from_dict(json.loads(json.dumps(spec.as_dict()))).as_dict() == (
        spec.as_dict()
    )
    assert ExperimentSpec.from_dict(EXPERIMENT).matrix_size == 2
    assert FaultPlan.from_dict(FAULTS).active


@pytest.mark.parametrize(
    "path,value,expected", TOPOLOGY_CASES, ids=case_ids(TOPOLOGY_CASES)
)
def test_topology_spec_rejects_by_name(path, value, expected):
    document = broken(TOPOLOGY, path, value)
    assert_rejected(TopologySpec.from_dict, document, TopologyError, expected)


@pytest.mark.parametrize(
    "path,value,expected", EXPERIMENT_CASES, ids=case_ids(EXPERIMENT_CASES)
)
def test_experiment_spec_rejects_by_name(path, value, expected):
    document = broken(EXPERIMENT, path, value)
    assert_rejected(ExperimentSpec.from_dict, document, ExperimentSpecError, expected)


@pytest.mark.parametrize(
    "path,value,expected", FAULT_CASES, ids=case_ids(FAULT_CASES)
)
def test_fault_plan_rejects_by_name(path, value, expected):
    document = broken(FAULTS, path, value)
    assert_rejected(FaultPlan.from_dict, document, TopologyError, expected)


@pytest.mark.parametrize(
    "preset,keywords,expected",
    PRESET_CASES,
    ids=[f"{getattr(p, '__name__', p)}({next(iter(k))})" for p, k, _ in PRESET_CASES],
)
def test_presets_reject_a_parameter_or_value_they_do_not_take_by_name(preset, keywords, expected):
    build = partial(preset_topology, preset) if isinstance(preset, str) else preset
    for text in expected:
        assert_rejected(lambda kw: build(**kw), keywords, TopologyError, text)


@pytest.mark.parametrize("text", ['{"seed": 1' + "0" * 5000 + "}", "{", "[1, 2"])
def test_spec_files_with_unparseable_json_are_named_errors(tmp_path, text):
    path = tmp_path / "spec.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(TopologyError, match="invalid JSON"):
        TopologySpec.from_file(path)
    with pytest.raises(ExperimentSpecError, match="invalid JSON"):
        ExperimentSpec.from_file(path)


def test_ceilings_leave_every_shipped_preset_loadable():
    # fan-in-stress is the widest shipped shape: one encoder port per sender.
    assert len(preset_topology("fan-in-stress", senders=1500).flows) == 1500
    for name in ("linear", "fan-in", "rack-fan-in", "fault-storm", "paper-testbed"):
        preset_topology(name)
    start = time.perf_counter()
    with pytest.raises(TopologyError, match=f"senders must be at most {MAX_PORT}"):
        preset_topology("fan-in", senders=10 ** 8)
    with pytest.raises(TopologyError, match=f"hops must be at most {MAX_HOPS}"):
        preset_topology("linear", hops=200_000)
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize("identifier_bits", [26, 30, 40])
def test_identifier_bits_size_no_allocation(identifier_bits):
    # ``identifier_bits`` is validated as a positive integer only, so the
    # identifier space must cost nothing until identifiers are bound: the
    # control plane's pool used to build ``list(range(2**t))`` (13 s and
    # 3.35 GB at 26 bits, ``MemoryError`` at 30).
    spec = linear_topology(identifier_bits=identifier_bits, chunks=10, bases=2)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        report = TopologyEngine(spec).run()
        elapsed = time.perf_counter() - start
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.integrity.lossless_in_order
    assert report.metrics.counter("controlplane.mappings_learned") == 2
    assert peak < 64 * 1024 * 1024
    assert elapsed < 2.0
