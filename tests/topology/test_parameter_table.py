"""A run parameter is declared once, in ``repro.topology.spec``.

``FlowSpec`` / ``LinkSpec`` / ``TopologySpec`` own each parameter's name,
default and check; the preset builders, the experiment table and the
``repro replay`` flags read them.  These tests compare every reader
against the owner — never against a literal — and walk every preset ×
every routable parameter to see the value land where it belongs and
nowhere else.
"""

import dataclasses
import inspect

import pytest

from repro.cli import build_parser
from repro.exceptions import TopologyError
from repro.parameters import DEFAULTS
from repro.experiments.spec import (
    DEFAULT_PARAMETERS,
    PARAMETERS,
    ExperimentSpecError,
)
from repro.topology import TOPOLOGY_PRESETS, FlowSpec, LinkSpec, TopologySpec
from repro.topology.spec import (
    FLOW_PARAMETERS,
    RUN_PARAMETERS,
    SPEC_SETTINGS,
    WIRE_PARAMETERS,
    WORKLOADS,
)
from repro.workloads import (
    WORKLOAD_FACTORIES,
    DictionaryThrashWorkload,
    DnsQueryWorkload,
    SyntheticSensorWorkload,
)

#: What the owners declare, read off the owners themselves.
OWNER_DEFAULTS = {
    **{
        field.name: field.default
        for owner, names in ((FlowSpec, FLOW_PARAMETERS), (LinkSpec, WIRE_PARAMETERS))
        for field in dataclasses.fields(owner)
        if field.name in names
    },
    **{
        name: inspect.signature(TopologySpec.__init__).parameters[name].default
        for name in SPEC_SETTINGS[1:]
    },
}

#: A valid value for every routable parameter that is neither the owner's
#: default nor any preset's own.
NON_DEFAULT = {
    "workload": "thrash", "chunks": 37, "bases": 3, "names": 41,
    "trace": "some.pcap", "pacing": "back-to-back", "packet_rate": 2.5e5,
    "speedup": 3.0,
    "bandwidth_gbps": 12.5, "propagation_us": 7.0, "queue_capacity": 9,
    "loss": 0.25, "reorder": 0.125, "hops": 3,
    "scenario": "static", "order": 5, "identifier_bits": 11, "seed": 99,
    "entry_ttl": 0.5, "control": "in-network", "control_bandwidth_gbps": 2.0,
    "control_propagation_us": 9.0, "control_rate": 1e4, "control_queue": 17,
}
#: Settings the spec only accepts together with others.
COMPANIONS = {
    "control_rate": {"control": "in-network"},
    "control_queue": {"control": "in-network", "control_rate": 2e4},
}

#: ``experiments.spec.DEFAULT_PARAMETERS`` as it was before the table was
#: derived (commit f5ffc0f).
PARENT_DEFAULT_PARAMETERS = {
    "workload": "synthetic", "trace": None, "chunks": 1000, "bases": 16,
    "names": 300, "scenario": "dynamic", "topology": "encoder-link-decoder",
    "senders": 4, "hops": 1, "pacing": "rate", "packet_rate": 1000000.0,
    "speedup": 1.0, "bandwidth_gbps": 100.0, "propagation_us": 0.5,
    "queue_capacity": 0, "loss": 0.0, "reorder": 0.0, "identifier_bits": 15,
    "order": 8, "control": "direct", "control_loss": 0.0, "control_rate": 0,
    "seed": 0,
}


def test_the_schema_covers_every_routable_name_once():
    assert list(RUN_PARAMETERS) == [
        *FLOW_PARAMETERS, *WIRE_PARAMETERS, *SPEC_SETTINGS[1:]
    ]
    assert set(NON_DEFAULT) == set(RUN_PARAMETERS) == set(OWNER_DEFAULTS)
    for name, parameter in RUN_PARAMETERS.items():
        assert parameter.default == OWNER_DEFAULTS[name]
        assert NON_DEFAULT[name] != parameter.default


#: What a preset has nowhere to put, or sets itself: paper-testbed's tapped
#: hop is a direct wire, fault-storm's lossy channel is the in-network one.
REFUSED = {"paper-testbed": WIRE_PARAMETERS, "fault-storm": ("control",)}


def build(preset, **params):
    builder = TOPOLOGY_PRESETS[preset]
    if "senders" in inspect.signature(builder).parameters:
        params.setdefault("senders", 2)  # fan-in-stress defaults to 1,000
    return builder(**params)


def placed(spec):
    """Where every routable parameter sits in a built spec."""
    return {
        "flows": [
            {name: getattr(flow, name) for name in FLOW_PARAMETERS}
            for flow in spec.flows
        ],
        "wires": [
            {name: getattr(link, name) for name in WIRE_PARAMETERS}
            for link in spec.links
            if link.measured
        ],
        "settings": {name: getattr(spec, name) for name in SPEC_SETTINGS[1:]},
        "other links": [link for link in spec.links if not link.measured],
    }


@pytest.mark.parametrize("name", list(RUN_PARAMETERS))
@pytest.mark.parametrize("preset", list(TOPOLOGY_PRESETS))
def test_a_parameter_lands_where_it_belongs_and_nowhere_else(preset, name):
    value = NON_DEFAULT[name]
    refused = REFUSED.get(preset, ())
    companions = {
        key: companion
        for key, companion in COMPANIONS.get(name, {}).items()
        if key not in refused
    }
    if name in refused:
        with pytest.raises(TopologyError, match=f"'{preset}' takes no parameter '{name}'"):
            build(preset, **{name: value})
        return
    before = placed(build(preset, **companions))
    after = placed(build(preset, **companions, **{name: value}))
    assert after["flows"] and after["wires"]
    group = (
        "flows" if name in FLOW_PARAMETERS
        else "wires" if name in WIRE_PARAMETERS
        else "settings"
    )
    targets = [after[group]] if group == "settings" else after[group]
    assert all(target[name] == value for target in targets)
    # Put the old value back and nothing differs from the run without it.
    for target, original in zip(
        targets, [before[group]] if group == "settings" else before[group]
    ):
        target[name] = original[name]
    assert after == before


def test_experiment_defaults_are_the_owners_defaults():
    own = {"topology", "senders", "control_loss", "control_rate"}
    shared = [name for name in PARAMETERS if name not in own]
    assert len(shared) == 19 and len(PARAMETERS) == 23
    for name in shared:
        assert PARAMETERS[name].default == OWNER_DEFAULTS[name]
        # The owner's check, under the experiment table's error class.
        validate = PARAMETERS[name].validate
        assert validate("base", name, NON_DEFAULT[name]) == NON_DEFAULT[name]
        with pytest.raises(ExperimentSpecError, match=f"base: {name} must be"):
            validate("base", name, object())
    assert DEFAULT_PARAMETERS == PARENT_DEFAULT_PARAMETERS
    assert list(DEFAULT_PARAMETERS) == list(PARENT_DEFAULT_PARAMETERS)
    for name, value in DEFAULT_PARAMETERS.items():
        assert type(value) is type(PARENT_DEFAULT_PARAMETERS[name])


def subcommand(name):
    parser = build_parser()
    subparsers = next(
        action for action in parser._actions if hasattr(action, "choices") and action.choices
    )
    return subparsers.choices[name]


def test_one_table_holds_every_run_parameter_s_default_in_schema_order():
    # The owners read their defaults from repro.parameters, which the
    # parser imports without the simulator.
    assert list(DEFAULTS) == [*FLOW_PARAMETERS, *WIRE_PARAMETERS, *SPEC_SETTINGS[1:]]
    assert DEFAULTS == OWNER_DEFAULTS
    for name, value in DEFAULTS.items():
        assert RUN_PARAMETERS[name].default is value


def test_replay_flag_defaults_are_the_owners_defaults():
    flags = {
        action.dest: action
        for action in subcommand("replay")._actions
        if action.dest in RUN_PARAMETERS
    }
    assert set(flags) >= {
        "scenario", "pacing", "packet_rate", "speedup", *WIRE_PARAMETERS
    }
    for name, action in flags.items():
        assert action.default == OWNER_DEFAULTS[name]
        assert type(action.default) is type(OWNER_DEFAULTS[name])
    # The help quotes the same value (docs/cli.md pins the exact text).
    assert f"(default {OWNER_DEFAULTS['propagation_us']:g})" in flags["propagation_us"].help
    assert f"(default: {OWNER_DEFAULTS['pacing']})" in flags["pacing"].help
    topology = {action.dest: action for action in subcommand("topology")._actions}
    for name in ("scenario", "seed"):
        assert topology[name].default == OWNER_DEFAULTS[name]


def test_preset_own_defaults_are_unchanged():
    def shape(spec):
        flow = spec.flows[0]
        return len(spec.flows), flow.chunks, flow.bases, flow.packet_rate

    owner_rate = OWNER_DEFAULTS["packet_rate"]
    assert shape(TOPOLOGY_PRESETS["linear"]()) == (
        1, OWNER_DEFAULTS["chunks"], OWNER_DEFAULTS["bases"], owner_rate
    )
    assert shape(TOPOLOGY_PRESETS["fan-in"]()) == (
        4, OWNER_DEFAULTS["chunks"], OWNER_DEFAULTS["bases"], owner_rate
    )
    assert shape(TOPOLOGY_PRESETS["rack-fan-in"]()) == (4 * 8, 500, 8, owner_rate)
    assert shape(TOPOLOGY_PRESETS["fan-in-stress"]()) == (1000, 100, 8, owner_rate)
    storm = TOPOLOGY_PRESETS["fault-storm"]()
    assert shape(storm) == (4, 600, 6, 1e5)
    assert storm.control == "in-network"
    assert storm.faults.control_loss == 0.10
    assert [(r.node, r.time) for r in storm.faults.restarts] == [("decoder", 600 / 2e5)]


def test_the_workload_choice_has_one_map():
    assert WORKLOADS == tuple(WORKLOAD_FACTORIES) == ("synthetic", "dns", "thrash")
    arguments = dict(chunks=40, bases=8, names=12, order=8, seed=7)
    direct = {
        "synthetic": SyntheticSensorWorkload(
            num_chunks=40, distinct_bases=8, order=8, seed=7
        ),
        "dns": DnsQueryWorkload(num_queries=40, distinct_names=12, seed=7),
        "thrash": DictionaryThrashWorkload(
            num_chunks=40, distinct_bases=8, order=8, phase_chunks=10,
            phase_shift=2, seed=7,
        ),
    }
    for name, factory in WORKLOAD_FACTORIES.items():
        workload, bases = factory(**arguments)
        assert type(workload) is type(direct[name])
        assert list(workload.iter_chunks()) == list(direct[name].iter_chunks())
        assert list(bases()) == list(direct[name].bases())
