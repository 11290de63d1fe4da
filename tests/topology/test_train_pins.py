"""Golden report bytes for the shapes that decide how flows are injected.

The flows of a run are injected in ``(time, sequence)`` order, one frame
per event, however the events are put in the simulator's hands.  These
pins fix what that order produces where it is easiest to get wrong: a
static rack fan-in cut by ``run(until=t)`` and by ``max_events`` in the
middle of its injections; a fan-in whose flows all start at the same
instant, so every injection ties with another flow's and the tie-break
decides; the thrashing in-network fan-in, whose deliveries and control
steps fall between injections; two flows whose injections fit between
the deliveries of one but not of the other; and an ``entry_ttl`` spec,
whose idle polls run between them.  Full runs are pinned at ``workers`` 1 and 2,
traced and not; cut runs (one engine, so no worker axis) traced and not.
"""

import dataclasses
import hashlib

import pytest

from repro import obs
from repro.topology import (
    FaultPlan,
    TopologyEngine,
    TopologySpec,
    fan_in_topology,
    linear_topology,
    rack_fan_in_topology,
    run_topology,
    validate_spec_faults,
)
from repro.topology.spec import FlowSpec, LinkSpec, NodeSpec


def _rack(seed):
    return rack_fan_in_topology(
        racks=2, senders=4, chunks=150, bases=8, scenario="static", seed=seed
    )


def _equal_start(scenario, control):
    def build(seed):
        spec = fan_in_topology(
            senders=3, chunks=400, bases=8, packet_rate=1e5, scenario=scenario,
            control=control, seed=seed,
        )
        spec.flows = [dataclasses.replace(flow, start=0.0) for flow in spec.flows]
        return spec

    return build


def _thrash(seed):
    spec = fan_in_topology(
        senders=4, workload="thrash", chunks=500, bases=10, packet_rate=1e5,
        identifier_bits=5, control="in-network", seed=seed,
    )
    spec.faults = FaultPlan(control_loss=0.1)
    validate_spec_faults(spec)
    return spec


def _entry_ttl(ttl, control):
    def build(seed):
        return linear_topology(
            chunks=60, bases=4, packet_rate=1e4, scenario="dynamic",
            control=control, entry_ttl=ttl, seed=seed,
        )

    return build


def _near_and_far(seed):
    """Two flows, one into a forwarder over a 0.1 µs link, one over a 50 µs
    link into its sink: while a far frame is on the wire the near frames
    could go in one train, but each near frame's delivery into the
    forwarder is an event due before the next injection."""
    hosts = ("near", "far", "near-sink", "far-sink")
    nodes = [NodeSpec(name=name, kind="host") for name in hosts]
    nodes.append(NodeSpec(name="hop", kind="forward", default_egress_port=1))
    links = [
        LinkSpec(
            name="short", source=("near", 0), target=("hop", 0), propagation_us=0.1
        ),
        LinkSpec(name="out", source=("hop", 1), target=("near-sink", 0), direct=True),
        LinkSpec(name="long", source=("far", 0), target=("far-sink", 0), propagation_us=50.0),
    ]
    flows = [
        FlowSpec(name="near", source="near", sink="near-sink", chunks=200, bases=4),
        FlowSpec(
            name="far", source="far", sink="far-sink", chunks=200, bases=4, start=0.5e-6
        ),
    ]
    return TopologySpec(
        name="near-and-far", nodes=nodes, links=links, flows=flows, seed=seed
    )


#: Shapes run to completion through ``run_topology``.
FULL = {
    "rack-static": _rack,
    "equal-start-static": _equal_start("static", "direct"),
    "equal-start-in-network": _equal_start("dynamic", "in-network"),
    "thrash-control-loss": _thrash,
    "near-and-far": _near_and_far,
}

#: Shapes cut by ``TopologyEngine.run``: (shape, bound) -> builder and the
#: ``run`` keyword that cuts it.  The rack's flows inject every 0.25 µs
#: from 0 to 150 µs; the ``entry_ttl`` chains send for 6 ms and poll for
#: idle entries every 50 ms.
CUT = {
    ("rack-static", "until=23.4e-6"): (_rack, dict(until=23.4e-6)),
    ("rack-static", "until=64.1e-6"): (_rack, dict(until=64.1e-6)),
    ("rack-static", "until=149.9e-6"): (_rack, dict(until=149.9e-6)),
    ("rack-static", "max_events=1"): (_rack, dict(max_events=1)),
    ("rack-static", "max_events=17"): (_rack, dict(max_events=17)),
    ("rack-static", "max_events=300"): (_rack, dict(max_events=300)),
    ("rack-static", "max_events=777"): (_rack, dict(max_events=777)),
    ("ttl-0.2ms-direct", "until=0.12"): (
        _entry_ttl(0.2e-3, "direct"), dict(until=0.12)
    ),
    ("ttl-0.2ms-in-network", "until=0.12"): (
        _entry_ttl(0.2e-3, "in-network"), dict(until=0.12)
    ),
    ("ttl-0.5s-direct", "until=0.06"): (_entry_ttl(0.5, "direct"), dict(until=0.06)),
}

SEEDS = (2020, 4242)

#: (shape, seed) -> md5 of the exact-mode ``json_text()`` of a full run.
GOLDEN_FULL = {
    ("equal-start-in-network", 2020): "e4af1bd3f0645bbb5704204da3bb91bc",
    ("equal-start-in-network", 4242): "785bd8d2c36f7f761a6892562585235e",
    ("equal-start-static", 2020): "4ab24760aeeab47b97644685da96155a",
    ("equal-start-static", 4242): "5651882b1ceed56d543a673120406583",
    ("near-and-far", 2020): "f67911495bed50aa9543f5ad01e71213",
    ("near-and-far", 4242): "8d22e728b69d1986eb3bbc4e5fcf69b9",
    ("rack-static", 2020): "05e04a63a2352c374c3909a2e19d929c",
    ("rack-static", 4242): "b3f3a388698a87bd859466877701d0d2",
    ("thrash-control-loss", 2020): "e36d3e420f13434c87a17c918ee8bf2b",
    ("thrash-control-loss", 4242): "bcde1ba565ff8a691475043304afc4a5",
}

#: (shape, bound, seed) -> md5 of the exact-mode ``json_text()`` of a cut run.
GOLDEN_CUT = {
    ("rack-static", "max_events=1", 2020): "5e6ca6cf2d0a985e71cbe28e6b50744a",
    ("rack-static", "max_events=1", 4242): "a45bd7fccb762bb3f24fd6539683cd99",
    ("rack-static", "max_events=17", 2020): "a5983c0ec1f640f209597023d36eda07",
    ("rack-static", "max_events=17", 4242): "11a79a1d99061fa8bb757643ef370bcb",
    ("rack-static", "max_events=300", 2020): "db34e669867e89bd0aaafb4657de4112",
    ("rack-static", "max_events=300", 4242): "8b33f66af2b432a1c8966065857fb8fb",
    ("rack-static", "max_events=777", 2020): "9ebf79a80b15f52bad1defe1a78a6510",
    ("rack-static", "max_events=777", 4242): "abfc430f277aa0c722176b23b16109db",
    ("rack-static", "until=149.9e-6", 2020): "05da907e64a5e5c92b2ba0ae8642cf2b",
    ("rack-static", "until=149.9e-6", 4242): "a8f15637f7506300dce47025ce42cf46",
    ("rack-static", "until=23.4e-6", 2020): "96dadc49f96333d7bc7e866216863a37",
    ("rack-static", "until=23.4e-6", 4242): "043d54af82102164ab7dfa750d5db303",
    ("rack-static", "until=64.1e-6", 2020): "1ba5d01b83a2d380953eebd63ae18234",
    ("rack-static", "until=64.1e-6", 4242): "505191bd556a5f296cbc122e8e093104",
    ("ttl-0.2ms-direct", "until=0.12", 2020): "b9bcd76476153c6aaad27b49bbd2c5de",
    ("ttl-0.2ms-direct", "until=0.12", 4242): "b919f1671d16c83bd142cb321103988b",
    ("ttl-0.2ms-in-network", "until=0.12", 2020): "2f1906ac3f7edb60d2e024811cd0f928",
    ("ttl-0.2ms-in-network", "until=0.12", 4242): "fea9b47c7de54303545a61bff5032d19",
    ("ttl-0.5s-direct", "until=0.06", 2020): "14d633a9fa9bef32ec8c7d0b1f697701",
    ("ttl-0.5s-direct", "until=0.06", 4242): "b068ed81859fc54f000a232efae4315e",
}


def _traced(traced, run):
    saved = obs.TRACER
    if traced:
        obs.enable()
    try:
        report = run()
    finally:
        obs.TRACER = saved
    return hashlib.md5(report.json_text().encode("utf-8")).hexdigest()


def full_md5(shape, seed, workers=1, traced=False):
    return _traced(traced, lambda: run_topology(FULL[shape](seed), workers=workers))


def cut_md5(shape, bound, seed, traced=False):
    build, cut = CUT[(shape, bound)]
    return _traced(traced, lambda: TopologyEngine(build(seed)).run(**cut))


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("shape,seed", sorted(GOLDEN_FULL))
def test_full_run_bytes_match_golden(shape, seed, workers, traced):
    assert full_md5(shape, seed, workers, traced) == GOLDEN_FULL[(shape, seed)]


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("shape,bound,seed", sorted(GOLDEN_CUT))
def test_cut_run_bytes_match_golden(shape, bound, seed, traced):
    assert cut_md5(shape, bound, seed, traced) == GOLDEN_CUT[(shape, bound, seed)]


def test_shapes_exercise_what_they_pin():
    """The equal-start fan-in learns and compresses, the thrash shape loses
    control frames, and the 0.2 ms ``entry_ttl`` chain expires what it
    learned before its cut while the 0.5 s one does not."""
    counters = {
        shape: run_topology(build(2020)).metrics.as_dict()["counters"]
        for shape, build in FULL.items()
    }
    assert counters["equal-start-in-network"]["controlplane.mappings_learned"] > 0
    assert counters["thrash-control-loss"]["control.encoder.dropped"] > 0
    for shape, bound, expired in (
        ("ttl-0.2ms-direct", "until=0.12", True),
        ("ttl-0.5s-direct", "until=0.06", False),
    ):
        build, cut = CUT[(shape, bound)]
        report = TopologyEngine(build(2020)).run(**cut)
        counters = report.metrics.as_dict()["counters"]
        learned = counters["controlplane.mappings_learned"]
        assert learned > 0
        assert counters["controlplane.mappings_expired"] == (learned if expired else 0)


if __name__ == "__main__":
    for shape, seed in sorted(GOLDEN_FULL):
        print(f"    {(shape, seed)!r}: {full_md5(shape, seed)!r},")
    for shape, bound in sorted(CUT):
        for seed in SEEDS:
            print(f"    {(shape, bound, seed)!r}: {cut_md5(shape, bound, seed)!r},")
