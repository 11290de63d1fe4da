"""The lookahead-off differential: the rule moves no report byte.

:class:`repro.sim.lookahead.Lookahead` lets an edge hand a frame to its
receiver — a switch program, the next link of a chain — ahead of the
clock, instead of spending a delivery event on it, when nothing can reach
the receiver first.  With :meth:`~repro.sim.lookahead.Lookahead.admits`
patched to refuse every frame, the way a refusal does, no edge hands
anything on early: every delivery over a link is an event of its own.
Both runs must print the same report, byte for byte, over a grid that
covers every shape the rule decides: chains of one and three hops, in
order and reordering, with and without a saturated drop-tail queue; the
benchmark's lossy DNS chain, and chains whose shortest frame serialises
in just more, exactly and just less than the reorder delay (a delayed
frame holds the next hop only when a later one could overtake it); the
paper's direct testbed; rack fan-ins, static and learning, with direct
and in-network control; a thrashing fan-in over a lossy control link, the
fault storm, a decoder restart while frames are on a 50 µs wire, a
static rack whose decoder restarts inside a train, and an ``entry_ttl``
chain whose idle polls are pending for most of the run.

A train's crossing (:mod:`repro.topology.crossing`) judges a whole list
by :meth:`~repro.sim.lookahead.Lookahead.admitted`, the same rule over
many stamps.  Both runs above attach an observer, and a run an observer
watches crosses nothing, so over the same grid the run without one,
whose trains cross, must equal the watched run too.
"""

import collections
import hashlib
import math

import pytest

from repro.sim.lookahead import Lookahead
from repro.topology import flows
from repro.topology import (
    FaultPlan,
    NodeRestart,
    TopologyEngine,
    fan_in_topology,
    fault_storm_topology,
    linear_topology,
    paper_testbed_topology,
    rack_fan_in_topology,
    validate_spec_faults,
)

from test_trains import _crossed, restart_mid_train


def _chain(hops, reorder, saturated):
    """A learning chain: 300 frames at 100k frames/s.  Saturated, its hops
    carry 30 Mb/s against 67 Mb/s offered, so the first hop's 64-frame
    queue fills a third of the way in and frames then wait ~1.4 ms in it,
    longer than the control plane's reaction."""

    def build(seed):
        params = dict(bandwidth_gbps=0.03, queue_capacity=64) if saturated else {}
        return linear_topology(
            chunks=300, bases=8, packet_rate=1e5, hops=hops, reorder=reorder,
            scenario="dynamic", seed=seed, **params,
        )

    return build


def _dns_chain(bandwidth_gbps, chunks, reorder):
    """The benchmark's lossy DNS chain: three hops of ``bandwidth_gbps``
    with 1 % loss, a 10 µs reorder delay and 64-frame queues, fed 100k
    frames/s (67.2 Mb/s of 84-byte wire slots).  At 67.2 Mb/s the shortest
    frame serialises in exactly the reorder delay: below it no later frame
    can overtake a delayed one, above it one can."""

    def build(seed):
        return linear_topology(
            workload="dns", chunks=chunks, names=400, scenario="dynamic", hops=3,
            loss=0.01, reorder=reorder, queue_capacity=64, packet_rate=1e5,
            bandwidth_gbps=bandwidth_gbps, seed=seed,
        )

    return build


def _thrash(seed):
    spec = fan_in_topology(
        senders=3, workload="thrash", chunks=150, bases=10, packet_rate=1e5,
        identifier_bits=5, control="in-network", seed=seed,
    )
    spec.faults = FaultPlan(control_loss=0.1)
    validate_spec_faults(spec)
    return spec


def _thrash_direct(seed):
    """Recycling under direct control: a recycled identifier leaves the
    decoder's table at the control plane's first processing step."""
    return fan_in_topology(
        senders=3, workload="thrash", chunks=150, bases=10, packet_rate=1e5,
        identifier_bits=5, seed=seed,
    )


def _restart_on_a_long_wire(seed):
    spec = linear_topology(
        chunks=200, bases=4, packet_rate=1e6, propagation_us=50.0,
        scenario="static", control="in-network", seed=seed,
    )
    spec.faults = FaultPlan(restarts=(NodeRestart(node="decoder", time=100.5e-6),))
    validate_spec_faults(spec)
    return spec


def _rack(scenario, control):
    def build(seed):
        return rack_fan_in_topology(
            racks=2, senders=3, chunks=100, bases=8, packet_rate=1e5,
            scenario=scenario, control=control, seed=seed,
        )

    return build


GRID = {
    **{
        f"linear-{hops}hop-reorder{reorder}-{queue}": _chain(hops, reorder, queue == "q64")
        for hops in (1, 3)
        for reorder in (0.0, 0.01)
        for queue in ("unbounded", "q64")
    },
    # The benchmark's chain at 1/8 of its size, then around 67.2 Mb/s.
    "dns-3hop-66Mbps": _dns_chain(0.066, 2000, 0.01),
    **{
        f"dns-3hop-{mbps}Mbps": _dns_chain(mbps / 1000, 600, 0.05)
        for mbps in (67.1, 67.2, 67.3)
    },
    "paper-testbed": lambda seed: paper_testbed_topology(
        chunks=300, bases=8, packet_rate=1e5, seed=seed
    ),
    **{
        f"rack-{scenario}-{control}": _rack(scenario, control)
        for scenario in ("static", "dynamic")
        for control in ("direct", "in-network")
    },
    "fan-in-thrash": _thrash,
    "fan-in-thrash-direct": _thrash_direct,
    "fault-storm": lambda seed: fault_storm_topology(senders=3, chunks=200, seed=seed),
    "restart-on-a-50us-wire": _restart_on_a_long_wire,
    "entry-ttl-0.5s": lambda seed: linear_topology(
        chunks=60, bases=4, packet_rate=1e4, scenario="dynamic", entry_ttl=0.5,
        seed=seed,
    ),
    "rack-static-restart-mid-train": restart_mid_train,
}


def _lookahead_off(monkeypatch):
    monkeypatch.setattr(Lookahead, "admits", lambda self, stamp: False)


def _run(spec):
    """The report, and how many delivery events each link spent and how
    many frames it delivered."""
    engine = TopologyEngine(spec)
    events = collections.Counter()
    engine.simulator.add_observer(lambda _time, label: events.update((label,)))
    report = engine.run()
    spent = {link.name: events[f"{link.name}:deliver"] for link in engine.graph.links}
    delivered = {link.name: link.stats.delivered for link in engine.graph.links}
    return report, spent, delivered


def _md5(report):
    return hashlib.md5(report.json_text().encode("utf-8")).hexdigest()


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("shape", sorted(GRID))
def test_lookahead_off_prints_the_same_report(shape, seed, monkeypatch):
    on, _, _ = _run(GRID[shape](seed))
    _lookahead_off(monkeypatch)
    off, spent, delivered = _run(GRID[shape](seed))
    assert _md5(on) == _md5(off)
    # Off means off: no link handed a frame on without its event.
    assert spent == delivered


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("shape", sorted(GRID))
def test_crossing_trains_prints_the_same_report(shape, seed):
    """Report bytes, event count and every trace event (without ``seq``)
    of the run whose trains cross, and of the run an observer watches."""
    assert _crossed(GRID[shape](seed), {}, False) == _crossed(GRID[shape](seed), {}, True)


def test_the_grid_crosses_trains(monkeypatch):
    """The static racks and the 50 µs wire cross trains as lists, and the
    restarts split some crossing: the frames a pending write holds run one
    by one."""
    crossed = collections.defaultdict(list)
    cross = flows.cross

    def counting(simulator, train, description):
        ran = cross(simulator, train, description)
        crossed[shape].append((len(train), ran))
        return ran

    monkeypatch.setattr(flows, "cross", counting)
    for shape in sorted(GRID):
        TopologyEngine(GRID[shape](7)).run()
    for shape in (
        "rack-static-direct", "rack-static-in-network",
        "rack-static-restart-mid-train", "restart-on-a-50us-wire",
    ):
        assert sum(ran for _, ran in crossed[shape]) > 0, shape
    for shape in ("rack-static-restart-mid-train", "restart-on-a-50us-wire"):
        assert any(ran < length for length, ran in crossed[shape]), shape


def test_the_grid_reaches_what_it_is_for():
    """The saturated chains fill their queue and reorder, and the 3-hop one
    hands frames from link to link without events."""
    report, spent, delivered = _run(GRID["linear-3hop-reorder0.01-q64"](7))
    counters = report.metrics.as_dict()["counters"]
    assert counters["link0.max_queue_depth"] == 64
    assert counters["link0.dropped_queue"] > 0
    assert sum(counters[f"link{hop}.reordered"] for hop in range(3)) > 0
    assert counters["controlplane.mappings_learned"] > 0
    for name in ("link0", "link1"):
        assert spent[name] < delivered[name] / 2, name


@pytest.mark.parametrize(
    "shape, held",
    [("dns-3hop-66Mbps", False), ("dns-3hop-67.1Mbps", False), ("dns-3hop-67.3Mbps", True)],
)
def test_a_delayed_frame_holds_the_next_hop_only_when_it_can_be_overtaken(shape, held):
    """Below 67.2 Mb/s no frame sent after a delayed one can be delivered
    first, so a reordering hop never holds the hop after it; above, the
    shortest frame serialises in less than the delay, and it does."""
    engine = TopologyEngine(GRID[shape](7))
    report = engine.run()
    counters = report.metrics.as_dict()["counters"]
    assert all(counters[f"link{hop}.reordered"] > 0 for hop in range(2))
    holds = [link._lookahead.hold for link in engine.graph.links[:2]]
    assert all(hold > 0 for hold in holds) if held else holds == [-math.inf] * 2


def test_queue_depth_equals_the_lookahead_off_run_at_every_event(monkeypatch):
    """A frame handed from link to link ahead of the clock counts on the
    downstream link only from its delivery instant: read after every event
    of the run, each link's ``queue_depth`` is the one the lookahead-off
    run reads after the same event (that run has more events: one per
    delivery)."""

    def depths():
        engine = TopologyEngine(GRID["linear-3hop-reorder0.01-q64"](7))
        links = engine.graph.links
        seen = []
        engine.simulator.add_observer(
            lambda time, label: seen.append(
                ((time, label), tuple(link.queue_depth for link in links))
            )
        )
        engine.run()
        return seen

    on = depths()
    _lookahead_off(monkeypatch)
    off = iter(depths())
    compared = 0
    for event, depth in on:
        for other, other_depth in off:
            if other == event:
                assert depth == other_depth, event
                compared += 1
                break
    assert compared == len(on)
    assert max(max(depth) for _event, depth in on) == 64
