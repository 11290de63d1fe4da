"""TopologyGraph wiring and the concrete node types."""

import pytest

from repro.exceptions import TopologyError
from repro.sim.simulator import Simulator
from repro.topology import (
    ForwardNode,
    HostNode,
    TopologyGraph,
    build_link_chain,
)


def test_unknown_edge_endpoints_rejected():
    graph = TopologyGraph(Simulator())
    graph.add_node(HostNode("a"))
    with pytest.raises(TopologyError, match="unknown target node 'b'"):
        graph.add_edge("a", 0, "b", 0)
    with pytest.raises(TopologyError, match="unknown source node 'x'"):
        graph.add_edge("x", 0, "a", 0)


def test_duplicate_node_rejected():
    graph = TopologyGraph(Simulator())
    graph.add_node(HostNode("a"))
    with pytest.raises(TopologyError, match="duplicate node name 'a'"):
        graph.add_node(HostNode("a"))


def test_double_wire_rejected():
    graph = TopologyGraph(Simulator())
    graph.add_node(HostNode("a"))
    graph.add_node(HostNode("b"))
    graph.add_edge("a", 0, "b", 0)
    graph.wire()
    with pytest.raises(TopologyError, match="already wired"):
        graph.wire()


def test_direct_edge_delivers_synchronously():
    simulator = Simulator()
    graph = TopologyGraph(simulator)
    a = graph.add_node(HostNode("a"))
    b = graph.add_node(HostNode("b"))
    graph.add_edge("a", 0, "b", 0)
    graph.wire()
    arrivals = []
    b.on_deliver = lambda frame, time: arrivals.append((time, frame))
    a.inject(b"x" * 64, 0.0)
    assert b.delivered == 1
    assert arrivals == [(0.0, b"x" * 64)]


def test_forward_node_routes_and_counts():
    simulator = Simulator()
    graph = TopologyGraph(simulator)
    a = graph.add_node(HostNode("a"))
    graph.add_node(ForwardNode("fwd", forwarding={0: 1}))
    b = graph.add_node(HostNode("b"))
    graph.add_edge("a", 0, "fwd", 0)
    graph.add_edge("fwd", 1, "b", 0)
    graph.wire()
    a.inject(b"y" * 80, 0.0)
    fwd = graph.node("fwd")
    assert b.delivered == 1
    assert fwd.counters() == {
        "forwarded": 1, "forwarded_bytes": 80, "no_route": 0,
    }


def test_forward_node_counts_unroutable_frames():
    node = ForwardNode("fwd", forwarding={})
    node.receive(b"z" * 20, 5, 0.0)
    assert node.counters()["no_route"] == 1
    assert node.counters()["forwarded"] == 0


def test_multi_hop_edge_chains_links_through_the_simulator():
    simulator = Simulator()
    graph = TopologyGraph(simulator)
    a = graph.add_node(HostNode("a"))
    b = graph.add_node(HostNode("b"))
    links = build_link_chain(
        simulator, names=["hop0", "hop1"], bandwidth_bps=1e9,
        propagation_delay=1e-6,
    )
    graph.add_edge("a", 0, "b", 0, links=links)
    graph.wire()
    a.inject(b"w" * 100, 0.0)
    assert b.delivered == 0  # nothing moves until the simulator runs
    simulator.run()
    assert b.delivered == 1
    assert links[0].stats.delivered == 1
    assert links[1].stats.offered == 1
    # Two serialisations + two propagations happened on the clock.
    assert simulator.now > 2e-6


def test_link_chain_requires_names():
    with pytest.raises(TopologyError, match="at least one link name"):
        build_link_chain(Simulator(), names=[])


def test_host_inject_without_egress_is_an_error():
    with pytest.raises(TopologyError, match="no egress attached"):
        HostNode("lonely").inject(b"q", 0.0)


def test_host_egress_port_cannot_be_attached_twice():
    node = HostNode("h")
    node.attach(0, lambda frame, time: None)
    with pytest.raises(TopologyError, match="already attached"):
        node.attach(0, lambda frame, time: None)


def test_host_supports_multiple_egress_ports():
    node = HostNode("h")
    seen = []
    node.attach(0, lambda frame, time: seen.append(("p0", frame)))
    node.attach(1, lambda frame, time: seen.append(("p1", frame)))
    node.inject(b"a", 0.0)
    node.inject(b"b", 0.0, port=1)
    assert seen == [("p0", b"a"), ("p1", b"b")]


def test_forward_and_switch_nodes_refuse_egress_overwrite():
    from repro.topology import ForwardNode

    node = ForwardNode("fwd")
    node.attach(1, lambda frame, time: None)
    with pytest.raises(TopologyError, match="already attached"):
        node.attach(1, lambda frame, time: None)
