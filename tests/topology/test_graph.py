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


# -- Node.ingress: the wire-time binding --------------------------------------


def _raw_chunk_frame(fill: int) -> bytes:
    from repro.zipline.headers import RAW_CHUNK_ETHERTYPE_BYTES

    return bytes(6) + bytes([2, 0, 0, 1, 0, 1]) + RAW_CHUNK_ETHERTYPE_BYTES + bytes(
        [fill]
    ) * 32


def _observed_node(kind: str):
    """A fresh node of ``kind`` plus a callable returning all it did so far."""
    from repro.topology import ZipLineDecoderNode, ZipLineEncoderNode

    out = []
    if kind == "host":
        node = HostNode("h")
        node.on_deliver = lambda frame, time: out.append((frame, time))
        return node, lambda: (out, node.delivered)
    if kind == "forward":
        node = ForwardNode("f", forwarding={0: 1}, default_egress_port=2)
        node.attach(1, lambda frame, time: out.append((1, frame, time)))
        node.attach(2, lambda frame, time: out.append((2, frame, time)))
        return node, lambda: (out, node.counters())
    make = ZipLineEncoderNode if kind == "encoder" else ZipLineDecoderNode
    node = make(kind, forwarding={0: 1, 3: 2}, default_egress_port=1)
    node.attach(1, lambda frame, time: out.append((1, frame, time)))
    node.attach(2, lambda frame, time: out.append((2, frame, time)))
    pipeline = node.switch.pipeline
    return node, lambda: (
        out,
        (pipeline.packets_processed, pipeline.packets_dropped, pipeline.parse_errors),
        node.switch.switch.digest_engine.emitted,
        node.switch.counters.as_dict(),
        [node.switch.switch.port_stats(port) for port in range(4)],
    )


@pytest.mark.parametrize("kind", ["host", "encoder", "decoder", "forward"])
def test_receive_is_ingress_applied(kind):
    """``receive(f, p, t)`` and ``ingress(p)(f, t)`` are one code path."""
    by_receive, receive_state = _observed_node(kind)
    by_ingress, ingress_state = _observed_node(kind)
    sinks = {port: by_ingress.ingress(port) for port in (0, 3)}
    for index, port in enumerate([0, 3, 0, 0, 3]):
        frame = _raw_chunk_frame(index)
        by_receive.receive(frame, port, index * 1e-6)
        sinks[port](frame, index * 1e-6)
        assert receive_state() == ingress_state()
    assert receive_state()[0]  # frames did come out


def test_switch_ingress_reports_a_bad_port_like_receive_does():
    from repro.exceptions import PipelineError
    from repro.topology import ZipLineEncoderNode

    node = ZipLineEncoderNode("enc", port_count=4)
    with pytest.raises(PipelineError):
        node.ingress(4)(_raw_chunk_frame(0), 0.0)
    with pytest.raises(PipelineError):
        node.receive(_raw_chunk_frame(0), None, 0.0)
    assert all(
        node.switch.switch.port_stats(port).rx_packets == 0 for port in range(4)
    )
    assert node.switch.pipeline.packets_processed == 0


def test_on_deliver_assigned_after_wiring_sees_every_delivery():
    """The engine sets ``on_deliver`` in ``_build_flows``, after ``wire()``:
    the sink a host hands out at wire time must read the hook per frame."""
    simulator = Simulator()
    graph = TopologyGraph(simulator)
    a = graph.add_node(HostNode("a"))
    graph.add_node(ForwardNode("fwd", forwarding={0: 1}))
    b = graph.add_node(HostNode("b"))
    graph.add_edge("a", 0, "fwd", 0)
    graph.add_edge("fwd", 1, "b", 0, links=build_link_chain(simulator, ["hop"]))
    graph.wire()
    a.inject(b"before", 0.0)
    simulator.run()
    first, second = [], []
    b.on_deliver = lambda frame, time: first.append(frame)
    a.inject(b"one", simulator.now)
    simulator.run()
    b.on_deliver = lambda frame, time: second.append(frame)
    a.inject(b"two", simulator.now)
    a.inject(b"three", simulator.now)
    simulator.run()
    assert (first, second) == ([b"one"], [b"two", b"three"])
    assert b.delivered == 4
