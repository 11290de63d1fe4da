"""Record the frames a flow's sink host delivers, for tests that read them.

A :class:`~repro.topology.engine.TopologyEngine` counts and matches every
delivered frame but keeps none (in either metrics mode).  A test that
needs the restored payloads or a processed trace wraps the sink host's
``on_deliver`` hook — which ``HostNode.deliver`` reads per frame — after
the engine is built and before it runs.
"""

from typing import List, Tuple


def capture_arrivals(engine, flow: str = "flow0") -> List[Tuple[float, bytes]]:
    """Start recording ``flow``'s deliveries at its sink host.

    Returns the list the run fills with ``(time, frame)`` pairs, in
    arrival order: every frame that reaches the flow's sink carrying the
    flow's source MAC — the frames the engine attributes to the flow.
    """
    (state,) = [state for state in engine.flow_states if state.spec.name == flow]
    host = engine.graph.node(state.spec.sink)
    forward = host.on_deliver
    source_mac = state.source_mac_bytes
    arrivals: List[Tuple[float, bytes]] = []

    def on_deliver(frame_bytes: bytes, time: float) -> None:
        if frame_bytes[6:12] == source_mac:
            arrivals.append((time, frame_bytes))
        forward(frame_bytes, time)

    host.on_deliver = on_deliver
    return arrivals
