"""Concrete topology nodes: hosts, ZipLine switches, plain forwarders.

Four node kinds cover every topology the reproduction builds:

* :class:`HostNode` — a traffic endpoint: flows inject frames at it and
  sinks collect (and optionally store) delivered frames;
* :class:`ZipLineEncoderNode` / :class:`ZipLineDecoderNode` — thin graph
  adapters around the existing
  :class:`~repro.zipline.encoder_switch.ZipLineEncoderSwitch` and
  :class:`~repro.zipline.decoder_switch.ZipLineDecoderSwitch` models (all
  counters, digests and table semantics are the switch's own);
* :class:`ForwardNode` — a plain store-and-forward hop that moves frames
  between ports without touching them, for paths that traverse ordinary
  switches.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional

from repro import obs as _obs
from repro.exceptions import TopologyError
from repro.sim.lookahead import Lookahead
from repro.topology.graph import LinkSink, Node

__all__ = [
    "HostNode",
    "ZipLineEncoderNode",
    "ZipLineDecoderNode",
    "ForwardNode",
]


class HostNode(Node):
    """A traffic endpoint: the place flows start and end.

    As a *sink*, the host counts every delivered frame and forwards each
    delivery to an optional ``on_deliver`` hook (the engine sets it for
    per-flow attribution and matching).  No delivered frame is retained,
    here or on a flow; a caller that wants them wraps ``on_deliver``
    after the engine is built.  As a *source*, :meth:`inject` transmits a
    frame into whatever the graph attached to the host's egress port.  A delivery is accounted
    at the ``time`` it carries, so the host's ingress is timed.
    """

    timed_ingress = True
    #: A host takes a train as one list (:meth:`cross`).
    takes_trains = True

    def __init__(self, name: str = "host"):
        super().__init__(name)
        self.delivered = 0
        self._egress: Dict[int, LinkSink] = {}
        self.on_deliver: Optional[Callable[[bytes, float], None]] = None

    # -- sink side -----------------------------------------------------------

    def ingress(self, port: int) -> LinkSink:
        return self.deliver

    def deliver(self, frame_bytes: bytes, time: float) -> None:
        """Port-sink entry point (same shape as a switch port sink)."""
        self.delivered += 1
        if self.on_deliver is not None:
            self.on_deliver(frame_bytes, time)

    def reach(
        self, stamps: List[float], clocks: List[float], size: int, drawn: bool
    ) -> int:
        """A host takes every frame of a list handed to it (see
        :func:`repro.sim.lookahead.crossing`)."""
        return len(stamps)

    def cross(self, frames: List[bytes], stamps: List[float], keys: List[tuple]) -> None:
        """:meth:`deliver` a list of frames, frame ``i`` at ``stamps[i]``,
        in one call.  An ``on_deliver`` with a ``cross`` of its own (the
        engine's) takes the whole list from it, untraced; any other still
        sees each frame, and a traced run shows each frame under its own
        trace context."""
        self.delivered += len(frames)
        on_deliver = self.on_deliver
        if on_deliver is None:
            return
        tracer = _obs.TRACER
        if tracer.enabled:
            for frame, time, key in zip(frames, stamps, keys):
                tracer.restore_context(key[3])
                on_deliver(frame, time)
            return
        take = getattr(on_deliver, "cross", None)
        if take is not None:
            take(frames, stamps)
            return
        for frame, time in zip(frames, stamps):
            on_deliver(frame, time)

    # -- source side -----------------------------------------------------------

    def attach(
        self,
        port: int,
        sink: LinkSink,
        timed: bool = False,
        lookahead: Optional[Lookahead] = None,
    ) -> None:
        if port in self._egress:
            # A silent overwrite would blackhole the first edge's path.
            raise TopologyError(
                f"host {self.name!r} egress port {port} is already attached"
            )
        self._egress[port] = sink

    def inject(self, frame_bytes: bytes, time: float, port: int = 0) -> None:
        """Transmit one frame into the network via egress ``port``."""
        sink = self._egress.get(port)
        if sink is None:
            raise TopologyError(
                f"host {self.name!r} has no egress attached on port {port}; "
                "add an edge from it before injecting"
            )
        sink(frame_bytes, time)


def _guard_reattach(node: Node, attached: set, port: int) -> None:
    """Refuse to silently replace an already-wired egress port.

    A second edge from the same port would otherwise blackhole the first
    edge's path without any error or counter.
    """
    if port in attached:
        raise TopologyError(
            f"node {node.name!r} egress port {port} is already attached"
        )
    attached.add(port)


class _ZipLineSwitchNode(Node):
    """Shared graph-adapter logic for the two ZipLine switch nodes."""

    def __init__(self, name: str, **switch_kwargs):
        super().__init__(name)
        self.switch = self._make_switch(name, **switch_kwargs)
        self.lookahead = self.switch.lookahead
        self._attached_ports: set = set()

    def _make_switch(self, name: str, **switch_kwargs):
        raise NotImplementedError

    #: Whether a link or a switch port may hand the program a train as
    #: lists (:func:`repro.sim.lookahead.crossing`).  Only a train's first
    #: program is an encoder (:func:`repro.topology.crossing.cross` stops
    #: before its first table miss): a learn digest further down would hold
    #: hops the train was already judged by.
    takes_trains = False

    def ingress(self, port: int) -> LinkSink:
        # Bound once per edge.  The program acts as of the sink's ``time``:
        # the clock, or a stamp ahead of it its lookahead admitted.
        switch = self.switch
        receive = switch.receive

        def switch_ingress(frame_bytes: bytes, time: float) -> None:
            receive(frame_bytes, port, time)

        if self.takes_trains:
            switch_ingress.takes_trains = True  # type: ignore[attr-defined]
            switch_ingress.reach = partial(_reach_port, switch, port)  # type: ignore[attr-defined]
            switch_ingress.cross = partial(_cross_port, switch, port)  # type: ignore[attr-defined]
        return switch_ingress

    def attach(
        self,
        port: int,
        sink: LinkSink,
        timed: bool = False,
        lookahead: Optional[Lookahead] = None,
    ) -> None:
        _guard_reattach(self, self._attached_ports, port)
        self.switch.switch.attach_port(port, sink, timed=timed, lookahead=lookahead)


def _reach_port(switch, port: int, stamps: List[float], clocks, size: int, drawn: bool):
    """A program's ``reach`` for a list that arrives on ``port``."""
    return switch.reach([port] * len(stamps), stamps, clocks, size, drawn)


def _cross_port(switch, port: int, frames: List[bytes], stamps: List[float], keys) -> None:
    """A program's ``receive_batch`` for a train that arrives on ``port``."""
    switch.receive_batch(frames, port, stamps, keys)


class ZipLineEncoderNode(_ZipLineSwitchNode):
    """Graph adapter around a :class:`ZipLineEncoderSwitch`."""

    def _make_switch(self, name: str, **switch_kwargs):
        from repro.zipline.encoder_switch import ZipLineEncoderSwitch

        return ZipLineEncoderSwitch(name=name, **switch_kwargs)


class ZipLineDecoderNode(_ZipLineSwitchNode):
    """Graph adapter around a :class:`ZipLineDecoderSwitch`."""

    takes_trains = True

    def _make_switch(self, name: str, **switch_kwargs):
        from repro.zipline.decoder_switch import ZipLineDecoderSwitch

        return ZipLineDecoderSwitch(name=name, **switch_kwargs)


class ForwardNode(Node):
    """A plain hop: forward frames between ports without modifying them.

    ``forwarding`` maps ingress port to egress port; frames arriving on an
    unmapped port go to ``default_egress_port``.  A frame whose egress port
    has no attached sink is counted as ``no_route`` and dropped — a wiring
    bug surfaces in the counters instead of an exception mid-simulation.
    """

    def __init__(
        self,
        name: str = "forward",
        forwarding: Optional[Dict[int, int]] = None,
        default_egress_port: Optional[int] = None,
    ):
        super().__init__(name)
        self.forwarding = dict(forwarding or {})
        self.default_egress_port = default_egress_port
        self.forwarded = 0
        self.forwarded_bytes = 0
        self.no_route = 0
        self._sinks: Dict[int, LinkSink] = {}

    def attach(
        self,
        port: int,
        sink: LinkSink,
        timed: bool = False,
        lookahead: Optional[Lookahead] = None,
    ) -> None:
        if port in self._sinks:
            raise TopologyError(
                f"node {self.name!r} egress port {port} is already attached"
            )
        self._sinks[port] = sink

    def ingress(self, port: int) -> LinkSink:
        return partial(self._forward, port)

    def _forward(self, port: int, frame_bytes: bytes, time: float) -> None:
        egress = self.forwarding.get(port, self.default_egress_port)
        sink = None if egress is None else self._sinks.get(egress)
        if sink is None:
            self.no_route += 1
            return
        self.forwarded += 1
        self.forwarded_bytes += len(frame_bytes)
        sink(frame_bytes, time)

    def counters(self) -> Dict[str, float]:
        return {
            "forwarded": self.forwarded,
            "forwarded_bytes": self.forwarded_bytes,
            "no_route": self.no_route,
        }
