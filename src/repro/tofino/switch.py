"""The switch chassis: ports, transmit and the digest path.

:class:`TofinoSwitch` models the part of the Wedge100BF-32X that the
experiments interact with: 32 front-panel 100 GbE ports with per-port
counters, the :meth:`TofinoSwitch.transmit` that hands a frame to whatever
is attached to an egress port, a digest path towards the control plane,
and the accounting record of the pipeline it hosts.  The chassis runs no
program itself: a ZipLine program (:mod:`repro.zipline`) receives a frame,
counts it at its ingress port and ends in :meth:`TofinoSwitch.transmit`.

Timing uses the shared discrete-event simulator when one is attached: the
pipeline latency is added between ingress and delivery.  It rides on the
frame's timestamp when it can — a port whose sink honours its ``time``
argument gets the frame at once, stamped ``time + latency``, within the
simulator's run horizon, and so does a port into a switch program whose
lookahead admits that stamp — and costs a transmit event otherwise.  Without a
simulator the switch degrades gracefully to an immediate, functional-only
mode, which is what most unit tests use.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import repeat
from math import inf
from operator import add
from typing import Any, Callable, Dict, List, Optional

from repro import obs as _obs
from repro.exceptions import PipelineError
from repro.sim.lookahead import Lookahead, crossing
from repro.sim.simulator import Simulator
from repro.tofino.digest import DigestEngine
from repro.tofino.pipeline import Pipeline

__all__ = ["PortStats", "TofinoSwitch"]

#: Number of front-panel ports on the modelled switch (Wedge100BF-32X).
DEFAULT_PORT_COUNT = 32

PortSink = Callable[[bytes, float], None]


@dataclass
class PortStats:
    """Per-port packet and byte counters."""

    rx_packets: int = 0
    rx_bytes: int = 0
    tx_packets: int = 0
    tx_bytes: int = 0


class TofinoSwitch:
    """A programmable switch chassis: ports + digest engine + pipeline record.

    Parameters
    ----------
    name:
        Switch name (used in reports and error messages).
    pipeline:
        The accounting record (latency, resources, pass counters) of the
        program the switch hosts.
    simulator:
        Optional shared simulator; enables latency modelling and timed digest
        delivery.
    port_count:
        Number of front-panel ports.
    """

    def __init__(
        self,
        name: str,
        pipeline: Pipeline,
        simulator: Optional[Simulator] = None,
        port_count: int = DEFAULT_PORT_COUNT,
        digest_engine: Optional[DigestEngine] = None,
    ):
        if port_count <= 0:
            raise PipelineError(f"port count must be positive, got {port_count}")
        self.name = name
        self.pipeline = pipeline
        self.simulator = simulator
        self.port_count = port_count
        self.digest_engine = digest_engine or DigestEngine(simulator)
        self._sinks: Dict[int, PortSink] = {}
        # Per attached port, the clock a frame must be received after to
        # skip the transmit event: +inf for a sink that ignores ``time``,
        # else the stamp of the port's last scheduled transmit (-inf before
        # one), so no frame overtakes one still waiting for its event.
        self._holds: Dict[int, float] = {}
        # Per port that feeds a switch program as its only data input: the
        # program's lookahead (see ``attach_port``).
        self._lookaheads: Dict[int, Lookahead] = {}
        # Per attached port, the hop behind its sink that takes a train as
        # lists (``None`` when it takes frames one at a time).
        self._crossings: Dict[int, Any] = {}
        self._port_stats: Dict[int, PortStats] = {
            port: PortStats() for port in range(port_count)
        }
        # Transmit-event descriptions, formatted once per port, not per frame.
        self._tx_labels = [f"{name}:tx:{port}" for port in range(port_count)]

    # -- wiring ---------------------------------------------------------------

    def attach_port(
        self,
        port: int,
        sink: PortSink,
        timed: bool = False,
        lookahead: Optional[Lookahead] = None,
    ) -> None:
        """Attach a receiver callback to an egress port.

        ``sink(frame_bytes, time)`` is called whenever the switch transmits
        on that port.  ``timed`` says the sink honours ``time`` — it acts
        as of that instant whatever the simulator's clock reads — so the
        switch may call it as soon as the frame leaves the program, stamped
        with the end of the pipeline latency.  An untimed sink (the
        default) is called from a transmit event at that instant, unless
        it feeds a switch program whose ``lookahead`` admits the stamp.
        """
        self._check_port(port)
        if not callable(sink):
            raise PipelineError("port sink must be callable")
        self._sinks[port] = sink
        self._crossings[port] = crossing(sink)
        self._holds[port] = -inf if timed else inf
        if lookahead is None:
            self._lookaheads.pop(port, None)
        else:
            self._lookaheads[port] = lookahead

    def _port_error(self, port: int) -> PipelineError:
        return PipelineError(
            f"{self.name}: port {port} out of range [0, {self.port_count})"
        )

    def _check_port(self, port: int) -> None:
        if not 0 <= port < self.port_count:
            raise self._port_error(port)

    # -- data path ----------------------------------------------------------------

    def transmit(
        self, port: int, frame: bytes, latency: float, time: Optional[float] = None
    ) -> None:
        """Deliver ``frame`` on ``port`` ``latency`` after ``time``.

        ``time`` is the instant the frame entered the program (the clock
        when ``None``); a program's receive ends here.  A timed port's sink
        is called now with the stamp ``time + latency`` when that is within
        the simulator's :attr:`~repro.sim.simulator.Simulator.horizon` and no
        earlier frame of the port still waits for its transmit event; so is
        a port into a switch program whose lookahead admits the stamp;
        otherwise a transmit event calls the sink at that instant.  The
        latency is the program's constant, so frames leave a port in the
        order they arrived either way.
        """
        stats = self._port_stats.get(port)
        if stats is None:
            raise self._port_error(port)
        stats.tx_packets += 1
        stats.tx_bytes += len(frame)
        sink = self._sinks.get(port)
        if sink is None:
            return
        simulator = self.simulator
        if simulator is None:
            sink(frame, 0.0)
            return
        now = simulator.now
        deliver_at = (now if time is None else time) + latency
        hold = self._holds[port]
        if hold < now <= deliver_at <= simulator.horizon:
            if deliver_at > simulator.latest_stamp:
                simulator.latest_stamp = deliver_at
            sink(frame, deliver_at)
            return
        lookahead = self._lookaheads.get(port)
        if lookahead is not None:
            if lookahead.admits(deliver_at):
                sink(frame, deliver_at)
                return
            # No later frame of the port may overtake this one's event.
            if deliver_at > lookahead.hold:
                lookahead.hold = deliver_at
        if hold != inf:
            self._holds[port] = deliver_at
        tracer = _obs.TRACER
        if tracer.enabled:
            # Carry the current chunk identity across the deferred delivery
            # so everything downstream of this switch (next link, decoder,
            # sink) stays attributed to the frame that traversed it.
            deliver = partial(
                self._deliver_traced, sink, frame, deliver_at, tracer.context
            )
        else:
            deliver = partial(sink, frame, deliver_at)
        # A negative latency puts ``deliver_at`` in the past, which
        # ``schedule_at`` rejects.
        simulator.schedule_at(deliver_at, deliver, description=self._tx_labels[port])

    def takes_trains(self, port: int) -> bool:
        """Whether the sink attached to ``port`` takes a train as lists."""
        return self._crossings.get(port) is not None

    def reach(
        self,
        port: int,
        latency: float,
        times: List[float],
        clocks: List[float],
        size: int,
        drawn: bool,
    ) -> int:
        """How many leading frames of a list :meth:`transmit_batch` would
        hand on through ``port``, and every hop after it would take, without
        an event of their own.

        Frame ``i`` entered the program at ``times[i]``, in the event at
        ``clocks[i]``; none is longer than ``size`` bytes; ``drawn`` says a
        link upstream already took the frames' sequence draws.  Each frame
        is judged as :meth:`transmit` would judge it at its own clock.
        Changes nothing.
        """
        hop = self._crossings.get(port)
        simulator = self.simulator
        if hop is None or simulator is None:
            return 0
        stamps = []
        hold = self._holds[port]
        if hold == inf:
            lookahead = self._lookaheads.get(port)
            if lookahead is None:
                return 0
            stamps = list(map(add, times, repeat(latency)))
            count = lookahead.admitted(stamps, clocks)
        else:
            horizon = simulator.horizon
            for time, clock in zip(times, clocks):
                stamp = time + latency
                if not hold < clock <= stamp <= horizon:
                    break
                stamps.append(stamp)
            count = len(stamps)
        if not count:
            return 0
        return hop.reach(stamps[:count], clocks[:count], size, drawn)

    def transmit_batch(
        self,
        port: int,
        frames: List[bytes],
        latency: float,
        times: List[float],
        keys: List[tuple],
    ) -> None:
        """:meth:`transmit` a list of frames on ``port`` in one call, each
        ``latency`` after the instant in ``times`` it entered the program.

        Only for a list :meth:`reach` said every hop takes: the port's
        sink gets the frames as one list, each stamped with the end of its
        pipeline latency.  ``keys`` travel with the frames (see
        :func:`repro.topology.crossing.cross`).
        """
        stats = self._port_stats[port]
        stats.tx_packets += len(frames)
        stats.tx_bytes += sum(map(len, frames))
        if not frames:
            return
        # ``time + latency`` per frame, in C: the same floats ``reach``
        # judged.
        stamps = list(map(add, times, repeat(latency)))
        simulator = self.simulator
        latest = max(stamps)
        if latest > simulator.latest_stamp:
            simulator.latest_stamp = latest
        self._crossings[port].cross(frames, stamps, keys)

    @staticmethod
    def _deliver_traced(sink: PortSink, frame: bytes, deliver_at: float, context) -> None:
        tracer = _obs.TRACER
        saved = tracer.context
        tracer.restore_context(context)
        try:
            sink(frame, deliver_at)
        finally:
            tracer.restore_context(saved)

    # -- statistics -----------------------------------------------------------------

    def port_stats(self, port: int) -> PortStats:
        """Counters of one port; a port the chassis lacks is a :class:`PipelineError`."""
        stats = self._port_stats.get(port)
        if stats is None:
            raise self._port_error(port)
        return stats
