"""Per-flow runtime state: the injection pump and the one FIFO matcher.

A :class:`FlowState` is one flow of a running
:class:`~repro.topology.engine.TopologyEngine`: its traffic source and
pacing, the one-pending-frame injection pump, volume counters, and the
account that verifies its arrivals.

**One matcher.**  :class:`FlowAccount` is the repository's only end-to-end
integrity check: online FIFO content matching, each arrival matched the
moment it happens against the chunks still in flight.  Both metrics modes
run it; they differ only in what is *kept* — ``exact`` gives it an exact
:class:`~repro.replay.metrics.Distribution` (one packed double per matched
chunk), ``streaming`` a bounded sketch.  Neither keeps the arrival frames:
a caller that wants them wraps the sink host's
:attr:`~repro.topology.nodes.HostNode.on_deliver` hook.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Callable, Deque, Dict, Iterable, Optional, Tuple

from repro import obs as _obs
from repro.net.mac import MacAddress
from repro.replay.metrics import Distribution, IntegrityResult, MetricsRegistry
from repro.replay.sources import (
    Pacing,
    PcapTraceSource,
    TraceSource,
    WorkloadTraceSource,
    stream_distinct_bases,
)
from repro.sim.simulator import Simulator
from repro.topology.nodes import HostNode
from repro.topology.report import FlowResult
from repro.topology.spec import FlowSpec
from repro.workloads import WORKLOAD_FACTORIES
from repro.zipline.headers import RAW_CHUNK_ETHERTYPE_BYTES, raw_chunk_payload

__all__ = [
    "FlowAccount",
    "FlowArrivals",
    "FlowState",
    "flow_source",
    "flow_source_mac",
]


def flow_source_mac(index: int) -> MacAddress:
    """Unique locally-administered source MAC for flow ``index``.

    Flows live under ``02:00:00:01:xx:xx``, hosts under ``02:00:00:00:xx:xx``
    — disjoint ranges, so per-flow arrival attribution by source MAC can
    never collide with a host address.
    """
    return MacAddress(0x02_00_00_01_00_00 + index + 1)


def flow_source(
    flow: FlowSpec,
    seed: int,
    order: int,
    source_mac: MacAddress,
    sink_mac: MacAddress,
) -> Tuple[TraceSource, Callable[[], Iterable[int]]]:
    """A flow spec's traffic source and its static-bases callable — the one
    place a spec's trace path or workload name becomes a live object."""
    if flow.trace is not None:
        return PcapTraceSource(flow.trace), partial(
            stream_distinct_bases, flow.trace, order=order
        )
    workload, bases = WORKLOAD_FACTORIES[flow.workload](
        chunks=flow.chunks, bases=flow.bases, names=flow.names, order=order, seed=seed
    )
    source = WorkloadTraceSource(workload, source=source_mac, destination=sink_mac)
    return source, bases


class FlowAccount:
    """Online FIFO content matching into a latency distribution.

    Every sent chunk waits in ``pending`` under its payload bytes; an
    arrival pops the oldest waiting copy of its payload, so memory holds
    only the chunks currently in flight (plus lost ones), never the whole
    stream.  An arrival that matches nothing waiting is ``corrupted``; a
    match older than one already seen is ``out_of_order``.  Matching
    eagerly loses nothing against a pass over the finished run: the link
    model never duplicates frames, so an arrival can never need a copy
    sent *after* it.

    ``latency`` receives one sample per match, in arrival order — exact or
    bounded is the caller's retention choice, not the matcher's.
    """

    def __init__(self, latency: Distribution) -> None:
        self.latency = latency
        self.sent = 0
        self.received = 0
        self.matched = 0
        self.corrupted = 0
        self.out_of_order = 0
        self.highest_index = -1
        self.pending: Dict[bytes, Deque[Tuple[int, float]]] = {}

    def record_sent(self, frame_bytes: bytes, now: float) -> None:
        payload = frame_bytes[14:]
        queue = self.pending.get(payload)
        if queue is None:
            queue = self.pending[payload] = deque()
        queue.append((self.sent, now))
        self.sent += 1

    def record_arrival(self, frame_bytes: bytes, time: float) -> None:
        payload = raw_chunk_payload(frame_bytes)
        if payload is None:
            return
        self.received += 1
        queue = self.pending.get(payload)
        if not queue:
            self.corrupted += 1
            return
        index, sent_time = queue.popleft()
        if not queue:
            del self.pending[payload]
        self.matched += 1
        if index < self.highest_index:
            self.out_of_order += 1
        self.highest_index = max(self.highest_index, index)
        self.latency.add(time - sent_time)

    def integrity(self) -> Optional[IntegrityResult]:
        """The verdict so far (``None`` before any chunk was sent)."""
        if not self.sent:
            return None
        return IntegrityResult(
            sent=self.sent,
            received=self.received,
            matched=self.matched,
            corrupted=self.corrupted,
            missing=self.sent - self.matched,
            out_of_order=self.out_of_order,
        )


class FlowState:
    """Runtime state of one flow: scheduling identity, the injection pump
    and volume counters, with verification delegated to its account.

    ``verified`` gives the flow a :class:`FlowAccount` feeding ``latency``;
    without one it reports ``integrity: None`` and an empty latency.  A
    delivered frame is counted and matched, never kept: what the flow
    retains per chunk is its ``latency`` sample.
    """

    def __init__(
        self,
        spec: FlowSpec,
        seed: int,
        source: TraceSource,
        pacing: Pacing,
        static_bases: Callable[[], Iterable[int]],
        source_mac: MacAddress,
        sink_mac: MacAddress,
        latency: Distribution,
        verified: bool,
    ):
        self.spec = spec
        self.seed = seed
        self.static_bases = static_bases
        self.source_mac_bytes = bytes(source_mac)
        self._own_addresses = bytes(sink_mac) + self.source_mac_bytes
        self.latency = latency
        self.account = FlowAccount(latency) if verified else None
        # Workload sources already frame with the flow's addresses.
        self.use_source(source, pacing, rewrite_addresses=spec.trace is not None)
        self.frames_sent = 0
        self.chunks_sent = 0
        self.chunk_bytes_sent = 0
        self.delivered = 0

    def use_source(
        self, source: TraceSource, pacing: Pacing, rewrite_addresses: bool = True
    ) -> None:
        """Take frames from ``source``, paced by ``pacing``.

        Captures and caller-built sources carry whatever addresses they
        were made with; their Ethernet addresses are rewritten to the
        flow's own identity so arrival attribution by source MAC works for
        every source kind.
        """
        self.source = source
        self.pacing = pacing
        self._mac_rewrite: Optional[bytes] = (
            self._own_addresses if rewrite_addresses else None
        )

    def result(self, metrics: MetricsRegistry) -> FlowResult:
        """This flow's outcome so far; its latency distribution and
        ``flow.<name>.*`` counters are registered in ``metrics``."""
        name = self.spec.name
        latency = metrics.add_distribution(self.latency)
        integrity = None if self.account is None else self.account.integrity()
        metrics.increment(f"flow.{name}.chunks_sent", self.chunks_sent)
        metrics.increment(f"flow.{name}.payload_bytes_sent", self.chunk_bytes_sent)
        metrics.increment(f"flow.{name}.delivered", self.delivered)
        if integrity is not None:
            metrics.increment(f"flow.{name}.missing", integrity.missing)
            metrics.increment(f"flow.{name}.corrupted", integrity.corrupted)
        return FlowResult(
            name=name,
            source=self.source.description,
            seed=self.seed,
            chunks_sent=self.chunks_sent,
            payload_bytes_sent=self.chunk_bytes_sent,
            frames_sent=self.frames_sent,
            delivered=self.delivered,
            integrity=integrity,
            latency={} if latency.empty else latency.summary(),
        )

    # -- injection -------------------------------------------------------------

    def start(self, simulator: Simulator, host: HostNode) -> None:
        """Begin one-pending-frame streaming injection.

        Exactly one frame per flow is ever scheduled, so its bytes live in
        one slot and one method serves every injection event.
        """
        self.pacing.reset()
        self._simulator = simulator
        self._host = host
        self._frames = self.source.frames()
        self._index = 0
        # Nothing pending yet: the first pass only schedules the first frame.
        self._pending = None
        self._inject_pending()

    def _inject_pending(self) -> None:
        """Inject the pending frame, then schedule the next one's event."""
        simulator = self._simulator
        now = simulator.now
        frame = self._pending
        if frame is not None:
            if self._mac_rewrite is not None:
                frame = self._mac_rewrite + frame[12:]  # the flow's own MACs
            self.frames_sent += 1
            if frame[12:14] == RAW_CHUNK_ETHERTYPE_BYTES:
                self.chunks_sent += 1
                self.chunk_bytes_sent += len(frame) - 14
                if self.account is not None:
                    self.account.record_sent(frame, now)
            index = self._index
            self._index = index + 1
            tracer = _obs.TRACER
            if tracer.enabled:
                # Everything the injection triggers synchronously — switch
                # encode, link admission — inherits this chunk's identity;
                # the link re-establishes it for the delivery side of the
                # wire.
                tracer.set_context(self.spec.name, index)
                tracer.instant("flow.inject", self.spec.source)
                try:
                    self._host.inject(frame, now)
                finally:
                    tracer.clear_context()
            else:
                self._host.inject(frame, now)
        timed = next(self._frames, None)
        if timed is None:
            return
        recorded_time, data = timed
        self._pending = data
        at = self.pacing.inject_at(self._index, recorded_time, len(data))
        simulator.schedule_at(
            at if at > now else now, self._inject_pending, "replay:inject"
        )


class FlowArrivals:
    """Attribute every host delivery to the flow that sent it.

    Arrivals are attributed by source MAC, which the ZipLine encode/decode
    path preserves; ``deliver`` is the ``on_deliver`` callback of every
    host (bound to the host's name).
    """

    def __init__(self) -> None:
        self._by_mac: Dict[bytes, FlowState] = {}
        self.unattributed = 0
        self.misdelivered = 0

    def register(self, state: FlowState) -> None:
        self._by_mac[state.source_mac_bytes] = state

    def deliver(self, host_name: str, frame_bytes: bytes, time: float) -> None:
        flow = self._by_mac.get(frame_bytes[6:12])
        if flow is None:
            self.unattributed += 1
            outcome = "unattributed"
        elif flow.spec.sink != host_name:
            # A flow's frame delivered to the wrong host is a routing bug,
            # not a successful arrival: count it, and let the flow's
            # integrity report the chunk as missing.
            self.misdelivered += 1
            outcome = "misdelivered"
        else:
            flow.delivered += 1
            account = flow.account
            if account is not None:
                account.record_arrival(frame_bytes, time)
            outcome = "delivered"
        tracer = _obs.TRACER
        if tracer.enabled:
            args = {"outcome": outcome}
            if outcome == "misdelivered":
                args["flow"] = flow.spec.name
            tracer.instant("flow.arrive", host_name, args=args, ts=time)
