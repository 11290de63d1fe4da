"""Per-flow runtime state: the injection pump and the one FIFO matcher.

A :class:`FlowState` is one flow of a running
:class:`~repro.topology.engine.TopologyEngine`: its traffic source and
pacing, volume counters, and the account that verifies its arrivals.  One
:class:`FlowInjector` per engine — per shard — injects every flow's
frames, from one pending event, in trains.

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
from heapq import heapify, heappop, heapreplace
from math import inf
from operator import itemgetter
from typing import Any, Callable, Deque, Dict, Iterable, Iterator, List, Optional, Tuple

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
from repro.sim.events import next_sequence
from repro.sim.simulator import Simulator
from repro.topology.crossing import FIRST_CROSSING, cross
from repro.topology.graph import TopologyGraph
from repro.topology.nodes import HostNode, ZipLineEncoderNode
from repro.topology.report import FlowResult
from repro.topology.spec import FlowSpec
from repro.workloads import WORKLOAD_FACTORIES
from repro.zipline.headers import RAW_CHUNK_ETHERTYPE_BYTES, raw_chunk_payload

__all__ = [
    "FlowAccount",
    "FlowArrivals",
    "FlowInjector",
    "FlowState",
    "flow_source",
    "flow_source_mac",
]

#: The description of every injection event.
INJECT = "replay:inject"

#: Most frames one event injects: its own, and the train it collects
#: before it runs them.  Measured on ``rack-static-hit``
#: (``benchmarks/stack/run.py --trace 0``, reference chunks/s, alternating
#: pairs on a shared 2-CPU host): running and fetching frame by frame
#: inside one event gained only +0.2 / +2.9 / +4.7 %; collecting first,
#: then running, +13–18 % without syndrome priming.  Uncapped collection
#: raised ``peak_rss_mb`` from 27.7 to 34.7 (+25 %); a cap of 64 gave
#: +14 %, and 256 keeps RSS flat (27.73 → 27.86).
TRAIN_CAP = 256

#: How many frames an injection event runs one by one, fetching each as
#: it goes, before it collects the rest as a train.  A train costs a fixed
#: ~1,100 bytecodes (it re-keys every flow and hands the encoders the
#: frames to prime), more than a short run between pending events saves,
#: and a run on a learning shape is mostly that short: on the ``--quick``
#: shapes (``scripts/per_packet_profile.py``, exact) 1 / 2 / 4 / 8 / 16
#: read 2,524 / 2,495 / 2,469 / 2,462 / 2,463 bytecodes per chunk on
#: ``fanin-thrash-learn``, 3,459 / 3,429 / 3,408 / 3,401 / 3,402 on
#: ``dns-lossy-multihop`` and 1,691 / 1,692 / 1,694 / 1,697 / 1,705 on the
#: static rack.
ONE_BY_ONE = 8

#: A train entry's frame.
_FRAME = itemgetter(2)

#: Above every sequence number the simulator will ever draw: where a train
#: starts its provisional ones.
_UNDRAWN = 1 << 62


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
    """Runtime state of one flow: scheduling identity, its source as the
    injector reads it, and volume counters, with verification delegated to
    its account.

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
        # What the injector keeps per flow (set by ``FlowInjector.start``):
        # the source host, the encoder it feeds directly and that encoder's
        # port, the source's frame iterator and how many frames it gave,
        # the frames a train took from it but handed back (stamped;
        # ``None`` when there are none), and the sequence of the flow's
        # next frame while a train runs.
        self.host: Optional[HostNode] = None
        self.encoder: Any = None
        self.port = 0
        self.frames: Iterator[Tuple[float, bytes]] = iter(())
        self.fetched = 0
        self.backlog: Optional[Deque[Tuple[float, bytes]]] = None
        self.sequence = 0

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
        self._rewrite = rewrite_addresses

    def own_frames(self) -> Iterator[Tuple[float, bytes]]:
        """The source's frames, carrying the flow's own addresses."""
        frames = self.source.frames()
        if not self._rewrite:
            return frames
        addresses = self._own_addresses
        return ((recorded, addresses + frame[12:]) for recorded, frame in frames)

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

    def inject_traced(self, frame: bytes, time: float) -> None:
        """Inject ``frame`` at ``time`` while a tracer is on: everything the
        injection triggers synchronously — switch encode, link admission —
        inherits this chunk's identity; the link re-establishes it for the
        delivery side of the wire."""
        tracer = _obs.TRACER
        tracer.set_context(self.spec.name, self.frames_sent - 1)
        tracer.instant("flow.inject", self.spec.source)
        try:
            self.host.inject(frame, time)
        finally:
            tracer.clear_context()


class FlowInjector:
    """One shard's injection pump: its flows' next frames behind one event.

    The injector merges every flow's next frame on its ``(time,
    sequence)`` key and keeps one simulator event at the first of them.
    A frame's sequence is drawn when its flow's previous frame is injected,
    as scheduling that frame's own event would draw it, so a frame orders
    against every other event — and ties between flows break — exactly as
    one event per frame would.

    When the event runs it injects its frame.  While the next frame still
    orders before every pending event and lies within the run's horizon,
    it injects that one too, each as its own event
    (:meth:`~repro.sim.simulator.Simulator.advance`), fetching as it goes;
    after :data:`ONE_BY_ONE` of them, a **train** follows.  The injector
    collects such frames — at most :data:`TRAIN_CAP` per event, the
    event's own and the ones before included — hands each encoder a host
    feeds directly the frames it will receive, to compute their syndromes
    in one pass
    (:meth:`~repro.zipline.encoder_switch.ZipLineEncoderSwitch.prime_syndromes`),
    then runs them one after another, each as its own event.  Before each
    frame it checks the pending events again, because the frame before may
    have scheduled one that comes first (a refused delivery, a digest, a
    control step), and the run's ``max_events`` may stop it; frames a train
    does not run go back with their keys.  The leading part of a train
    that every hop takes without an event of its own crosses each hop as
    one list (:func:`~repro.topology.crossing.cross`); the rest runs frame
    by frame.  The steps of one injection are written out in the
    one-by-one path, the train and its crossing: a call per frame costs
    more than the lines.
    """

    def __init__(self, simulator: Simulator, flows: List[FlowState], graph: TopologyGraph):
        self._simulator = simulator
        # Read only: the simulator's heap, whose first entry is the next
        # pending event.
        self._queue = simulator._queue
        self._flows = flows
        self._graph = graph
        #: ``(time, sequence, flow, frame)`` of every flow's next frame.
        self._heap: List[Tuple[float, int, FlowState, bytes]] = []
        self._single = False
        #: Every encoder a flow's host feeds by a direct edge, and whether
        #: every flow's host does.
        self._encoders: List[Tuple[Any, bool]] = []
        #: Whether some flow's frames may cross the hops after its encoder
        #: as lists (:func:`~repro.topology.crossing.cross`).
        self._crosses = False

    def start(self) -> None:
        """Take every flow's first frame and schedule the first injection."""
        graph = self._graph
        encoders = {
            edge.source: (graph.nodes[edge.target].switch, edge.target_port)
            for edge in graph.edges
            if not edge.links
            and edge.tap is None
            and edge.source_port == 0
            and isinstance(graph.nodes[edge.target], ZipLineEncoderNode)
        }
        now = self._simulator.now
        heap = self._heap
        for state in self._flows:
            state.host = graph.nodes[state.spec.source]
            state.encoder, state.port = encoders.get(state.spec.source, (None, 0))
            state.pacing.reset()
            state.frames = state.own_frames()
            state.backlog = None
            timed = next(state.frames, None)
            if timed is None:
                continue
            recorded, frame = timed
            at = state.pacing.inject_at(0, recorded, len(frame))
            heap.append((at if at > now else now, next_sequence(), state, frame))
        heapify(heap)
        self._single = len(heap) == 1
        fed = [state.encoder for state in self._flows]
        self._encoders = [
            (encoder, fed.count(encoder) == len(fed))
            for encoder in dict.fromkeys(fed)
            if encoder is not None
        ]
        self._crosses = any(
            state.encoder.crosses_from(state.port)
            for state in self._flows
            if state.encoder is not None
        )
        if heap:
            time, sequence = heap[0][0], heap[0][1]
            self._simulator.schedule_drawn(time, sequence, self._run, INJECT)

    def _run(self) -> None:
        """The injector's event: inject the first frame, then each next one
        that precedes every pending event, as its own event — one by one
        for the first few, then as a train."""
        heap = self._heap
        simulator = self._simulator
        queue = self._queue
        time, _sequence, state, frame = heap[0]
        ran = 1
        while True:
            state.frames_sent += 1
            if frame[12:14] == RAW_CHUNK_ETHERTYPE_BYTES:
                state.chunks_sent += 1
                state.chunk_bytes_sent += len(frame) - 14
                if state.account is not None:
                    state.account.record_sent(frame, time)
            if _obs.TRACER.enabled:
                state.inject_traced(frame, time)
            else:
                state.host.inject(frame, time)
            if state.backlog:
                at, frame = state.backlog.popleft()
                if not state.backlog:
                    state.backlog = None
            else:
                timed = next(state.frames, None)
                if timed is None:
                    at = None
                else:
                    recorded, frame = timed
                    # Every frame the flow took is injected by now, so the
                    # count sent is the next one's index.
                    at = state.pacing.inject_at(state.frames_sent, recorded, len(frame))
                    if at < time:
                        at = time
            if at is None:
                if self._single:
                    heap.clear()
                    return
                heappop(heap)
                if not heap:
                    return
            elif self._single:
                heap[0] = (at, next_sequence(), state, frame)
            else:
                heapreplace(heap, (at, next_sequence(), state, frame))
            time, sequence, state, frame = heap[0]
            if queue:
                first = queue[0]
                if time > first[0] or (time == first[0] and sequence > first[1]):
                    simulator.schedule_drawn(time, sequence, self._run, INJECT)
                    return
            if time > simulator.horizon or ran >= TRAIN_CAP:
                simulator.schedule_drawn(time, sequence, self._run, INJECT)
                return
            if ran >= ONE_BY_ONE:
                self._train(TRAIN_CAP - ran)
                return
            if not simulator.advance(time, sequence, INJECT):
                simulator.schedule_drawn(time, sequence, self._run, INJECT)
                return
            ran += 1

    def _train(self, cap: int) -> None:
        """Collect the frames that precede every pending event, then run
        them, each as its own event."""
        simulator = self._simulator
        heap = self._heap
        queue = self._queue
        horizon = simulator.horizon
        if queue:
            first = queue[0]
            stop_time = first[0]
            stop_sequence = first[1]
        else:
            stop_time = inf
            stop_sequence = 0
        for _time, sequence, state, _frame in heap:
            state.sequence = sequence
            # Pacing indexes what the flow took from its source: what it
            # sent, its frame here and the ones a train handed back.
            state.fetched = state.frames_sent + 1 + len(state.backlog or ())
        # Collect.  A frame whose flow's previous frame is collected but not
        # injected yet has no sequence; it merges on a provisional one, above
        # every sequence drawn so far and in the order the real ones will be
        # drawn, which is the order their previous frames run in.
        train: List[Tuple[float, FlowState, bytes]] = []
        provisional = _UNDRAWN
        bound = horizon if horizon < stop_time else stop_time
        for _ in range(cap):
            time, sequence, state, frame = heap[0]
            if time >= bound and (
                time > horizon
                or time > stop_time
                or (time == stop_time and sequence > stop_sequence)
            ):
                break
            train.append((time, state, frame))
            backlog = state.backlog
            if backlog:
                at, frame = backlog.popleft()
                if not backlog:
                    state.backlog = None
            else:
                timed = next(state.frames, None)
                if timed is None:
                    heappop(heap)
                    if not heap:
                        break
                    continue
                recorded, frame = timed
                at = state.pacing.inject_at(state.fetched, recorded, len(frame))
                state.fetched += 1
                if at < time:
                    at = time
            heapreplace(heap, (at, provisional, state, frame))
            provisional += 1
        for encoder, fed_by_all in self._encoders:
            encoder.prime_syndromes(
                map(_FRAME, train)
                if fed_by_all
                else [frame for _time, state, frame in train if state.encoder is encoder]
            )
        # Run.
        advance = simulator.advance
        traced = _obs.TRACER.enabled
        ran = 0
        try:
            if self._crosses and len(train) >= FIRST_CROSSING:
                ran = cross(simulator, train[:FIRST_CROSSING], INJECT)
                if ran == FIRST_CROSSING:
                    ran += cross(simulator, train[ran:], INJECT)
            for time, state, frame in train[ran:]:
                sequence = state.sequence
                if queue:
                    first = queue[0]
                    if time > first[0] or (time == first[0] and sequence > first[1]):
                        break
                if not advance(time, sequence, INJECT):
                    break
                state.frames_sent += 1
                if frame[12:14] == RAW_CHUNK_ETHERTYPE_BYTES:
                    state.chunks_sent += 1
                    state.chunk_bytes_sent += len(frame) - 14
                    if state.account is not None:
                        state.account.record_sent(frame, time)
                if traced:
                    state.inject_traced(frame, time)
                else:
                    state.host.inject(frame, time)
                # The next frame's sequence, drawn even when there is none:
                # only the order of sequences matters.
                state.sequence = next_sequence()
                ran += 1
        finally:
            for encoder, _fed_by_all in self._encoders:
                encoder.drop_primed_syndromes()
        self._requeue(train[ran:])
        if heap:
            head = heap[0]
            simulator.schedule_drawn(head[0], head[1], self._run, INJECT)

    def _requeue(self, rest: List[Tuple[float, FlowState, bytes]]) -> None:
        """Give every flow its next frame back on its real key, after a train.

        ``rest`` are the collected frames the train did not run, in order.
        A flow's first frame not injected carries the sequence its previous
        injection drew (``state.sequence``); the ones behind it wait in its
        backlog, ahead of anything the flow had not collected.
        """
        heads: Dict[FlowState, Tuple[float, bytes]] = {}
        behind: Dict[FlowState, List[Tuple[float, bytes]]] = {}
        pending = [(time, state, frame) for time, _sequence, state, frame in self._heap]
        for time, state, frame in rest + pending:
            if state in heads:
                behind.setdefault(state, []).append((time, frame))
            else:
                heads[state] = (time, frame)
        heap = self._heap
        heap.clear()
        for state, (time, frame) in heads.items():
            heap.append((time, state.sequence, state, frame))
            if state in behind:
                state.backlog = deque(behind[state] + list(state.backlog or ()))
        heapify(heap)


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
