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

from array import array
from collections import deque
from functools import partial
from heapq import heapify, heappop, heapreplace
from itertools import islice
from math import inf
from operator import itemgetter
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

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
from repro.zipline.encoder_switch import PRIME_THRESHOLD
from repro.zipline.headers import RAW_CHUNK_ETHERTYPE_BYTES

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

#: Most frames one event injects: its train, its own frame first.
#: Measured on ``rack-static-hit`` (``benchmarks/stack/run.py --trace 0``,
#: reference chunks/s, alternating pairs on a shared 2-CPU host): running
#: and fetching frame by frame inside one event gained only +0.2 / +2.9 /
#: +4.7 %; collecting first, then running, +13–18 % without syndrome
#: priming.  Uncapped collection raised ``peak_rss_mb`` from 27.7 to 34.7
#: (+25 %); a cap of 64 gave +14 %, and 256 keeps RSS flat (27.73 →
#: 27.86).
TRAIN_CAP = 256

#: A train entry's frame.
_FRAME = itemgetter(3)

#: Above every sequence number the simulator will ever draw: the first key
#: of a frame a train fetches.
_UNDRAWN = 1 << 62

#: The stop of a train when no event is pending.
_NOTHING_PENDING = (inf, 0)


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

    Every sent chunk waits until it arrives, so memory holds only the
    chunks currently in flight (plus lost ones), never the whole stream.
    An arrival takes the oldest waiting copy of its payload; an arrival
    that matches nothing waiting is ``corrupted``, and a match older than
    one already seen is ``out_of_order``.  Matching eagerly loses nothing
    against a pass over the finished run: the link model never duplicates
    frames, so an arrival can never need a copy sent *after* it.

    The chunks in flight wait in one of two forms, never both at once.
    While every arrival so far took the oldest chunk in flight, they wait
    in send order in ``in_order``, as ``(frame, index, sent at)``, and an
    arrival equal to the oldest of them takes it with one comparison.
    Any other arrival first moves them into ``pending``, the content
    index (``payload -> deque of (index, sent at)``, oldest first), and
    then matches there; sends go to ``pending`` until it empties.  Both
    forms give the same match, so the verdict and every sample are the
    same.

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
        self.in_order: Deque[Tuple[bytes, int, float]] = deque()

    def record_sent(self, frame_bytes: bytes, now: float) -> None:
        """Account one sent chunk.  The injector writes the in-order send
        out itself, and calls this only while ``pending`` is not empty."""
        pending = self.pending
        if pending:
            payload = frame_bytes[14:]
            queue = pending.get(payload)
            if queue is None:
                queue = pending[payload] = deque()
            queue.append((self.sent, now))
        else:
            self.in_order.append((frame_bytes, self.sent, now))
        self.sent += 1

    def record_arrival(self, frame_bytes: bytes, time: float) -> None:
        """Match one arrival at ``time`` (a frame other than a raw chunk is
        not counted).  :meth:`record_arrivals` is the same match over a
        list, written out again: a frame at a time pays no list's cost."""
        if frame_bytes[12:14] != RAW_CHUNK_ETHERTYPE_BYTES:
            return
        self.received += 1
        in_order = self.in_order
        if in_order and in_order[0][0] == frame_bytes:
            # The oldest chunk in flight, so newer than every chunk
            # matched before: never out of order.
            _frame, index, sent_time = in_order.popleft()
        else:
            if in_order:
                self._index_in_flight()
            payload = frame_bytes[14:]
            queue = self.pending.get(payload)
            if not queue:
                self.corrupted += 1
                return
            index, sent_time = queue.popleft()
            if not queue:
                del self.pending[payload]
            if index < self.highest_index:
                self.out_of_order += 1
                index = self.highest_index  # which stays the highest
        self.matched += 1
        self.highest_index = index
        self.latency.add(time - sent_time)

    def record_arrivals(self, arrivals: Sequence[Tuple[bytes, float]]) -> None:
        """:meth:`record_arrival` each ``(frame, time)`` of ``arrivals`` in
        turn; the latency samples go to ``latency`` in one ``extend``, in
        arrival order."""
        samples = array("d")
        in_order = self.in_order
        pending = self.pending
        highest = self.highest_index
        others = corrupted = 0
        for frame, time in arrivals:
            if frame[12:14] != RAW_CHUNK_ETHERTYPE_BYTES:
                others += 1
                continue
            if in_order and in_order[0][0] == frame:
                _frame, highest, sent_time = in_order.popleft()
            else:
                if in_order:
                    self._index_in_flight()
                payload = frame[14:]
                queue = pending.get(payload)
                if not queue:
                    corrupted += 1
                    continue
                index, sent_time = queue.popleft()
                if not queue:
                    del pending[payload]
                if index < highest:
                    self.out_of_order += 1
                else:
                    highest = index
            samples.append(time - sent_time)
        # Every raw chunk is received; each sample is a match.
        self.received += len(arrivals) - others
        self.matched += len(samples)
        self.corrupted += corrupted
        self.highest_index = highest
        if samples:
            self.latency.extend(samples)

    def _index_in_flight(self) -> None:
        """Move the chunks waiting in send order into the content index."""
        pending = self.pending
        for frame, index, sent_time in self.in_order:
            payload = frame[14:]
            queue = pending.get(payload)
            if queue is None:
                queue = pending[payload] = deque()
            queue.append((index, sent_time))
        self.in_order.clear()

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
        # port, the source's frames as its pacing times them, the frames a
        # train took from it but handed back (stamped; ``None`` when there
        # are none), and the sequence of the flow's next frame not
        # injected: drawn when the frame before it was injected.
        self.host: Optional[HostNode] = None
        self.encoder: Any = None
        self.port = 0
        self.frames: Iterator[Tuple[float, bytes]] = iter(())
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

    The injector merges every flow's next frame and keeps one simulator
    event at the first of them.  A frame's sequence is drawn when its
    flow's previous frame is injected, as scheduling that frame's own
    event would draw it (``FlowState.sequence``), so a frame orders
    against every other event — and ties between flows break — exactly as
    one event per frame would.

    The merge orders frames on ``(time, key)``.  A flow's first frame is
    keyed by its sequence.  A frame a train fetches is keyed before its
    sequence is drawn, above every sequence the simulator will draw and
    every key given before it: the order its sequence will be drawn in,
    since the frame before it runs before any frame fetched after it.  So
    the keys order the flows' frames as their sequences do, and a train
    re-keys nothing.

    When the event runs it collects a **train**: its own frame and each
    next one that precedes every pending event and lies within the run's
    horizon, at most :data:`TRAIN_CAP`, fetching each collected flow's
    next frame as it goes; so collecting touches only the flows it
    collects.  A long enough train's frames go to each encoder a host
    feeds directly, to compute their syndromes in one pass
    (:meth:`~repro.zipline.encoder_switch.ZipLineEncoderSwitch.prime_syndromes`).
    Then the train runs: the event's own frame first, then each next one
    as its own event (:meth:`~repro.sim.simulator.Simulator.advance`).
    Before each frame it checks the pending events again, because the
    frame before may have scheduled one that comes first (a refused
    delivery, a digest, a control step), and the run's ``max_events`` may
    stop it; frames a train does not run go back with their keys.  After
    the event's own frame, the leading part of the train that every hop
    takes without an event of its own crosses each hop as one list
    (:func:`~repro.topology.crossing.cross`); the rest runs frame by
    frame.  The steps of one injection are written out in the train and
    its crossing: a call per frame costs more than the lines.
    """

    def __init__(self, simulator: Simulator, flows: List[FlowState], graph: TopologyGraph):
        self._simulator = simulator
        # Read only: the simulator's heap, whose first entry is the next
        # pending event.
        self._queue = simulator._queue
        self._flows = flows
        self._graph = graph
        #: ``(time, key, flow, frame)`` of every flow's next frame.
        self._heap: List[Tuple[float, int, FlowState, bytes]] = []
        #: The key of the next frame a train fetches.
        self._key = _UNDRAWN
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
            state.frames = state.pacing.paced(state.own_frames())
            state.backlog = None
            timed = next(state.frames, None)
            if timed is None:
                continue
            at, frame = timed
            state.sequence = next_sequence()
            heap.append((at if at > now else now, state.sequence, state, frame))
        heapify(heap)
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
            time, _key, state, _frame = heap[0]
            self._simulator.schedule_drawn(time, state.sequence, self._run, INJECT)

    def _run(self) -> None:
        """The injector's event: collect the train that starts with the
        event's own frame, then run it, each frame as its own event."""
        simulator = self._simulator
        heap = self._heap
        queue = self._queue
        horizon = simulator.horizon
        stop = queue[0] if queue else _NOTHING_PENDING
        stop_time = stop[0]
        bound = horizon if horizon < stop_time else stop_time
        # Collect.  A frame keyed at or above ``fetched`` was fetched by
        # this train, so its sequence is drawn after every pending one.
        train: List[Tuple[float, int, FlowState, bytes]] = []
        fetched = key = self._key
        for _ in range(TRAIN_CAP):
            entry = heap[0]
            time = entry[0]
            if time >= bound and (
                time > horizon
                or time > stop_time
                or (
                    time == stop_time
                    and (entry[1] >= fetched or entry[2].sequence > stop[1])
                )
            ):
                break
            train.append(entry)
            state = entry[2]
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
                at, frame = timed
                if at < time:
                    at = time
            heapreplace(heap, (at, key, state, frame))
            key += 1
        self._key = key
        count = len(train)
        # Below the threshold ``prime_syndromes`` primes nothing.
        primed = count >= PRIME_THRESHOLD
        if primed:
            for encoder, fed_by_all in self._encoders:
                encoder.prime_syndromes(
                    map(_FRAME, train)
                    if fed_by_all
                    else [entry[3] for entry in train if entry[2].encoder is encoder]
                )
        # Run: the event's own frame, then each next one as its own event.
        # After the first, the part of the train every hop takes crosses as
        # lists, unless the first scheduled an event that now comes first.
        advance = simulator.advance
        traced = _obs.TRACER.enabled
        crossing = self._crosses and count > FIRST_CROSSING
        frames = iter(train)
        ran = 0
        try:
            for time, _key, state, frame in frames:
                if ran:
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
                    account = state.account
                    if account is not None:
                        if account.pending:
                            account.record_sent(frame, time)
                        else:  # ``FlowAccount.record_sent``'s in-order send
                            account.in_order.append((frame, account.sent, time))
                            account.sent += 1
                if traced:
                    state.inject_traced(frame, time)
                else:
                    state.host.inject(frame, time)
                # The next frame's sequence, drawn even when there is none:
                # only the order of sequences matters.
                state.sequence = next_sequence()
                ran += 1
                if crossing:
                    crossing = False
                    if (queue[0] if queue else _NOTHING_PENDING) is stop:
                        crossed = cross(simulator, train[1 : 1 + FIRST_CROSSING], INJECT)
                        if crossed == FIRST_CROSSING:
                            crossed += cross(simulator, train[1 + crossed :], INJECT)
                        ran += crossed
                        next(islice(frames, crossed, crossed), None)  # skip them
        finally:
            if primed:
                for encoder, _fed_by_all in self._encoders:
                    encoder.drop_primed_syndromes()
        if ran < count:
            self._requeue(train[ran:])
        if heap:
            entry = heap[0]
            simulator.schedule_drawn(entry[0], entry[2].sequence, self._run, INJECT)

    def _requeue(self, rest: List[Tuple[float, int, FlowState, bytes]]) -> None:
        """Give back the frames a train collected but did not run, in
        order, on their keys.

        A flow's first frame not injected goes back to the merge; the ones
        behind it — its other frames in ``rest``, then the frame the train
        fetched after them — wait in its backlog, ahead of anything the
        flow had not fetched.  The rare path of a train (a frame scheduled
        an event that comes first, or ``max_events`` ran out), so it reads
        the whole merge.
        """
        heads: Dict[FlowState, Tuple[float, int, FlowState, bytes]] = {}
        behind: Dict[FlowState, List[Tuple[float, bytes]]] = {}
        for entry in rest:
            state = entry[2]
            if state in heads:
                behind[state].append((entry[0], entry[3]))
            else:
                heads[state] = entry
                behind[state] = []
        heap = self._heap
        merged = list(heads.values())
        for entry in heap:
            if entry[2] in heads:
                behind[entry[2]].append((entry[0], entry[3]))
            else:
                merged.append(entry)
        heap[:] = merged
        heapify(heap)
        for state, frames in behind.items():
            if frames:
                state.backlog = deque(frames + list(state.backlog or ()))


class FlowArrivals:
    """Attribute every host delivery to the flow that sent it.

    Arrivals are attributed by source MAC, which the ZipLine encode/decode
    path preserves; ``deliver`` is the ``on_deliver`` callback of every
    host (bound to the host's name), and :meth:`cross` its list form, which
    :meth:`~repro.topology.nodes.HostNode.cross` calls in its place.
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

    def cross(self, host_name: str, frames: List[bytes], times: List[float]) -> None:
        """:meth:`deliver` ``frames[i]`` at ``times[i]``, untraced, in one
        call: each flow's arrivals are matched as one list, in arrival
        order (:meth:`FlowAccount.record_arrivals`)."""
        lists: Dict[bytes, List[Tuple[bytes, float]]] = {}
        for arrival in zip(frames, times):
            source = arrival[0][6:12]
            got = lists.get(source)
            if got is None:
                lists[source] = [arrival]
            else:
                got.append(arrival)
        for source, arrivals in lists.items():
            flow = self._by_mac.get(source)
            if flow is None:
                self.unattributed += len(arrivals)
            elif flow.spec.sink != host_name:
                self.misdelivered += len(arrivals)
            else:
                flow.delivered += len(arrivals)
                account = flow.account
                if account is not None:
                    if len(arrivals) == 1:  # a wide fan-in's list: one frame a flow
                        account.record_arrival(*arrivals[0])
                    else:
                        account.record_arrivals(arrivals)
