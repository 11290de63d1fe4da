"""What the two ZipLine programs share: one chassis, one parse, one receive.

The encoding and the decoding switch are the same P4 skeleton around a
different ingress control: the same four headers and parse graph, the same
CRC extern and const syndrome → XOR-mask table, the same static forwarding
and the same way of handing the frame a program emitted to its egress port.
:class:`ZipLineSwitchBase` holds that skeleton once.

Each program is compiled, the way the P4 compiler lays it out for the ASIC:
the paper's program reduced to integer arithmetic over the frame bytes,
with what does not depend on the packet — counter cells, per-port
statistics, the const table's masks, header sizes — bound when it is
built.  :meth:`ZipLineSwitchBase.receive` runs it and returns only the
frame it emitted.  The interpreted spelling of the same programs (parse
graph, header objects, table dispatch, deparser) is the test oracle that
every counter, port statistic, table entry and digest of the compiled form
is diffed against.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence

from repro import obs as _obs
from repro.core.transform import GDTransform
from repro.exceptions import PipelineError
from repro.net.ethernet import EtherType
from repro.sim.lookahead import Lookahead
from repro.sim.simulator import Simulator
from repro.tofino.constraints import ResourceUsage
from repro.tofino.counters import NamedCounterSet
from repro.tofino.digest import DigestEngine
from repro.tofino.pipeline import Pipeline
from repro.tofino.switch import TofinoSwitch
from repro.tofino.tables import MatchActionTable
from repro.zipline.headers import RAW_CHUNK_ETHERTYPE_BYTES, ZipLineHeaderSet

__all__ = [
    "ZipLineSwitchBase",
    "ETH_RAW",
    "ETH_TYPE2",
    "ETH_TYPE3",
    "ETHERNET_BYTES",
]

#: The three ZipLine EtherTypes as the two wire bytes the compiled programs
#: compare ``frame[12:14]`` against.
ETH_RAW = RAW_CHUNK_ETHERTYPE_BYTES
ETH_TYPE2 = int(EtherType.ZIPLINE_UNCOMPRESSED).to_bytes(2, "big")
ETH_TYPE3 = int(EtherType.ZIPLINE_COMPRESSED).to_bytes(2, "big")

#: Size of the Ethernet header every frame starts with.
ETHERNET_BYTES = 14


class ZipLineSwitchBase:
    """Chassis, parse, shared accounting and the receive path of both programs.

    Subclasses add their control-plane-managed table (through
    :meth:`_add_mapping_table`) and their ingress control,
    :meth:`_compiled_ingress`.
    """

    def __init__(
        self,
        name: str,
        counter_labels: Sequence[str],
        transform: Optional[GDTransform],
        identifier_bits: int,
        simulator: Optional[Simulator],
        forwarding: Optional[Dict[int, int]],
        default_egress_port: Optional[int],
        digest_engine: Optional[DigestEngine],
        port_count: Optional[int],
    ):
        self._transform = transform or GDTransform(order=8)
        self._identifier_bits = identifier_bits
        self._headers = headers = ZipLineHeaderSet.build(
            self._transform, identifier_bits
        )
        self._simulator = simulator
        #: When an edge may hand this program a frame ahead of the clock
        #: (``None`` without a simulator).
        self.lookahead = None if simulator is None else Lookahead(simulator)

        code = self._transform.code
        self._syndrome_bits = code.m
        #: Passes through the CRC extern programmed with the Hamming
        #: generator polynomial: one per raw chunk encoded and one per
        #: chunk decoded (the §5 line-rate precondition reads it).
        self.crc_invocations = 0
        self.counters = NamedCounterSet(counter_labels)

        pipeline = Pipeline(name=f"{name}-pipeline")
        # The const syndrome → XOR-mask table (Figure 1 ➌, Figure 2 ➎): a
        # perfect Hamming code has an entry for every syndrome, read as
        # ``code.error_masks``.
        pipeline.resources.register(
            ResourceUsage(
                name="syndrome_mask",
                stage=1,
                sram_blocks=pipeline.resources.sram_blocks_for_table(
                    entries=1 << code.m,
                    key_bits=code.m,
                    action_bits=min(code.n, 256),
                ),
                entries=1 << code.m,
            )
        )
        switch_kwargs = {} if port_count is None else {"port_count": port_count}
        self.switch = TofinoSwitch(
            name=name,
            pipeline=pipeline,
            simulator=simulator,
            digest_engine=digest_engine or DigestEngine(simulator),
            **switch_kwargs,
        )
        digests = self.switch.digest_engine.in_flight
        if self.lookahead is not None and digests is not None:
            # A digest in flight reaches the control plane, which may write
            # this program; the queue depth it counts against is the
            # program's own.
            digests.watch(self.lookahead)

        self._forwarding: Dict[int, int] = {}
        for ingress_port, egress_port in (forwarding or {}).items():
            self.set_forwarding(ingress_port, egress_port)
        if default_egress_port is not None:
            self._check_port(default_egress_port)
        self._default_egress_port = default_egress_port

        # Compiled-program constants, read once here instead of through
        # property chains per frame: the code's widths, the pipeline's
        # fixed latency, the counter's cells, the chassis's per-port
        # statistics, the const table's masks and the shortest frame each
        # EtherType's header fits in.  A shorter frame is a parser error.
        self._code_bits = code.n
        self._basis_bits = code.k
        self._pipeline = pipeline
        self._latency = pipeline.pipeline_latency
        self._packet_cells = self.counters.packet_cells
        self._byte_cells = self.counters.byte_cells
        self._rx_stats = {
            port: self.switch.port_stats(port) for port in range(self.switch.port_count)
        }
        self._flip_masks = code.error_masks
        self._min_frame_bytes = {
            ETH_RAW: ETHERNET_BYTES + headers.chunk.total_bytes,
            ETH_TYPE2: ETHERNET_BYTES + headers.type2.total_bytes,
            ETH_TYPE3: ETHERNET_BYTES + headers.type3.total_bytes,
        }

    # -- program construction ---------------------------------------------------

    def _add_mapping_table(
        self, table: MatchActionTable, action_bits: int
    ) -> MatchActionTable:
        """Account the control-plane-managed table against the Tofino budget."""
        tracker = self.switch.pipeline.resources
        tracker.register(
            ResourceUsage(
                name=table.name,
                stage=3,
                sram_blocks=min(
                    tracker.profile.sram_blocks_per_stage,
                    tracker.sram_blocks_for_table(
                        entries=table.size,
                        key_bits=table.key_bits,
                        action_bits=action_bits,
                    ),
                ),
                entries=table.size,
            )
        )
        self._mapping_table = table
        return table

    def _upsert_mapping(
        self,
        table: MatchActionTable,
        key: int,
        action: str,
        params: Dict[str, int],
        ttl: Optional[float] = None,
    ) -> None:
        """Install a control-plane-managed entry, or re-point the one ``key`` has."""
        if table.get_entry(key) is not None:
            table.modify_entry(key, action, params)
        else:
            table.add_entry(key, action, params, ttl=ttl, now=self._now())

    @staticmethod
    def _remove_mapping(table: MatchActionTable, key: int) -> None:
        """Remove a control-plane-managed entry (no-op when absent)."""
        if table.get_entry(key) is not None:
            table.delete_entry(key)

    # -- the ingress control block ------------------------------------------------

    def _compiled_ingress(
        self, frame: bytes, ethertype: bytes, length: int, now: float
    ) -> Optional[bytes]:
        """The program's ingress control over the frame bytes: the output,
        ``None`` to drop.

        Only called with a frame long enough for the header its EtherType
        announces.  Counts the frame and emits its digests itself.
        """
        raise NotImplementedError

    def _ingress_batch(
        self,
        frames: List[bytes],
        times: List[float],
        contexts: Optional[List[object]],
        splits: Optional[list] = None,
    ) -> List[Optional[bytes]]:
        """The ingress control over a list, frame ``i`` reaching the program
        at ``times[i]``: the output of each frame it ran, ``None`` for one
        dropped.

        Counts every frame's parse error and counter cells itself;
        ``contexts[i]`` is the trace context of frame ``i``.  A program
        whose miss emits a digest stops before the first frame its mapping
        table would miss, so it runs a leading part of the list only.
        ``splits`` is what the encoder's ``leading_hits`` worked out for
        the leading frames (``None`` on the decoder, which judges nothing
        ahead).
        """
        raise NotImplementedError

    def _now(self) -> float:
        return self._simulator.now if self._simulator is not None else 0.0

    def _span(self, name: str, now: float, args: Dict[str, object]) -> None:
        """Trace one pass through the program (callers check ``enabled``)."""
        _obs.TRACER.span(
            name, self.switch.name, now, now + self._latency, args=args
        )

    # -- control-plane interface ---------------------------------------------------

    def _check_field(self, what: str, value: object, bits: int) -> None:
        """Reject a table write the data plane could not put on the wire.

        Table writes arrive deserialised from control frames, so they are
        validated here once rather than on every packet that hits them.
        """
        if not isinstance(value, int) or not 0 <= value < 1 << bits:
            raise PipelineError(
                f"{self.switch.name}: {what} {value!r} is not a {bits}-bit "
                "unsigned integer"
            )

    def _check_port(self, port: int) -> None:
        if not isinstance(port, int) or not 0 <= port < self.switch.port_count:
            raise PipelineError(
                f"{self.switch.name}: port {port!r} out of range "
                f"[0, {self.switch.port_count})"
            )

    def set_forwarding(self, ingress_port: int, egress_port: int) -> None:
        """Add or change a static forwarding entry."""
        self._check_port(ingress_port)
        self._check_port(egress_port)
        self._forwarding[ingress_port] = egress_port

    # -- convenience -----------------------------------------------------------------

    @property
    def transform(self) -> GDTransform:
        """The GD transform the program was built with."""
        return self._transform

    @property
    def headers(self) -> ZipLineHeaderSet:
        """The header set (payload sizes) of the program."""
        return self._headers

    @property
    def pipeline(self) -> Pipeline:
        """The underlying pipeline."""
        return self._pipeline

    @property
    def mapping_table(self) -> MatchActionTable:
        """The table the control plane writes: basis → identifier on the
        encoder, identifier → basis on the decoder."""
        return self._mapping_table

    @property
    def simulator(self) -> Optional[Simulator]:
        """The shared simulator this switch schedules against (if any)."""
        return self._simulator

    # -- data path ---------------------------------------------------------------------

    def receive(
        self, frame: bytes, ingress_port: int, time: Optional[float] = None
    ) -> Optional[bytes]:
        """Run one frame through the compiled program.

        ``time`` is the instant the frame reaches the program — the
        simulator's clock when ``None``; an edge whose
        :class:`~repro.sim.lookahead.Lookahead` admitted the frame passes
        its delivery stamp, ahead of the clock.  Table hit metadata, digests,
        trace spans and the egress hand-off (``time`` plus the pipeline
        latency) all take their time from it.

        Returns the frame the program emitted — handed to the egress port
        through :meth:`TofinoSwitch.transmit` — or ``None`` when it dropped
        the frame.  An ingress port the chassis does not have raises its
        :class:`PipelineError` before anything is counted.  Every other
        frame counts one pass at its port and in the pipeline; a frame too
        short for the header its EtherType announces is a parser error,
        counted in ``parse_errors`` and dropped, whatever the time.
        """
        length = len(frame)
        # PortStats is always truthy: only a port the chassis lacks reaches
        # ``port_stats``, which raises the chassis's out-of-range error.
        stats = self._rx_stats.get(ingress_port) or self.switch.port_stats(ingress_port)
        stats.rx_packets += 1
        stats.rx_bytes += length
        pipeline = self._pipeline
        pipeline.packets_processed += 1
        ethertype = frame[12:14]
        if length < self._min_frame_bytes.get(ethertype, ETHERNET_BYTES):
            pipeline.parse_errors += 1
            pipeline.packets_dropped += 1
            return None
        if time is None:
            time = self._now()
        out = self._compiled_ingress(frame, ethertype, length, time)
        if out is None:
            pipeline.packets_dropped += 1
            return None
        # Forwarding and the egress sink stay late-bound: ``set_forwarding``
        # and ``attach_port`` apply to the next frame.
        self.switch.transmit(
            self._forwarding.get(ingress_port, self._default_egress_port),
            out,
            self._latency,
            time,
        )
        return out

    def receive_batch(
        self,
        frames: List[bytes],
        ingress_port: int,
        times: List[float],
        keys: List[tuple],
    ) -> List[Optional[bytes]]:
        """Run a train's list of frames arriving on ``ingress_port`` through
        the compiled program in one call: what :meth:`receive` returns for
        each frame it ran, in order.

        Only for a list :meth:`reach` said every hop after the program
        takes.  ``times[i]`` is the instant frame ``i`` reaches the
        program; ``keys`` travel with the frames (see
        :func:`repro.topology.crossing.cross`).  The compiled ingress runs
        over the list first (:meth:`ingress_batch`: table, counter cells
        and primed syndromes bound once, port and pipeline statistics once
        per list), then the outputs leave through the egress port as one
        list (:meth:`hand_on`).  On the encoder the ingress stops before
        the first frame its table misses, so the list returned may be
        shorter than ``frames``; the caller runs the rest through
        :meth:`receive`.  An ingress port the chassis does not have raises
        before anything is counted.
        """
        outs = self.ingress_batch(
            frames, [ingress_port] * len(frames), times, [key[3] for key in keys]
        )
        ran = len(outs)
        self.hand_on(ingress_port, outs, times[:ran], keys[:ran])
        return outs

    def ingress_batch(
        self,
        frames: List[bytes],
        ports: List[int],
        times: List[float],
        contexts: Optional[List[object]] = None,
        splits: Optional[list] = None,
    ) -> List[Optional[bytes]]:
        """The compiled ingress over a list, frame ``i`` arriving on
        ``ports[i]`` at ``times[i]``: the output of each frame, ``None``
        where the program dropped it, without handing any on.

        Counts each frame at its port and in the pipeline as
        :meth:`receive` does.  The encoder stops before the first frame its
        mapping table would miss — a learn digest's event must find the
        frames after it not yet run — so the list it returns may be
        shorter than ``frames``; ``contexts`` are the frames' trace
        contexts, and ``splits`` what its ``leading_hits`` returned for the
        leading frames, taken instead of splitting their chunks again.
        """
        rx_stats = self._rx_stats
        for port in dict.fromkeys(ports):
            if port not in rx_stats:
                self.switch.port_stats(port)  # the chassis's out-of-range error
        outs = self._ingress_batch(frames, times, contexts, splits)
        count = len(outs)
        # Counted per (port, frame size) in C; the sums are receive's.
        for (port, size), packets in Counter(zip(ports[:count], map(len, frames))).items():
            stats = rx_stats[port]
            stats.rx_packets += packets
            stats.rx_bytes += packets * size
        pipeline = self._pipeline
        pipeline.packets_processed += count
        pipeline.packets_dropped += outs.count(None)
        return outs

    def reach(
        self,
        ports: List[int],
        times: List[float],
        clocks: List[float],
        size: int,
        drawn: bool,
    ) -> int:
        """How many leading frames of a list — frame ``i`` arriving on
        ``ports[i]`` at ``times[i]``, in the event at ``clocks[i]``, none
        longer than ``size`` bytes — leave through one egress port and
        cross every hop after this program without an event of their own
        (see :meth:`TofinoSwitch.reach`).  Changes nothing.
        """
        forwarding = self._forwarding
        default = self._default_egress_port
        egress = forwarding.get(ports[0], default) if ports else None
        if egress is None:
            return 0
        count = len(ports)
        rx_stats = self._rx_stats
        for port in dict.fromkeys(ports):
            if port not in rx_stats or forwarding.get(port, default) != egress:
                count = min(count, ports.index(port))
        return self.switch.reach(
            egress, self._latency, times[:count], clocks[:count], size + self._growth, drawn
        )

    def crosses_from(self, ingress_port: int) -> bool:
        """Whether frames arriving on ``ingress_port`` may ever cross the
        hops after the program as lists: the sink of its egress port takes
        trains (:func:`repro.sim.lookahead.crossing`)."""
        egress = self._forwarding.get(ingress_port, self._default_egress_port)
        return egress is not None and self.switch.takes_trains(egress)

    def hand_on(
        self,
        ingress_port: int,
        outs: List[Optional[bytes]],
        times: List[float],
        keys: List[tuple],
    ) -> None:
        """Hand what :meth:`ingress_batch` emitted for frames that arrived
        at ``times`` to the egress port of ``ingress_port`` as one list
        (:meth:`TofinoSwitch.transmit_batch`); ``keys`` travel with them."""
        if None in outs:
            kept = [index for index, out in enumerate(outs) if out is not None]
            outs = [outs[index] for index in kept]
            times = [times[index] for index in kept]
            keys = [keys[index] for index in kept]
        self.switch.transmit_batch(
            self._forwarding.get(ingress_port, self._default_egress_port),
            outs,
            self._latency,
            times,
            keys,
        )
