"""Traffic sources for the replay subsystem: where the packets come from.

A :class:`TraceSource` streams plain ``(recorded_time, data)`` pairs — the
timestamp *recorded* with a frame and its raw Ethernet bytes — from a pcap
file, a :class:`~repro.workloads.traces.ChunkTrace`, or a workload generator,
without ever materialising the whole trace in memory.  A :class:`Pacing`
policy then maps that stream to ``(inject_at, frame)`` pairs, *injection*
times on the simulator clock:

* :class:`RecordedPacing` — replay with the inter-packet gaps of the
  capture (optionally sped up / slowed down), the way the paper replays
  its converted dataset pcaps;
* :class:`FixedRatePacing` — a constant rate in packets per second or in
  offered bits per second of wire occupancy;
* :class:`BackToBackPacing` — every frame at t = 0, leaving the emulated
  link's serialisation delay as the only spacing (a line-rate stress test).

The split keeps the two concerns orthogonal: any source combines with any
pacing, and the engine's injection pump only reads the ``(inject_at,
frame)`` pairs of :meth:`Pacing.paced`.  A policy holds only its
parameters, so one instance may drive any number of flows and runs.
"""

from __future__ import annotations

from itertools import count, repeat
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Optional, Tuple, Union

from repro.exceptions import PacketError, ReplayError
from repro.net.ethernet import EthernetFrame, frame_wire_bytes
from repro.net.mac import MacAddress
from repro.net.pcap import PcapReader
from repro.workloads.traces import ChunkTrace
from repro.zipline.headers import ETHERTYPE_RAW_CHUNK

__all__ = [
    "Pacing",
    "RecordedPacing",
    "FixedRatePacing",
    "BackToBackPacing",
    "TraceSource",
    "PcapTraceSource",
    "ChunkTraceSource",
    "WorkloadTraceSource",
    "pacing_from_name",
    "stream_distinct_bases",
]

_DEFAULT_SOURCE_MAC = MacAddress("02:00:00:00:00:01")
_DEFAULT_DESTINATION_MAC = MacAddress("02:00:00:00:00:02")
#: A frame with a time: ``(recorded_time, frame)`` or ``(inject_at, frame)``.
_Timed = Tuple[float, bytes]
#: The frame of a timed pair.
_FRAME = itemgetter(1)


# ---------------------------------------------------------------------------
# pacing policies
# ---------------------------------------------------------------------------


class Pacing:
    """Map a trace to injection times on the simulator clock.

    :meth:`paced` takes the source's ``(recorded_time, frame)`` pairs and
    yields ``(inject_at, frame)`` pairs, in trace order and with
    non-decreasing absolute times in seconds.  A policy holds only its
    parameters and each call starts afresh, so one instance may drive any
    number of flows and runs.
    """

    def paced(self, frames: Iterable[_Timed]) -> Iterator[_Timed]:
        raise NotImplementedError


class RecordedPacing(Pacing):
    """Replay with the capture's own inter-packet gaps.

    The first frame is injected at ``start``; every later frame keeps its
    recorded offset from the first, divided by ``speedup`` (2.0 = twice as
    fast as recorded).
    """

    def __init__(self, speedup: float = 1.0, start: float = 0.0):
        if speedup <= 0:
            raise ReplayError(f"speedup must be positive, got {speedup}")
        if start < 0:
            raise ReplayError(f"start time must be non-negative, got {start}")
        self.speedup = speedup
        self.start = start

    def paced(self, frames: Iterable[_Timed]) -> Iterator[_Timed]:
        start = self.start
        speedup = self.speedup
        first: Optional[float] = None
        last = start
        for recorded, frame in frames:
            if first is None:
                first = recorded
            # Captures occasionally carry non-monotonic timestamps; clamp so
            # the simulator never sees time going backwards.
            last = max(start + (recorded - first) / speedup, last)
            yield last, frame


class FixedRatePacing(Pacing):
    """Constant-rate injection, in packets per second or bits per second.

    Exactly one of ``packet_rate`` (packets per second) and
    ``bandwidth_bps`` (offered load as wire bits per second, so frame sizes
    matter) must be given.  Each time is the one before plus a step, the
    running sum a traffic generator's clock keeps.

    >>> pacing = FixedRatePacing(packet_rate=2.0)
    >>> [at for at, _frame in pacing.paced([(0.0, b"a"), (0.0, b"b"), (0.0, b"c")])]
    [0.0, 0.5, 1.0]
    """

    def __init__(
        self,
        packet_rate: Optional[float] = None,
        bandwidth_bps: Optional[float] = None,
        start: float = 0.0,
    ):
        if (packet_rate is None) == (bandwidth_bps is None):
            raise ReplayError(
                "exactly one of packet_rate and bandwidth_bps must be given"
            )
        if packet_rate is not None and packet_rate <= 0:
            raise ReplayError(f"packet rate must be positive, got {packet_rate}")
        if bandwidth_bps is not None and bandwidth_bps <= 0:
            raise ReplayError(f"bandwidth must be positive, got {bandwidth_bps}")
        if start < 0:
            raise ReplayError(f"start time must be non-negative, got {start}")
        self.packet_rate = packet_rate
        self.bandwidth_bps = bandwidth_bps
        self.start = start

    def paced(self, frames: Iterable[_Timed]) -> Iterator[_Timed]:
        if self.packet_rate is not None:
            # ``count`` adds its step to the value before, as a running sum.
            return zip(count(self.start, 1.0 / self.packet_rate), map(_FRAME, frames))
        return self._by_size(frames)

    def _by_size(self, frames: Iterable[_Timed]) -> Iterator[_Timed]:
        bandwidth_bps = self.bandwidth_bps
        at = self.start
        for _recorded, frame in frames:
            yield at, frame
            at = at + frame_wire_bytes(len(frame)) * 8 / bandwidth_bps


class BackToBackPacing(Pacing):
    """Inject every frame at ``start``; the link's queue does the spacing."""

    def __init__(self, start: float = 0.0):
        if start < 0:
            raise ReplayError(f"start time must be non-negative, got {start}")
        self.start = start

    def paced(self, frames: Iterable[_Timed]) -> Iterator[_Timed]:
        return zip(repeat(self.start), map(_FRAME, frames))


def pacing_from_name(
    name: str,
    packet_rate: float = 1_000_000.0,
    speedup: float = 1.0,
    start: float = 0.0,
) -> Pacing:
    """Build a pacing policy from its CLI name.

    ``recorded`` → :class:`RecordedPacing`, ``rate`` →
    :class:`FixedRatePacing` at ``packet_rate``, ``back-to-back`` →
    :class:`BackToBackPacing`; every policy begins injecting at ``start``.
    """
    if name == "recorded":
        return RecordedPacing(speedup=speedup, start=start)
    if name == "rate":
        return FixedRatePacing(packet_rate=packet_rate, start=start)
    if name == "back-to-back":
        return BackToBackPacing(start=start)
    raise ReplayError(
        f"unknown pacing {name!r}; valid: recorded, rate, back-to-back"
    )


# ---------------------------------------------------------------------------
# trace sources
# ---------------------------------------------------------------------------


class TraceSource:
    """A stream of ``(recorded_time, data)`` pairs, one per frame.

    Sources are restartable: every call to :meth:`frames` yields the trace
    from the beginning.  Implementations stream lazily where the backing
    store allows it (pcap files, workload generators), so paper-scale
    traces never have to fit in memory.
    """

    #: Human-readable description for reports.
    description: str = "trace"

    def frames(self) -> Iterator[Tuple[float, bytes]]:
        raise NotImplementedError


class PcapTraceSource(TraceSource):
    """Stream Ethernet frames from a pcap file (either resolution/endianness)."""

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        if not self.path.exists():
            raise ReplayError(f"pcap file {self.path} does not exist")
        self.description = f"pcap:{self.path.name}"

    def frames(self) -> Iterator[Tuple[float, bytes]]:
        with PcapReader(self.path) as reader:
            for packet in reader:
                yield packet.timestamp, packet.data


class ChunkTraceSource(TraceSource):
    """Wrap an in-memory :class:`ChunkTrace` into raw-chunk frames.

    Recorded timestamps are synthesised at ``recorded_rate`` packets per
    second (they only matter under :class:`RecordedPacing`).
    """

    def __init__(
        self,
        trace: ChunkTrace,
        recorded_rate: float = 1_000_000.0,
        source: MacAddress = _DEFAULT_SOURCE_MAC,
        destination: MacAddress = _DEFAULT_DESTINATION_MAC,
    ):
        if recorded_rate <= 0:
            raise ReplayError(f"recorded rate must be positive, got {recorded_rate}")
        self.trace = trace
        self.recorded_rate = recorded_rate
        self._source = source
        self._destination = destination
        self.description = f"chunks:{trace.name}"

    def frames(self) -> Iterator[Tuple[float, bytes]]:
        interval = 1.0 / self.recorded_rate
        # The trace is already in memory; reuse its framing so the wire
        # format cannot diverge from what ChunkTrace.to_pcap writes.
        for index, frame in enumerate(
            self.trace.to_frames(self._source, self._destination)
        ):
            yield index * interval, frame.to_bytes()


class WorkloadTraceSource(TraceSource):
    """Stream chunks straight out of a workload generator (no trace list).

    Any object with an ``iter_chunks()`` method (both workload generators
    provide one) works; chunks are framed lazily, so the source scales to
    paper-sized runs.
    """

    def __init__(
        self,
        workload,
        num_chunks: Optional[int] = None,
        recorded_rate: float = 1_000_000.0,
        source: MacAddress = _DEFAULT_SOURCE_MAC,
        destination: MacAddress = _DEFAULT_DESTINATION_MAC,
    ):
        if not hasattr(workload, "iter_chunks"):
            raise ReplayError(
                f"workload {type(workload).__name__} has no iter_chunks() method"
            )
        if recorded_rate <= 0:
            raise ReplayError(f"recorded rate must be positive, got {recorded_rate}")
        self.workload = workload
        self.num_chunks = num_chunks
        self.recorded_rate = recorded_rate
        self._source = source
        self._destination = destination
        self.description = f"workload:{type(workload).__name__}"

    def frames(self) -> Iterator[Tuple[float, bytes]]:
        interval = 1.0 / self.recorded_rate
        chunks: Iterable[bytes] = (
            self.workload.iter_chunks()
            if self.num_chunks is None
            else self.workload.iter_chunks(self.num_chunks)
        )
        # Every frame of the stream shares one Ethernet header: build and
        # validate it once, then prefix it to each chunk.
        header = EthernetFrame(
            destination=self._destination,
            source=self._source,
            ethertype=ETHERTYPE_RAW_CHUNK,
        ).to_bytes()
        for index, chunk in enumerate(chunks):
            if not isinstance(chunk, (bytes, bytearray)):
                raise PacketError(
                    f"payload must be bytes, got {type(chunk).__name__}"
                )
            yield index * interval, header + chunk


# ---------------------------------------------------------------------------
# trace inspection
# ---------------------------------------------------------------------------


def stream_distinct_bases(trace_path: Union[str, Path], order: int = 8) -> list:
    """Bases of every chunk-carrying frame in a pcap, in one streaming pass.

    Handles raw-chunk (type-1) frames and processed type-2 frames (whose
    payload carries the basis explicitly, so a decoder-only replay of a
    processed trace can preinstall its mappings).  Type-3 frames carry only
    an identifier, so their bases cannot be recovered from the wire.
    Unlike ``ChunkTrace.distinct_bases`` this never materialises the trace,
    so large pcaps stay in bounded memory.  Bases are returned in
    first-appearance order — the order the control plane's
    identifier pool would assign them in, which static preloading must
    reproduce exactly.
    """
    from repro.core.transform import GDTransform
    from repro.exceptions import ReproError
    from repro.net.ethernet import EtherType
    from repro.net.packets import ZipLinePacketCodec
    from repro.zipline.headers import raw_chunk_payload

    transform = GDTransform(order=order)
    codec = ZipLinePacketCodec(transform)
    type2_ethertype = EtherType.ZIPLINE_UNCOMPRESSED.to_bytes(2, "big")
    bases: dict = {}
    chunks = 0
    for _recorded_time, data in PcapTraceSource(trace_path).frames():
        payload = raw_chunk_payload(data)
        if payload is not None and len(payload) == transform.chunk_bytes:
            chunks += 1
            bases.setdefault(transform.split(payload).basis, None)
            continue
        if data[12:14] == type2_ethertype:
            record = codec.unpack_uncompressed(data[14:])
            chunks += 1
            bases.setdefault(record.basis, None)
    if not chunks:
        raise ReproError(
            f"pcap {trace_path} contains no ZipLine chunk or type-2 frames"
        )
    return list(bases)
