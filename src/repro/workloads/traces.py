"""Trace containers.

A *chunk trace* is the unit the evaluation replays: an ordered list of
fixed-size payload chunks.  Traces can be converted
to and from standard pcap files of Ethernet frames (the paper converts its
datasets "to a pcap trace of Ethernet packets containing the chunks as
payload"), summarised (volume, distinct bases), and replayed through a
:class:`~repro.topology.engine.TopologyEngine` run as a
:class:`~repro.replay.sources.ChunkTraceSource` flow source at a
configurable packet rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Union

from repro.core.transform import GDTransform
from repro.exceptions import TraceError
from repro.net.ethernet import EthernetFrame, EtherType
from repro.net.mac import MacAddress
from repro.net.pcap import PcapPacket, write_pcap

__all__ = ["TraceStats", "ChunkTrace"]

_DEFAULT_SOURCE = MacAddress("02:00:00:00:00:01")
_DEFAULT_DESTINATION = MacAddress("02:00:00:00:00:02")


@dataclass(frozen=True)
class TraceStats:
    """Summary statistics of a chunk trace."""

    chunks: int
    chunk_bytes: int
    total_bytes: int
    distinct_chunks: int
    distinct_bases: Optional[int] = None

    def as_dict(self) -> Dict[str, Optional[int]]:
        """Plain-dict view used by the reporting helpers."""
        return {
            "chunks": self.chunks,
            "chunk_bytes": self.chunk_bytes,
            "total_bytes": self.total_bytes,
            "distinct_chunks": self.distinct_chunks,
            "distinct_bases": self.distinct_bases,
        }


class ChunkTrace:
    """An ordered collection of equally sized payload chunks.

    The trace is the hand-off point between workload generators and the
    replay/compression machinery; it deliberately knows nothing about GD
    except through the optional helpers that take a transform.
    """

    def __init__(self, chunks: Sequence[bytes], name: str = "trace"):
        if not chunks:
            raise TraceError("a trace needs at least one chunk")
        first_len = len(chunks[0])
        if first_len == 0:
            raise TraceError("chunks cannot be empty")
        for index, chunk in enumerate(chunks):
            if len(chunk) != first_len:
                raise TraceError(
                    f"chunk {index} has {len(chunk)} bytes, expected {first_len}"
                )
        self._chunks = [bytes(chunk) for chunk in chunks]
        self._chunk_bytes = first_len
        self.name = name

    # -- basic accessors -----------------------------------------------------

    @property
    def chunks(self) -> List[bytes]:
        """The chunks (copy of the list, chunks themselves are immutable bytes)."""
        return list(self._chunks)

    @property
    def chunk_bytes(self) -> int:
        """Size of each chunk in bytes."""
        return self._chunk_bytes

    @property
    def total_bytes(self) -> int:
        """Total payload volume of the trace."""
        return len(self._chunks) * self._chunk_bytes

    def __len__(self) -> int:
        return len(self._chunks)

    def __iter__(self) -> Iterator[bytes]:
        return iter(self._chunks)

    def __getitem__(self, index: int) -> bytes:
        return self._chunks[index]

    # -- analysis -----------------------------------------------------------------

    def stats(self, transform: Optional[GDTransform] = None) -> TraceStats:
        """Summary statistics, including distinct bases when a transform is given."""
        distinct_bases: Optional[int] = None
        if transform is not None:
            distinct_bases = len(self.distinct_bases(transform))
        return TraceStats(
            chunks=len(self._chunks),
            chunk_bytes=self._chunk_bytes,
            total_bytes=self.total_bytes,
            distinct_chunks=len(set(self._chunks)),
            distinct_bases=distinct_bases,
        )

    def distinct_bases(self, transform: GDTransform) -> List[int]:
        """The set of bases the trace's chunks map to (for static preloading)."""
        if transform.chunk_bytes != self._chunk_bytes:
            raise TraceError(
                f"transform expects {transform.chunk_bytes}-byte chunks, trace has "
                f"{self._chunk_bytes}-byte chunks"
            )
        seen: Dict[int, None] = {}
        for chunk in self._chunks:
            seen.setdefault(transform.split(chunk).basis, None)
        return list(seen)

    # -- pcap round trip --------------------------------------------------------------

    def to_frames(
        self,
        source: MacAddress = _DEFAULT_SOURCE,
        destination: MacAddress = _DEFAULT_DESTINATION,
    ) -> List[EthernetFrame]:
        """Wrap every chunk into a raw-chunk Ethernet frame."""
        return [
            EthernetFrame(
                destination=destination,
                source=source,
                ethertype=EtherType.ZIPLINE_RAW_CHUNK,
                payload=chunk,
            )
            for chunk in self._chunks
        ]

    def to_pcap(
        self,
        path: Union[str, Path],
        packet_rate: float = 1_000_000.0,
        source: MacAddress = _DEFAULT_SOURCE,
        destination: MacAddress = _DEFAULT_DESTINATION,
        nanosecond: bool = False,
    ) -> int:
        """Write the trace as a pcap of Ethernet frames; returns the packet count.

        ``nanosecond`` selects the nanosecond-resolution pcap variant, which
        preserves sub-microsecond inter-packet gaps (a 1 Mpkt/s replay rate
        quantises to nothing under the classic microsecond format).
        """
        if packet_rate <= 0:
            raise TraceError(f"packet rate must be positive, got {packet_rate}")
        interval = 1.0 / packet_rate
        packets = (
            PcapPacket(timestamp=index * interval, data=frame.to_bytes())
            for index, frame in enumerate(self.to_frames(source, destination))
        )
        return write_pcap(path, packets, nanosecond=nanosecond)
