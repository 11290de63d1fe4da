"""Minimal pcap (libpcap classic format) reader and writer.

The paper converts its datasets into pcap traces of Ethernet packets and
replays them through the switch.  The reproduction does the same: the
workload generators can persist traces as standard pcap files (readable by
tcpdump/Wireshark), and the replay machinery can load them back.  Writing produces the classic
little-endian format with the Ethernet link type, in either microsecond or
nanosecond resolution; both endiannesses and both resolutions are accepted
on read.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Tuple, Union

from repro.exceptions import TraceError

__all__ = ["PcapPacket", "PcapWriter", "PcapReader", "write_pcap"]

#: Standard libpcap magic (microsecond resolution, writer-native byte order).
_MAGIC_US = 0xA1B2C3D4
#: Nanosecond-resolution variant of the magic.
_MAGIC_NS = 0xA1B23C4D
#: Link type for Ethernet.
LINKTYPE_ETHERNET = 1

_GLOBAL_HEADER = struct.Struct("<IHHiIII")
_RECORD_HEADER = struct.Struct("<IIII")


@dataclass(frozen=True)
class PcapPacket:
    """One captured packet: a timestamp (seconds, float) and raw bytes."""

    timestamp: float
    data: bytes


class PcapWriter:
    """Write packets into a classic pcap file.

    ``nanosecond=True`` selects the nanosecond-resolution variant of the
    format (magic ``0xA1B23C4D``, as produced by ``tcpdump --nano``); the
    sub-second field of every record then carries nanoseconds instead of
    microseconds.  Readers — including :class:`PcapReader` — detect the
    variant from the magic.

    Timestamps are float64 seconds, so full nanosecond precision is only
    available for timestamps below ~10^7 s (float64 resolves ~238 ns at
    epoch scale).  The replay machinery stamps traces from t = 0, where
    the precision is exact; rewriting epoch-stamped captures keeps the
    classic format's microsecond fidelity.

    Usage::

        with PcapWriter(path) as writer:
            writer.write(timestamp, frame_bytes)
    """

    def __init__(
        self,
        target: Union[str, Path, BinaryIO],
        snaplen: int = 65535,
        nanosecond: bool = False,
    ):
        if snaplen <= 0:
            raise TraceError(f"snaplen must be positive, got {snaplen}")
        self._snaplen = snaplen
        self._nanosecond = nanosecond
        self._fraction_scale = 1_000_000_000 if nanosecond else 1_000_000
        self._owns_handle = isinstance(target, (str, Path))
        self._handle: BinaryIO = (
            open(target, "wb") if self._owns_handle else target  # type: ignore[arg-type]
        )
        self._write_global_header()

    def _write_global_header(self) -> None:
        header = _GLOBAL_HEADER.pack(
            _MAGIC_NS if self._nanosecond else _MAGIC_US,
            2,  # version major
            4,  # version minor
            0,  # thiszone
            0,  # sigfigs
            self._snaplen,
            LINKTYPE_ETHERNET,
        )
        self._handle.write(header)

    def write(self, timestamp: float, data: bytes) -> None:
        """Append one packet record."""
        if timestamp < 0:
            raise TraceError(f"timestamp must be non-negative, got {timestamp}")
        seconds = int(timestamp)
        fraction = int(round((timestamp - seconds) * self._fraction_scale))
        if fraction >= self._fraction_scale:
            seconds += 1
            fraction -= self._fraction_scale
        captured = data[: self._snaplen]
        self._handle.write(
            _RECORD_HEADER.pack(seconds, fraction, len(captured), len(data))
        )
        self._handle.write(captured)

    def write_packets(self, packets: Iterable[PcapPacket]) -> int:
        """Append many packets; returns how many were written."""
        count = 0
        for packet in packets:
            self.write(packet.timestamp, packet.data)
            count += 1
        return count

    def close(self) -> None:
        """Flush and close the underlying file (if owned)."""
        self._handle.flush()
        if self._owns_handle:
            self._handle.close()

    def __enter__(self) -> "PcapWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class PcapReader:
    """Read packets from a pcap file (classic format, either endianness)."""

    def __init__(self, source: Union[str, Path, BinaryIO]):
        self._owns_handle = isinstance(source, (str, Path))
        self._handle: BinaryIO = (
            open(source, "rb") if self._owns_handle else source  # type: ignore[arg-type]
        )
        self._byte_order, self._nanoseconds, self.link_type = self._read_global_header()

    def _read_global_header(self) -> Tuple[str, bool, int]:
        raw = self._handle.read(_GLOBAL_HEADER.size)
        if len(raw) != _GLOBAL_HEADER.size:
            raise TraceError("pcap file too short to contain a global header")
        (magic,) = struct.unpack("<I", raw[:4])
        if magic in (_MAGIC_US, _MAGIC_NS):
            byte_order = "<"
        else:
            (magic_be,) = struct.unpack(">I", raw[:4])
            if magic_be not in (_MAGIC_US, _MAGIC_NS):
                raise TraceError(f"unrecognised pcap magic 0x{magic:08x}")
            magic = magic_be
            byte_order = ">"
        nanoseconds = magic == _MAGIC_NS
        fields = struct.unpack(byte_order + "IHHiIII", raw)
        link_type = fields[6]
        return byte_order, nanoseconds, link_type

    def __iter__(self) -> Iterator[PcapPacket]:
        record = struct.Struct(self._byte_order + "IIII")
        divisor = 1_000_000_000 if self._nanoseconds else 1_000_000
        while True:
            header = self._handle.read(record.size)
            if not header:
                break
            if len(header) != record.size:
                raise TraceError("truncated pcap record header")
            seconds, fraction, captured_length, _original_length = record.unpack(header)
            data = self._handle.read(captured_length)
            if len(data) != captured_length:
                raise TraceError("truncated pcap packet data")
            yield PcapPacket(timestamp=seconds + fraction / divisor, data=data)

    def close(self) -> None:
        """Close the underlying file (if owned)."""
        if self._owns_handle:
            self._handle.close()

    def __enter__(self) -> "PcapReader":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def write_pcap(
    path: Union[str, Path],
    packets: Iterable[PcapPacket],
    snaplen: int = 65535,
    nanosecond: bool = False,
) -> int:
    """Write an iterable of packets to ``path``; returns the packet count."""
    with PcapWriter(path, snaplen=snaplen, nanosecond=nanosecond) as writer:
        return writer.write_packets(packets)
