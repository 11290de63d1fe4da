"""Byte accounting on the compressed hop.

The Figure 3 experiment measures the total payload bytes that cross the
compressed hop (between the encoding and the decoding switch), classified by
packet type.  :class:`LinkTap` counts them on the topology engine's measured
links; the run's report carries the totals (``wire.*`` counters,
``wire_payload_bytes``, ``learning_time``).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.exceptions import PacketError
from repro.net.ethernet import ETHERNET_HEADER_BYTES, EtherType
from repro.net.packets import PacketKind

__all__ = ["LinkTap"]

#: EtherType wire bytes, bound once for the per-frame classification below.
_TYPE2_ETHERTYPE = int(EtherType.ZIPLINE_UNCOMPRESSED).to_bytes(2, "big")
_TYPE3_ETHERTYPE = int(EtherType.ZIPLINE_COMPRESSED).to_bytes(2, "big")


class LinkTap:
    """Observe every frame crossing a link and keep per-type byte counts.

    The tap sits between the encoding and decoding switches — the network
    hop whose traffic volume ZipLine reduces — and records what the paper's
    counters record: how many packets of each type crossed, and how many
    payload bytes they carried.

    It keeps aggregates only (counts, byte totals, first-arrival times),
    maintained incrementally, so it stays O(1) in memory and builds nothing
    per frame, whatever the run's metrics mode.  Given the entry of the
    edge it sits on (:meth:`attach`), it hands every frame it observed on
    to that entry itself.
    """

    def __init__(self) -> None:
        self._entry: Optional[Callable[[bytes, float], None]] = None
        self._counts: Dict[PacketKind, int] = {kind: 0 for kind in PacketKind}
        self._payload_bytes: Dict[PacketKind, int] = {kind: 0 for kind in PacketKind}
        self._first_times: Dict[PacketKind, float] = {}
        self._total_frames = 0
        self._total_payload_bytes = 0

    def attach(self, entry: Callable[[bytes, float], None]) -> None:
        """Hand every frame :meth:`observe` records on to ``entry(frame, time)``."""
        self._entry = entry

    def observe(self, frame_bytes_raw: bytes, time: float) -> None:
        """Record one frame (raw bytes as transmitted), then hand it to the
        attached entry, if any.

        Classification reads the EtherType straight out of the wire bytes —
        no :class:`~repro.net.ethernet.EthernetFrame` (and its MAC address
        objects) is materialised per frame; the tap sits on every replayed
        packet's path.
        """
        if len(frame_bytes_raw) < ETHERNET_HEADER_BYTES:
            raise PacketError(
                f"frame of {len(frame_bytes_raw)} bytes is shorter than an "
                f"Ethernet header ({ETHERNET_HEADER_BYTES} bytes)"
            )
        ethertype = frame_bytes_raw[12:14]
        if ethertype == _TYPE2_ETHERTYPE:
            kind = PacketKind.PROCESSED_UNCOMPRESSED
        elif ethertype == _TYPE3_ETHERTYPE:
            kind = PacketKind.PROCESSED_COMPRESSED
        else:
            kind = PacketKind.RAW
        payload_bytes = len(frame_bytes_raw) - ETHERNET_HEADER_BYTES
        self._counts[kind] += 1
        self._payload_bytes[kind] += payload_bytes
        self._total_frames += 1
        self._total_payload_bytes += payload_bytes
        if kind not in self._first_times:
            self._first_times[kind] = time
        entry = self._entry
        if entry is not None:
            entry(frame_bytes_raw, time)

    # -- aggregation ---------------------------------------------------------

    def count_by_kind(self) -> Dict[PacketKind, int]:
        """Number of frames per packet type."""
        return dict(self._counts)

    def payload_bytes_by_kind(self) -> Dict[PacketKind, int]:
        """Payload bytes per packet type."""
        return dict(self._payload_bytes)

    def total_payload_bytes(self) -> int:
        """Payload bytes across every frame."""
        return self._total_payload_bytes

    def total_frames(self) -> int:
        """Number of frames observed."""
        return self._total_frames

    def first_time_of_kind(self, kind: PacketKind) -> Optional[float]:
        """Timestamp of the first frame of the given type, or ``None``.

        The dynamic-learning experiment measures the gap between the first
        type-2 and the first type-3 frame arriving at the receiver.
        """
        return self._first_times.get(kind)

    def clear(self) -> None:
        """Reset the aggregates."""
        self._counts = {kind: 0 for kind in PacketKind}
        self._payload_bytes = {kind: 0 for kind in PacketKind}
        self._first_times = {}
        self._total_frames = 0
        self._total_payload_bytes = 0
