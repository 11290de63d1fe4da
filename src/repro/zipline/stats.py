"""Byte accounting on the compressed hop.

The Figure 3 experiment measures the total payload bytes that cross the
compressed hop (between the encoding and the decoding switch), classified by
packet type.  :class:`LinkTap` counts them on the topology engine's measured
links; the run's report carries the totals (``wire.*`` counters,
``wire_payload_bytes``, ``learning_time``).
"""

from __future__ import annotations

from collections import Counter
from operator import itemgetter
from typing import Any, Callable, Dict, List, Optional

from repro.exceptions import PacketError
from repro.net.ethernet import ETHERNET_HEADER_BYTES, EtherType
from repro.net.packets import PacketKind
from repro.sim.lookahead import crossing

__all__ = ["LinkTap"]

#: EtherType wire bytes → packet type, bound once for the per-frame
#: classification below; any other EtherType is a raw frame.
_KINDS = {
    int(EtherType.ZIPLINE_UNCOMPRESSED).to_bytes(2, "big"): PacketKind.PROCESSED_UNCOMPRESSED,
    int(EtherType.ZIPLINE_COMPRESSED).to_bytes(2, "big"): PacketKind.PROCESSED_COMPRESSED,
}

#: A frame's EtherType wire bytes.
_ETHERTYPE = itemgetter(slice(12, 14))


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
        # The entry as a hop that takes a train as lists, if it does.
        self._crossing: Any = None
        self._counts: Dict[PacketKind, int] = {kind: 0 for kind in PacketKind}
        self._payload_bytes: Dict[PacketKind, int] = {kind: 0 for kind in PacketKind}
        self._first_times: Dict[PacketKind, float] = {}
        self._total_frames = 0
        self._total_payload_bytes = 0

    def attach(self, entry: Callable[[bytes, float], None]) -> None:
        """Hand every frame :meth:`observe` records on to ``entry(frame, time)``."""
        self._entry = entry
        self._crossing = crossing(entry)

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
        kind = _KINDS.get(frame_bytes_raw[12:14], PacketKind.RAW)
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

    @property
    def takes_trains(self) -> bool:
        """Whether the attached entry takes trains (see
        :func:`repro.sim.lookahead.crossing`)."""
        return self._crossing is not None

    def reach(
        self, stamps: List[float], clocks: List[float], size: int, drawn: bool
    ) -> int:
        """What the attached entry's ``reach`` says of a list (see
        :func:`repro.sim.lookahead.crossing`): the tap itself takes every frame."""
        if self._crossing is None:
            return 0
        return self._crossing.reach(stamps, clocks, size, drawn)

    def cross(self, frames: List[bytes], stamps: List[float], keys: List[tuple]) -> None:
        """:meth:`observe` a list of frames, frame ``i`` at ``stamps[i]``,
        then hand the list to the attached entry as one."""
        counts = self._counts
        payload = self._payload_bytes
        first_times = self._first_times
        total = 0
        raw = PacketKind.RAW
        # Counted per (EtherType, size) in C; the sums are observe's.
        for (ethertype, size), count in Counter(
            zip(map(_ETHERTYPE, frames), map(len, frames))
        ).items():
            kind = _KINDS.get(ethertype, raw)
            payload_bytes = count * (size - ETHERNET_HEADER_BYTES)
            counts[kind] += count
            payload[kind] += payload_bytes
            total += payload_bytes
            if kind not in first_times:  # once a run per kind
                kinds = [_KINDS.get(frame[12:14], raw) for frame in frames]
                first_times[kind] = stamps[kinds.index(kind)]
        self._total_frames += len(frames)
        self._total_payload_bytes += total
        self._crossing.cross(frames, stamps, keys)

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
