"""Ethernet (layer 2) framing.

ZipLine operates directly on Ethernet frames ("we settled on Ethernet-based
framing to provide compatibility with regular Ethernet network cards"), so
the reproduction's traffic is modelled at the same layer.  The
:class:`EthernetFrame` type covers what the data-plane model needs: parsing
and serialising the 14-byte header, EtherType dispatch, minimum-size
padding, and the size accounting (preamble, inter-frame gap, FCS) that the
emulated link's serialisation delay and the Figure 4 packet rates rely on.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.exceptions import PacketError
from repro.net.checksum import ethernet_fcs
from repro.net.mac import MacAddress

__all__ = [
    "EtherType",
    "EthernetFrame",
    "ETHERNET_HEADER_BYTES",
    "ETHERNET_FCS_BYTES",
    "ETHERNET_PREAMBLE_BYTES",
    "ETHERNET_IFG_BYTES",
    "ETHERNET_MIN_FRAME_BYTES",
    "ETHERNET_MAX_STANDARD_PAYLOAD",
    "frame_wire_bytes",
]

#: Destination + source + EtherType.
ETHERNET_HEADER_BYTES = 14
#: Frame check sequence appended to every frame.
ETHERNET_FCS_BYTES = 4
#: Preamble + start-of-frame delimiter transmitted before every frame.
ETHERNET_PREAMBLE_BYTES = 8
#: Minimum inter-frame gap (12 byte times).
ETHERNET_IFG_BYTES = 12
#: Minimum frame size (header + payload + FCS) on the wire.
ETHERNET_MIN_FRAME_BYTES = 64
#: Maximum standard (non-jumbo) payload size.
ETHERNET_MAX_STANDARD_PAYLOAD = 1500


class EtherType:
    """Well-known EtherType values plus the ZipLine experiment-local ones.

    The paper defines three packet types; the reproduction distinguishes
    them on the wire with dedicated EtherTypes drawn from the
    IEEE-reserved "local experimental" range so that unmodified traffic
    (type 1) keeps its original EtherType.
    """

    IPV4 = 0x0800
    ARP = 0x0806
    VLAN = 0x8100
    IPV6 = 0x86DD
    #: A raw chunk ZipLine is to process (type 1, restricted to the
    #: payloads ZipLine processes): :data:`repro.zipline.headers.ETHERTYPE_RAW_CHUNK`.
    ZIPLINE_RAW_CHUNK = 0x88B4
    #: Local experimental EtherType 1: processed, uncompressed (type 2).
    ZIPLINE_UNCOMPRESSED = 0x88B5
    #: Local experimental EtherType 2: processed, compressed (type 3).
    ZIPLINE_COMPRESSED = 0x88B6

    _NAMES = {
        IPV4: "IPv4",
        ARP: "ARP",
        VLAN: "VLAN",
        IPV6: "IPv6",
        ZIPLINE_UNCOMPRESSED: "ZipLine/uncompressed",
        ZIPLINE_COMPRESSED: "ZipLine/compressed",
    }

    @classmethod
    def name(cls, value: int) -> str:
        """Readable name for an EtherType value."""
        return cls._NAMES.get(value, f"0x{value:04x}")


def frame_wire_bytes(frame_bytes: int) -> int:
    """Total link occupancy of a frame of ``frame_bytes`` (header + payload).

    Applies minimum-size padding and adds preamble, FCS and inter-frame gap —
    the denominator of every line-rate computation (link serialisation,
    Figure 4 packet rates).
    """
    if frame_bytes < 0:
        raise PacketError(f"frame size must be non-negative, got {frame_bytes}")
    padded = max(frame_bytes + ETHERNET_FCS_BYTES, ETHERNET_MIN_FRAME_BYTES)
    return padded + ETHERNET_PREAMBLE_BYTES + ETHERNET_IFG_BYTES


@dataclass(frozen=True)
class EthernetFrame:
    """An Ethernet II frame: header fields plus an opaque payload.

    The FCS is not stored; it is computed on demand by :meth:`fcs` and
    appended by :meth:`to_bytes` when requested, mirroring how NICs handle
    it in practice.
    """

    destination: MacAddress
    source: MacAddress
    ethertype: int
    payload: bytes = b""

    def __post_init__(self) -> None:
        if not 0 <= self.ethertype <= 0xFFFF:
            raise PacketError(f"EtherType {self.ethertype:#x} out of range")
        if not isinstance(self.payload, (bytes, bytearray)):
            raise PacketError(
                f"payload must be bytes, got {type(self.payload).__name__}"
            )
        object.__setattr__(self, "payload", bytes(self.payload))
        object.__setattr__(self, "destination", MacAddress(self.destination))
        object.__setattr__(self, "source", MacAddress(self.source))

    # -- sizes ------------------------------------------------------------

    @property
    def payload_bytes(self) -> int:
        """Size of the payload."""
        return len(self.payload)

    # -- serialisation -------------------------------------------------------

    def to_bytes(self, include_fcs: bool = False, pad: bool = False) -> bytes:
        """Serialise the frame.

        ``pad`` zero-pads the payload so the frame (incl. FCS) reaches the
        64-byte Ethernet minimum; ``include_fcs`` appends the computed FCS.
        """
        header = bytes(self.destination) + bytes(self.source) + struct.pack(
            ">H", self.ethertype
        )
        body = header + self.payload
        if pad:
            minimum_without_fcs = ETHERNET_MIN_FRAME_BYTES - ETHERNET_FCS_BYTES
            if len(body) < minimum_without_fcs:
                body = body + b"\x00" * (minimum_without_fcs - len(body))
        if include_fcs:
            body = body + struct.pack(">I", ethernet_fcs(body))
        return body

    @classmethod
    def from_bytes(cls, data: bytes, has_fcs: bool = False) -> "EthernetFrame":
        """Parse a frame from raw bytes.

        When ``has_fcs`` is true, the trailing 4 bytes are stripped (they are
        *not* verified here; the parser model in :mod:`repro.tofino` decides
        what to do with bad frames).
        """
        if has_fcs:
            if len(data) < ETHERNET_HEADER_BYTES + ETHERNET_FCS_BYTES:
                raise PacketError(
                    f"frame of {len(data)} bytes is too short to contain an FCS"
                )
            data = data[:-ETHERNET_FCS_BYTES]
        if len(data) < ETHERNET_HEADER_BYTES:
            raise PacketError(
                f"frame of {len(data)} bytes is shorter than the Ethernet header"
            )
        destination = MacAddress(data[0:6])
        source = MacAddress(data[6:12])
        (ethertype,) = struct.unpack(">H", data[12:14])
        return cls(
            destination=destination,
            source=source,
            ethertype=ethertype,
            payload=data[14:],
        )

    def __repr__(self) -> str:
        return (
            f"EthernetFrame(dst={self.destination}, src={self.source}, "
            f"ethertype={EtherType.name(self.ethertype)}, "
            f"payload={len(self.payload)}B)"
        )
