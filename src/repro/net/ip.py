"""Minimal IPv4 and UDP header construction and parsing.

The DNS workload generator emits well-formed Ethernet/IPv4/UDP/DNS packets
so its pcap output looks like the campus trace the paper filtered.  Only the
features that workload needs are implemented: fixed 20-byte IPv4 headers
(no options), UDP with the standard pseudo-header checksum, and parsing of
both for the round-trip tests.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Tuple

from repro.exceptions import PacketError
from repro.net.checksum import internet_checksum

__all__ = [
    "IPV4_HEADER_BYTES",
    "UDP_HEADER_BYTES",
    "PROTO_UDP",
    "ipv4_address_to_bytes",
    "ipv4_address_to_str",
    "Ipv4Header",
    "UdpHeader",
    "build_udp_packet",
]

IPV4_HEADER_BYTES = 20
UDP_HEADER_BYTES = 8
PROTO_UDP = 17


def ipv4_address_to_bytes(address: str) -> bytes:
    """Convert dotted-quad notation to 4 bytes."""
    parts = address.split(".")
    if len(parts) != 4:
        raise PacketError(f"invalid IPv4 address {address!r}")
    try:
        octets = [int(part) for part in parts]
    except ValueError:
        raise PacketError(f"invalid IPv4 address {address!r}") from None
    if any(not 0 <= octet <= 255 for octet in octets):
        raise PacketError(f"invalid IPv4 address {address!r}")
    return bytes(octets)


def ipv4_address_to_str(address: bytes) -> str:
    """Convert 4 raw bytes to dotted-quad notation."""
    if len(address) != 4:
        raise PacketError(f"IPv4 address requires 4 bytes, got {len(address)}")
    return ".".join(str(octet) for octet in address)


@dataclass(frozen=True)
class Ipv4Header:
    """A fixed-size (no options) IPv4 header."""

    source: str
    destination: str
    payload_length: int
    protocol: int = PROTO_UDP
    ttl: int = 64
    identification: int = 0
    dscp: int = 0

    def to_bytes(self) -> bytes:
        """Serialise the header with a correct checksum."""
        if self.payload_length < 0 or self.payload_length > 0xFFFF - IPV4_HEADER_BYTES:
            raise PacketError(f"invalid IPv4 payload length {self.payload_length}")
        total_length = IPV4_HEADER_BYTES + self.payload_length
        version_ihl = (4 << 4) | 5
        header_without_checksum = struct.pack(
            ">BBHHHBBH4s4s",
            version_ihl,
            self.dscp << 2,
            total_length,
            self.identification,
            0,  # flags/fragment offset
            self.ttl,
            self.protocol,
            0,  # checksum placeholder
            ipv4_address_to_bytes(self.source),
            ipv4_address_to_bytes(self.destination),
        )
        checksum = internet_checksum(header_without_checksum)
        return header_without_checksum[:10] + struct.pack(">H", checksum) + header_without_checksum[12:]

    @classmethod
    def from_bytes(cls, data: bytes) -> Tuple["Ipv4Header", bytes]:
        """Parse a header; returns ``(header, payload)``."""
        if len(data) < IPV4_HEADER_BYTES:
            raise PacketError(f"IPv4 header requires 20 bytes, got {len(data)}")
        version_ihl = data[0]
        if version_ihl >> 4 != 4:
            raise PacketError("not an IPv4 packet")
        ihl = (version_ihl & 0xF) * 4
        if ihl < IPV4_HEADER_BYTES or len(data) < ihl:
            raise PacketError("truncated IPv4 header")
        total_length = struct.unpack(">H", data[2:4])[0]
        protocol = data[9]
        source = ipv4_address_to_str(data[12:16])
        destination = ipv4_address_to_str(data[16:20])
        payload = data[ihl:total_length]
        header = cls(
            source=source,
            destination=destination,
            payload_length=total_length - ihl,
            protocol=protocol,
            ttl=data[8],
            identification=struct.unpack(">H", data[4:6])[0],
        )
        return header, payload


@dataclass(frozen=True)
class UdpHeader:
    """A UDP header; the checksum is computed over the pseudo-header."""

    source_port: int
    destination_port: int
    payload_length: int

    def to_bytes(self, source_ip: str, destination_ip: str, payload: bytes) -> bytes:
        """Serialise the header (with checksum) for the given payload."""
        if len(payload) != self.payload_length:
            raise PacketError(
                f"payload of {len(payload)} bytes does not match declared "
                f"length {self.payload_length}"
            )
        length = UDP_HEADER_BYTES + self.payload_length
        header_no_checksum = struct.pack(
            ">HHHH", self.source_port, self.destination_port, length, 0
        )
        pseudo = (
            ipv4_address_to_bytes(source_ip)
            + ipv4_address_to_bytes(destination_ip)
            + struct.pack(">BBH", 0, PROTO_UDP, length)
        )
        checksum = internet_checksum(pseudo + header_no_checksum + payload)
        if checksum == 0:
            checksum = 0xFFFF
        return struct.pack(
            ">HHHH", self.source_port, self.destination_port, length, checksum
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> Tuple["UdpHeader", bytes]:
        """Parse a UDP datagram; returns ``(header, payload)``."""
        if len(data) < UDP_HEADER_BYTES:
            raise PacketError(f"UDP header requires 8 bytes, got {len(data)}")
        source_port, destination_port, length, _checksum = struct.unpack(
            ">HHHH", data[:UDP_HEADER_BYTES]
        )
        if length < UDP_HEADER_BYTES or len(data) < length:
            raise PacketError("truncated UDP datagram")
        payload = data[UDP_HEADER_BYTES:length]
        return (
            cls(
                source_port=source_port,
                destination_port=destination_port,
                payload_length=length - UDP_HEADER_BYTES,
            ),
            payload,
        )


def build_udp_packet(
    source_ip: str,
    destination_ip: str,
    source_port: int,
    destination_port: int,
    payload: bytes,
    ttl: int = 64,
    identification: int = 0,
) -> bytes:
    """Build a complete IPv4/UDP packet (starting at the IPv4 header)."""
    udp = UdpHeader(
        source_port=source_port,
        destination_port=destination_port,
        payload_length=len(payload),
    )
    udp_bytes = udp.to_bytes(source_ip, destination_ip, payload) + payload
    ipv4 = Ipv4Header(
        source=source_ip,
        destination=destination_ip,
        payload_length=len(udp_bytes),
        ttl=ttl,
        identification=identification,
    )
    return ipv4.to_bytes() + udp_bytes
