"""Checksums used by the framing layer and the workload generators.

Two algorithms are provided:

* the Ethernet frame check sequence (CRC-32, reflected, as transmitted in
  the last 4 octets of a frame) — reuses the core CRC engine so the same
  code path is exercised by the protocol layer and the coding layer;
* the 16-bit ones'-complement Internet checksum used by IPv4/UDP — needed by
  the DNS workload generator to emit well-formed packets.
"""

from __future__ import annotations

from repro.core.crc import CRC32_ETHERNET, CrcEngine

__all__ = ["ethernet_fcs", "internet_checksum"]

_FCS_ENGINE = CrcEngine(CRC32_ETHERNET)


def ethernet_fcs(frame_without_fcs: bytes) -> int:
    """CRC-32 frame check sequence of an Ethernet frame (header + payload)."""
    return _FCS_ENGINE.compute(frame_without_fcs)


def internet_checksum(data: bytes) -> int:
    """RFC 1071 ones'-complement checksum over 16-bit words.

    Odd-length input is implicitly padded with a zero byte, as the RFC
    specifies.  Returns the checksum ready to be stored in a header field
    (i.e. already complemented).
    """
    if len(data) % 2:
        data = data + b"\x00"
    total = 0
    for offset in range(0, len(data), 2):
        total += (data[offset] << 8) | data[offset + 1]
        total = (total & 0xFFFF) + (total >> 16)
    checksum = ~total & 0xFFFF
    return checksum
