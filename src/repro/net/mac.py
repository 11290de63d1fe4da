"""MAC address value type used by the Ethernet framing layer."""

from __future__ import annotations

import re
from typing import Union

from repro.exceptions import PacketError

__all__ = ["MacAddress", "BROADCAST", "ZERO"]

_MAC_RE = re.compile(r"^([0-9A-Fa-f]{2}[:-]){5}[0-9A-Fa-f]{2}$")


class MacAddress:
    """A 48-bit IEEE 802 MAC address.

    Accepts the usual representations (colon/dash separated strings, raw
    6-byte strings, integers) and normalises to 6 bytes internally.
    Instances are immutable and hashable so they can key forwarding tables.
    """

    __slots__ = ("_octets",)

    def __init__(self, value: Union[str, bytes, bytearray, int, "MacAddress"]):
        if isinstance(value, MacAddress):
            self._octets = value._octets
            return
        if isinstance(value, str):
            if not _MAC_RE.match(value):
                raise PacketError(f"invalid MAC address string {value!r}")
            cleaned = value.replace("-", ":")
            self._octets = bytes(int(part, 16) for part in cleaned.split(":"))
            return
        if isinstance(value, (bytes, bytearray)):
            if len(value) != 6:
                raise PacketError(
                    f"MAC address requires exactly 6 bytes, got {len(value)}"
                )
            self._octets = bytes(value)
            return
        if isinstance(value, int):
            if not 0 <= value < (1 << 48):
                raise PacketError(f"MAC address integer {value:#x} out of range")
            self._octets = value.to_bytes(6, "big")
            return
        raise PacketError(f"unsupported MAC address type {type(value).__name__}")

    # -- dunder plumbing ------------------------------------------------------

    def __bytes__(self) -> bytes:
        return self._octets

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MacAddress):
            return self._octets == other._octets
        if isinstance(other, (bytes, bytearray)):
            return self._octets == bytes(other)
        if isinstance(other, str):
            try:
                return self == MacAddress(other)
            except PacketError:
                return False
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._octets)

    def __str__(self) -> str:
        return ":".join(f"{octet:02x}" for octet in self._octets)

    def __repr__(self) -> str:
        return f"MacAddress('{self}')"


#: The Ethernet broadcast address.
BROADCAST = MacAddress(b"\xff" * 6)

#: The all-zero address (used as a placeholder in generated traces).
ZERO = MacAddress(b"\x00" * 6)
