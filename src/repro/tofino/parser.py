"""A P4-style programmable parser and deparser.

P4 programs describe packet parsing as a finite state machine: each state
*extracts* a header (a fixed sequence of bit fields) and *selects* the next
state based on a field value.  The ZipLine program parses the Ethernet
header and then, depending on the EtherType, one of its own headers
(type-2 or type-3).  This module provides the generic machinery —
:class:`HeaderType`, :class:`Header`, :class:`Parser`, :class:`Deparser` —
used by the concrete ZipLine programs in :mod:`repro.zipline`.

Bit-granular extraction is supported (header widths only need to be byte
aligned per header, matching the Tofino constraint checked by
:func:`repro.tofino.constraints.check_header_alignment`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.bits import mask
from repro.exceptions import ParserError
from repro.tofino.constraints import check_header_alignment

__all__ = [
    "HeaderType",
    "Header",
    "ParsedPacket",
    "ParserState",
    "Parser",
    "Deparser",
    "ACCEPT",
]

#: The terminal parser state, as in P4.  ZipLine's parse graph accepts
#: every packet it can extract the announced header from.
ACCEPT = "accept"


class HeaderType:
    """A named header layout: an ordered list of (field name, width) pairs."""

    def __init__(self, name: str, fields: Sequence[Tuple[str, int]]):
        if not fields:
            raise ParserError(f"header type {name!r} must declare at least one field")
        names = [field_name for field_name, _ in fields]
        if len(set(names)) != len(names):
            raise ParserError(f"header type {name!r} has duplicate field names")
        widths = [width for _, width in fields]
        check_header_alignment(list(widths))
        self.name = name
        self.fields: Tuple[Tuple[str, int], ...] = tuple(
            (str(field_name), int(width)) for field_name, width in fields
        )
        # Width lookups sit on the per-packet hot path; precompute them.
        self._widths: Dict[str, int] = dict(self.fields)
        self._total_bits = sum(width for _, width in self.fields)
        self._total_bytes = self._total_bits // 8

    @property
    def total_bits(self) -> int:
        """Total header width in bits (always a multiple of 8)."""
        return self._total_bits

    @property
    def total_bytes(self) -> int:
        """Total header width in bytes."""
        return self._total_bytes

    def field_width(self, field_name: str) -> int:
        """Width of one field."""
        try:
            return self._widths[field_name]
        except KeyError:
            raise ParserError(
                f"header type {self.name!r} has no field {field_name!r}"
            ) from None



class Header:
    """A header instance: field values plus a validity flag."""

    def __init__(self, header_type: HeaderType):
        self.header_type = header_type
        self.valid = False
        self._values: Dict[str, int] = dict.fromkeys(header_type._widths, 0)

    def __getitem__(self, field_name: str) -> int:
        if field_name not in self._values:
            raise ParserError(
                f"header {self.header_type.name!r} has no field {field_name!r}"
            )
        return self._values[field_name]

    def __setitem__(self, field_name: str, value: int) -> None:
        width = self.header_type.field_width(field_name)
        if value < 0 or value >> width:
            raise ParserError(
                f"value {value:#x} does not fit in field "
                f"{self.header_type.name}.{field_name} ({width} bits)"
            )
        self._values[field_name] = value

    def as_dict(self) -> Dict[str, int]:
        """Copy of the field values."""
        return dict(self._values)

    def to_bytes(self) -> bytes:
        """Serialise the header fields MSB-first into bytes."""
        value = 0
        for name, width in self.header_type.fields:
            value = (value << width) | self._values[name]
        return value.to_bytes(self.header_type.total_bytes, "big")

    def from_bytes(self, data: bytes) -> None:
        """Populate the fields from ``total_bytes`` of data and mark valid."""
        if len(data) != self.header_type.total_bytes:
            raise ParserError(
                f"header {self.header_type.name!r} needs "
                f"{self.header_type.total_bytes} bytes, got {len(data)}"
            )
        value = int.from_bytes(data, "big")
        remaining = self.header_type.total_bits
        for name, width in self.header_type.fields:
            remaining -= width
            self._values[name] = (value >> remaining) & mask(width)
        self.valid = True

    def __repr__(self) -> str:
        state = "valid" if self.valid else "invalid"
        return f"Header({self.header_type.name}, {state}, {self._values})"


class ParsedPacket:
    """The result of parsing: named headers plus the unparsed payload."""

    def __init__(self) -> None:
        self.headers: Dict[str, Header] = {}
        self.payload: bytes = b""

    def header(self, name: str) -> Header:
        """Fetch a header by name (raises if the parser never extracted it)."""
        try:
            return self.headers[name]
        except KeyError:
            raise ParserError(f"no header named {name!r} was extracted") from None

    def has_valid(self, name: str) -> bool:
        """True when the named header was extracted and is valid."""
        header = self.headers.get(name)
        return header is not None and header.valid


@dataclass
class ParserState:
    """One parser state: extract a header, then select the next state.

    ``select_field`` is ``(header_name, field_name)``; ``transitions`` maps
    field values to next-state names, with ``default`` as the fallback.
    When ``select_field`` is ``None`` the state transitions unconditionally
    to ``default``.
    """

    name: str
    extract: Optional[Tuple[str, HeaderType]] = None
    select_field: Optional[Tuple[str, str]] = None
    transitions: Dict[int, str] = field(default_factory=dict)
    default: str = ACCEPT


class Parser:
    """A P4 parse graph interpreter."""

    def __init__(self, states: Sequence[ParserState], start: str = "start"):
        self._states = {state.name: state for state in states}
        if start not in self._states:
            raise ParserError(f"start state {start!r} is not defined")
        self._start = start
        self.packets_parsed = 0

    def parse(self, data: bytes) -> ParsedPacket:
        """Run the parse graph over ``data``.

        Raises :class:`ParserError` when the graph runs out of data
        mid-extraction, reaches an undefined state or loops.
        """
        packet = ParsedPacket()
        offset = 0
        state_name = self._start
        visited = 0
        while state_name != ACCEPT:
            visited += 1
            if visited > len(self._states) + 8:
                raise ParserError("parse graph does not terminate (loop detected)")
            try:
                state = self._states[state_name]
            except KeyError:
                raise ParserError(f"undefined parser state {state_name!r}") from None

            if state.extract is not None:
                header_name, header_type = state.extract
                end = offset + header_type.total_bytes
                if end > len(data):
                    raise ParserError(
                        f"packet too short: state {state_name!r} needs "
                        f"{header_type.total_bytes} bytes at offset {offset}, "
                        f"packet has {len(data)}"
                    )
                header = Header(header_type)
                header.from_bytes(data[offset:end])
                packet.headers[header_name] = header
                offset = end

            if state.select_field is None:
                state_name = state.default
            else:
                header_name, field_name = state.select_field
                value = packet.header(header_name)[field_name]
                state_name = state.transitions.get(value, state.default)

        packet.payload = data[offset:]
        self.packets_parsed += 1
        return packet


class Deparser:
    """Reassemble a packet from its valid headers followed by the payload.

    ``order`` lists header names; invalid or missing headers are skipped,
    matching P4 deparser semantics (``packet.emit`` of an invalid header is
    a no-op).
    """

    def __init__(self, order: Sequence[str]):
        if not order:
            raise ParserError("deparser needs at least one header name")
        self._order = list(order)

    def emit(self, packet: ParsedPacket) -> bytes:
        """Serialise the packet."""
        parts: List[bytes] = []
        for name in self._order:
            header = packet.headers.get(name)
            if header is not None and header.valid:
                parts.append(header.to_bytes())
        parts.append(packet.payload)
        return b"".join(parts)
