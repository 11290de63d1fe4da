"""The interpreted ZipLine programs: the oracle of the compiled ``receive``.

ZipLine is a P4_16 program; the product
(:meth:`repro.zipline._program.ZipLineSwitchBase.receive`) runs it compiled
to integer arithmetic over the frame bytes.  This module spells both
programs out the way their P4 source reads — a parse graph that extracts
header objects with named fields, the ``Hash`` extern over a tuple of
fields, a const syndrome → XOR-mask table, table lookups that dispatch on
action names and a deparser that emits the valid headers — and shares no
per-packet code with the compiled form.

:func:`receive` is the one entry.  ``receive(program, frame, port)`` runs
one frame through ``program``'s interpreted twin at the simulator's clock.
It drives the program instance's mapping table (hit metadata), counters,
port statistics, pipeline counters, digest engine and ``crc_invocations``
the way the compiled program must, hands the emitted frame to the egress
port through the chassis's ``transmit`` and returns it (``None`` for a
drop).  The parse graph, the CRC extern and the const table of a program
are built at its first frame and kept beside it.
"""

from __future__ import annotations

import operator
import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.controlplane.manager import LEARN_DIGEST
from repro.core.bits import mask
from repro.core.crc import syndrome_crc
from repro.exceptions import CodingError, ParserError
from repro.net.ethernet import EtherType
from repro.tofino.parser import HeaderType
from repro.tofino.tables import ActionSpec, MatchActionTable
from repro.zipline.encoder_switch import ZipLineEncoderSwitch
from repro.zipline.headers import ETHERTYPE_RAW_CHUNK

#: The terminal parser state, as in P4.  ZipLine's parse graph accepts
#: every packet it can extract the announced header from.
ACCEPT = "accept"


# -- headers and the parse graph --------------------------------------------


class Header:
    """A header instance: field values plus a validity flag."""

    def __init__(self, header_type: HeaderType):
        self.header_type = header_type
        self.valid = False
        self._widths: Dict[str, int] = dict(header_type.fields)
        self._values: Dict[str, int] = dict.fromkeys(self._widths, 0)

    def __getitem__(self, field_name: str) -> int:
        if field_name not in self._values:
            raise ParserError(
                f"header {self.header_type.name!r} has no field {field_name!r}"
            )
        return self._values[field_name]

    def __setitem__(self, field_name: str, value: int) -> None:
        width = self._widths.get(field_name)
        if width is None:
            raise ParserError(
                f"header {self.header_type.name!r} has no field {field_name!r}"
            )
        if value < 0 or value >> width:
            raise ParserError(
                f"value {value:#x} does not fit in field "
                f"{self.header_type.name}.{field_name} ({width} bits)"
            )
        self._values[field_name] = value

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
        remaining = 8 * len(data)
        for name, width in self.header_type.fields:
            remaining -= width
            self._values[name] = (value >> remaining) & mask(width)
        self.valid = True


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
    """A P4 parse graph interpreter, entered at the state named ``start``."""

    def __init__(self, states: Sequence[ParserState]):
        self._states = {state.name: state for state in states}

    def parse(self, data: bytes) -> ParsedPacket:
        """Run the parse graph over ``data``.

        Raises :class:`ParserError` when the graph runs out of data
        mid-extraction.
        """
        packet = ParsedPacket()
        offset = 0
        state_name = "start"
        while state_name != ACCEPT:
            state = self._states[state_name]
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
        return packet


class Deparser:
    """Reassemble a packet from its valid headers followed by the payload.

    ``order`` lists header names; invalid or missing headers are skipped,
    matching P4 deparser semantics (``packet.emit`` of an invalid header is
    a no-op).
    """

    def __init__(self, order: Sequence[str]):
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


# -- the ingress machinery ---------------------------------------------------


@dataclass
class PacketContext:
    """The per-packet state an ingress control manipulates: the parsed
    headers, the drop flag and the digests it queues."""

    packet: ParsedPacket
    drop_flag: bool = False
    digests: List[Tuple[str, Dict[str, int]]] = field(default_factory=list)

    def drop(self) -> None:
        """Mark the packet to be dropped."""
        self.drop_flag = True

    def emit_digest(self, digest_type: str, data: Dict[str, int]) -> None:
        """Queue a digest to be sent to the control plane after the pipeline."""
        self.digests.append((digest_type, dict(data)))


#: One hashed field: ``(value, width)``, most-significant bit first.
Field = Tuple[int, int]


class CrcExtern:
    """The TNA ``Hash`` extern configured with a CRC polynomial.

    ZipLine programs it as ``CRCPolynomial<bit<m>>(coeff, reversed=false,
    msb, extended, init=0, xor=0)``, so the CRC is the plain polynomial
    remainder of the input — the mode in which it equals a Hamming
    syndrome (Table 2).  ``coeff`` omits the implicit leading ``x**width``
    term.  :meth:`get` has the semantics of ``hash.get({hdr.f1, hdr.f2})``.
    """

    def __init__(self, coeff: int, width: int):
        self._engine = syndrome_crc(coeff, width, name=f"TNA-CRC-{width}")

    def get(self, fields: "Field | Sequence[Field]") -> int:
        """Compute the CRC of the concatenation of ``fields``.

        ``fields`` is one ``(value, width)`` pair or a sequence of pairs,
        concatenated most-significant first.
        """
        if isinstance(fields, tuple) and fields and type(fields[0]) not in (tuple, list):
            fields = (fields,)  # one pair
        value = 0
        total_width = 0
        for pair in fields:
            try:
                field_value, field_width = map(operator.index, pair)
            except (TypeError, ValueError):
                raise CodingError(
                    f"hash fields must be (value, width) int pairs, got {pair!r}"
                ) from None
            if field_width <= 0:
                raise CodingError(f"field width must be positive, got {field_width}")
            if field_value < 0 or field_value >> field_width:
                raise CodingError(
                    f"field value {field_value:#x} does not fit in {field_width} bits"
                )
            value = (value << field_width) | field_value
            total_width += field_width
        if not total_width:
            raise CodingError("hash extern invoked with no fields")
        return self._engine.compute(value, total_width)


def apply_table(
    table: MatchActionTable, key: int, now: float
) -> Tuple[bool, str, Dict[str, int]]:
    """``table.apply()`` on an exact-match table.

    Returns ``(hit, action, params)``: the entry's action and a copy of its
    parameters on a hit, the table's default action on a miss.  Counts the
    lookup and, on a hit, the entry's hit metadata.
    """
    table.lookups += 1
    entry = table.get_entry(key)
    if entry is None:
        return False, table.default_action, {}
    table.hits += 1
    entry.last_hit = now
    entry.hit_count += 1
    return True, entry.action, dict(entry.params)


def syndrome_mask_table(code) -> MatchActionTable:
    """The const syndrome → XOR-mask table (Figure 1 ➌, Figure 2 ➎).

    A perfect Hamming code has an entry for every syndrome: 0 maps to the
    empty mask and each other value to exactly one bit position.  Nothing
    writes the table after it is built.
    """
    table = MatchActionTable(
        name="syndrome_mask",
        key_bits=code.m,
        size=1 << code.m,
        actions=[ActionSpec("set_mask", ("flip_mask",))],
    )
    for syndrome in range(1 << code.m):
        table.add_entry(
            syndrome, "set_mask", {"flip_mask": code.syndrome_table.mask_for(syndrome)}
        )
    return table


def _count(program, label: str, frame_bytes: int) -> None:
    cell = program.counters.index(label)
    program.counters.packet_cells[cell] += 1
    program.counters.byte_cells[cell] += frame_bytes


# -- the two ingress controls ----------------------------------------------------


def _encode(program, twin: "Twin", context: PacketContext, now: float, frame_bytes: int):
    """The encoding program's ingress control (Figure 1)."""
    packet = context.packet
    if packet.has_valid("type2") or packet.has_valid("type3"):
        _count(program, "passthrough_processed", frame_bytes)
        return
    if not packet.has_valid("chunk"):
        _count(program, "passthrough_other", frame_bytes)
        return
    code = program.transform.code
    prefixed = bool(program.transform.prefix_bits)
    chunk = packet.header("chunk")
    body = chunk["body"]
    prefix = chunk["prefix"] if prefixed else 0

    # Step ➋: syndrome through the CRC extern.
    syndrome = twin.crc.get((body, code.n))
    program.crc_invocations += 1
    # Steps ➌/➍: the const table gives the flip mask, XOR restores the codeword.
    _hit, _action, params = apply_table(twin.syndrome_table, syndrome, now)
    # Step ➎: the basis is the message part of the codeword.
    basis = (body ^ params["flip_mask"]) >> code.m

    chunk.valid = False
    ethernet = packet.header("ethernet")
    hit, action, params = apply_table(program.mapping_table, basis, now)
    if hit and action == "set_identifier":
        type3 = Header(program.headers.type3)
        if prefixed:
            type3["prefix"] = prefix
        type3["identifier"] = params["identifier"]
        type3["syndrome"] = syndrome
        type3.valid = True
        packet.headers["type3"] = type3
        ethernet["ether_type"] = EtherType.ZIPLINE_COMPRESSED
        _count(program, "raw_to_compressed", frame_bytes)
    else:
        type2 = Header(program.headers.type2)
        if prefixed:
            type2["prefix"] = prefix
        type2["basis"] = basis
        type2["syndrome"] = syndrome
        type2.valid = True
        packet.headers["type2"] = type2
        ethernet["ether_type"] = EtherType.ZIPLINE_UNCOMPRESSED
        context.emit_digest(LEARN_DIGEST, {"basis": basis})
        _count(program, "raw_to_uncompressed", frame_bytes)


def _decode(program, twin: "Twin", context: PacketContext, now: float, frame_bytes: int):
    """The decoding program's ingress control (Figure 2)."""
    packet = context.packet
    prefixed = bool(program.transform.prefix_bits)
    if packet.has_valid("type3"):
        header = packet.header("type3")
        identifier = header["identifier"]
        hit, action, params = apply_table(program.mapping_table, identifier, now)
        if not hit or action != "set_basis":
            # A compressed packet whose mapping is unknown cannot be restored.
            _count(program, "unknown_identifier", frame_bytes)
            context.drop()
            return
        basis = params["basis"]
        label = "compressed_to_raw"
    elif packet.has_valid("type2"):
        header = packet.header("type2")
        basis = header["basis"]
        label = "uncompressed_to_raw"
    else:
        _count(program, "passthrough_other", frame_bytes)
        return
    code = program.transform.code
    # Steps ➌/➍: zero-pad the basis and recompute the parity bits with the
    # same CRC extern the encoder used.
    parity = twin.crc.get([(basis, code.k), (0, code.m)])
    program.crc_invocations += 1
    # Steps ➎/➏: the syndrome's mask flips the deviated bit back.
    _hit, _action, params = apply_table(twin.syndrome_table, header["syndrome"], now)
    chunk = Header(program.headers.chunk)
    if prefixed:
        chunk["prefix"] = header["prefix"]
    chunk["body"] = ((basis << code.m) | parity) ^ params["flip_mask"]
    chunk.valid = True
    header.valid = False
    packet.headers["chunk"] = chunk
    packet.header("ethernet")["ether_type"] = ETHERTYPE_RAW_CHUNK
    _count(program, label, frame_bytes)


class Twin:
    """What a program's interpreted form adds to the program instance: the
    parse graph, the deparser, the CRC extern and the const table."""

    def __init__(self, program):
        headers = program.headers
        code = program.transform.code
        self.parser = Parser(
            [
                ParserState(
                    name="start",
                    extract=("ethernet", headers.ethernet),
                    select_field=("ethernet", "ether_type"),
                    transitions={
                        ETHERTYPE_RAW_CHUNK: "parse_chunk",
                        EtherType.ZIPLINE_UNCOMPRESSED: "parse_type2",
                        EtherType.ZIPLINE_COMPRESSED: "parse_type3",
                    },
                ),
                ParserState(name="parse_chunk", extract=("chunk", headers.chunk)),
                ParserState(name="parse_type2", extract=("type2", headers.type2)),
                ParserState(name="parse_type3", extract=("type3", headers.type3)),
            ]
        )
        # At most one of the three ZipLine headers is valid on egress.
        self.deparser = Deparser(["ethernet", "chunk", "type2", "type3"])
        # The CRC extern programmed with the Hamming generator polynomial.
        self.crc = CrcExtern(coeff=code.crc_parameter, width=code.m)
        self.syndrome_table = syndrome_mask_table(code)
        self.ingress = _encode if isinstance(program, ZipLineEncoderSwitch) else _decode


_TWINS: "weakref.WeakKeyDictionary[object, Twin]" = weakref.WeakKeyDictionary()


def twin_of(program) -> Twin:
    """``program``'s interpreted twin, built at its first use."""
    found = _TWINS.get(program)
    if found is None:
        found = _TWINS[program] = Twin(program)
    return found


def receive(program, frame: bytes, port: int) -> Optional[bytes]:
    """Run ``frame``, arriving on ``port``, through ``program`` interpreted.

    A port the chassis lacks raises its error before anything is counted.
    The frame is counted at its port and as one pipeline pass; a frame the
    parse graph cannot extract its headers from is a parse error and a
    drop.  Otherwise the ingress control runs at the simulator's clock, its
    digests go to the digest engine, and the deparsed frame leaves through
    the chassis's ``transmit`` after the pipeline latency, on the port the
    static forwarding names.  Returns that frame, ``None`` for a drop.
    """
    chassis = program.switch
    stats = chassis.port_stats(port)
    stats.rx_packets += 1
    stats.rx_bytes += len(frame)
    pipeline = program.pipeline
    pipeline.packets_processed += 1
    interpreted = twin_of(program)
    try:
        packet = interpreted.parser.parse(frame)
    except ParserError:
        pipeline.parse_errors += 1
        pipeline.packets_dropped += 1
        return None
    context = PacketContext(packet=packet)
    now = program.simulator.now if program.simulator is not None else 0.0
    interpreted.ingress(program, interpreted, context, now, len(frame))
    for digest_type, data in context.digests:
        chassis.digest_engine.emit(digest_type, data)
    if context.drop_flag:
        pipeline.packets_dropped += 1
        return None
    out = interpreted.deparser.emit(packet)
    egress_port = program._forwarding.get(port, program._default_egress_port)
    chassis.transmit(egress_port, out, pipeline.pipeline_latency)
    return out
