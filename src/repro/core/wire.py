"""The GDZ1 wire format: one writer and one incremental reader.

A container is a 16-byte header (:data:`HEADER`), a run of tagged records
and a trailer (:data:`END_TAG` plus the original byte count); a record is
one tag byte (2 = processed but uncompressed, 3 = compressed) and the
byte-aligned payload ``prefix | basis-or-identifier | deviation``,
big-endian, left-padded.  :func:`write_container` is the only writer and
:func:`read_container` the only reader.  Records go
through :func:`pack_records` / :func:`parse_records` on field columns;
:mod:`repro.core.records` keeps the per-object ``to_bytes`` the tests use
as the layout oracle.  :meth:`RecordLayout.for_packets` states, once, the
payload layout of the type-2 / type-3 *packets*.

The loops are the ``pure`` codec backend's packer and parser, and the
oracle; :func:`scan_records` is what an accelerated backend builds its
parser on.  Nothing here imports outside the standard library.
"""

from __future__ import annotations

import struct
from typing import Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.bits import align_up
from repro.exceptions import CodingError

__all__ = [
    "END_TAG",
    "FLAG_STREAMED",
    "FRAMING_BYTES",
    "HEADER",
    "MAGIC",
    "ContainerHeader",
    "RecordLayout",
    "pack_records",
    "pack_trailer",
    "pack_type2",
    "parse_header",
    "parse_records",
    "parse_trailer",
    "read_container",
    "scan_records",
    "write_container",
]

MAGIC = b"GDZ1"
#: magic, order, chunk_bits, identifier_bits, flags, records, padding_bits.
#: The padding byte sits in what used to be reserved-zero space, so headers
#: written before it existed (always padding 0) parse identically.
HEADER = struct.Struct(">4sBHBBIBxx")
#: Header flag: the record count field is 0 and the records run until the
#: trailer.  A header without it is refused: that is the count-in-header
#: layout older versions wrote, which nothing reads any more.
FLAG_STREAMED = 0x01
#: Record tag starting the trailer (followed by the ``>Q`` original byte
#: count).  0 can never collide with a record tag (types 1-3).
END_TAG = 0x00
_TRAILER = struct.Struct(">BQ")
#: Bytes :func:`write_container` adds around the record runs.
FRAMING_BYTES = HEADER.size + _TRAILER.size


class RecordLayout:
    """Field widths and payload sizes of one codec configuration's records.

    ``t2_bits``/``t3_bits`` are the unpadded payload sizes, ``t2_padded``/
    ``t3_padded`` the byte-aligned wire sizes; ``padding_bits`` is what a
    type-2 payload carries on top of its fields (the Tofino container
    alignment), ``t3_padding_bits`` what byte-aligns a type-3 payload.
    """

    __slots__ = (
        "prefix_bits",
        "basis_bits",
        "identifier_bits",
        "deviation_bits",
        "padding_bits",
        "t2_bits",
        "t2_padded",
        "t3_bits",
        "t3_padded",
        "t3_padding_bits",
    )

    def __init__(
        self,
        prefix_bits: int,
        basis_bits: int,
        identifier_bits: int,
        deviation_bits: int,
        padding_bits: int,
    ):
        self.prefix_bits = prefix_bits
        self.basis_bits = basis_bits
        self.identifier_bits = identifier_bits
        self.deviation_bits = deviation_bits
        self.padding_bits = padding_bits
        self.t2_bits = prefix_bits + basis_bits + deviation_bits
        self.t2_padded = align_up(self.t2_bits + padding_bits, 8)
        self.t3_bits = prefix_bits + identifier_bits + deviation_bits
        self.t3_padded = align_up(self.t3_bits, 8)
        self.t3_padding_bits = self.t3_padded - self.t3_bits

    @classmethod
    def for_packets(cls, transform, identifier_bits: int) -> "RecordLayout":
        """The payload layout of ZipLine type-2 / type-3 packets.

        Type-2 padding is the fewest bits that byte-align the fields, and a
        whole byte when they already are: the Tofino compiler still needs
        one spare container byte for the paper's configuration (33-byte
        payload per 32-byte chunk, the measured 3 % overhead).
        """
        prefix_bits, basis_bits = transform.prefix_bits, transform.basis_bits
        deviation_bits = transform.deviation_bits
        padding_bits = 8 - (prefix_bits + basis_bits + deviation_bits) % 8
        return cls(prefix_bits, basis_bits, identifier_bits, deviation_bits, padding_bits)


def pack_type2(layout: RecordLayout, prefix: int, basis: bytes, deviation: int) -> bytes:
    """One tagged type-2 record, from ``int`` fields and the basis row."""
    value = prefix << layout.basis_bits | int.from_bytes(basis, "big")
    value = (value << layout.deviation_bits) | deviation
    return b"\x02" + value.to_bytes(layout.t2_padded // 8, "big")


def pack_records(
    layout: RecordLayout,
    tags: bytes,
    identifiers: Sequence[int],
    prefixes: Sequence[int],
    bases: Sequence[bytes],
    deviations: Sequence[int],
) -> bytes:
    """Field columns → container body (one tag byte plus payload per record).

    ``prefixes``, ``bases`` (rows) and ``deviations`` hold one entry per
    record; ``identifiers`` one per type-3 record, in order.  Byte-identical
    to concatenating ``bytes([tag]) + record.to_bytes()`` over the equivalent
    record objects.  The per-record loop: the ``pure`` backend's packer and
    the reference an accelerated one must match byte for byte.
    """
    identifier_bits = layout.identifier_bits
    deviation_bits = layout.deviation_bits
    size3 = layout.t3_padded // 8
    next_identifier = iter(identifiers).__next__
    parts: List[bytes] = []
    append = parts.append
    try:
        for tag, prefix, basis, deviation in zip(tags, prefixes, bases, deviations):
            if tag == 3:
                value = (
                    ((prefix << identifier_bits) | next_identifier()) << deviation_bits
                ) | deviation
                append(b"\x03")
                append(value.to_bytes(size3, "big"))
            else:
                append(pack_type2(layout, prefix, basis, deviation))
    except OverflowError:
        raise CodingError("a record's fields are wider than its layout") from None
    return b"".join(parts)


def parse_records(
    layout: RecordLayout,
    data: "bytes | bytearray | memoryview",
    offset: int,
    limit: Optional[int] = None,
    streamed: bool = False,
) -> Tuple[bytearray, List[int], list, List[int], int]:
    """Container body → field columns, as far as ``data`` allows.

    Parses complete records from ``data[offset:]`` until ``limit`` records
    are read, the buffer ends or holds only part of the next record ("need
    more bytes": the caller decides whether more can arrive), or — in a
    ``streamed`` container — :data:`END_TAG` is next.  Returns ``(tags,
    prefixes, keys, deviations, next_offset)``; ``keys[i]`` is the basis row
    of a type-2 record and the identifier of a type-3 record.  Fields are
    masked to the layout's widths.  An unknown tag raises
    :class:`~repro.exceptions.CodingError`.
    """
    deviation_bits = layout.deviation_bits
    deviation_mask = (1 << deviation_bits) - 1
    basis_bits = layout.basis_bits
    basis_mask = (1 << basis_bits) - 1
    identifier_bits = layout.identifier_bits
    identifier_mask = (1 << identifier_bits) - 1
    prefix_bits = layout.prefix_bits
    prefix_mask = (1 << prefix_bits) - 1
    size2 = layout.t2_padded // 8
    size3 = layout.t3_padded // 8
    width = (basis_bits + 7) // 8
    total = len(data)
    from_bytes = int.from_bytes
    tags = bytearray()
    prefixes: List[int] = []
    keys: list = []
    deviations: List[int] = []
    while offset < total and (limit is None or len(tags) < limit):
        tag = data[offset]
        if tag == 3:
            end = offset + 1 + size3
            key_bits, key_mask = identifier_bits, identifier_mask
        elif tag == 2:
            end = offset + 1 + size2
            key_bits, key_mask = basis_bits, basis_mask
        elif tag == END_TAG and streamed:
            break
        else:
            raise CodingError(f"unknown record tag {tag} at offset {offset}")
        if end > total:
            break
        value = from_bytes(data[offset + 1 : end], "big")
        tags.append(tag)
        deviations.append(value & deviation_mask)
        value >>= deviation_bits
        key = value & key_mask
        keys.append(key if tag == 3 else key.to_bytes(width, "big"))
        prefixes.append((value >> key_bits) & prefix_mask)
        offset = end
    return tags, prefixes, keys, deviations, offset


def scan_records(
    layout: RecordLayout, data, offset: int, limit=None, streamed: bool = False
) -> Tuple[bytes, List[bytes], int]:
    """:func:`parse_records` by *runs* of type-3 records instead of records.

    Same stops, masks and :class:`~repro.exceptions.CodingError` as the
    loop, but no bytecode per type-3 record: the length of a maximal run
    comes from strided slices of its tag column (``data[offset::stride]``,
    galloping) stripped of ``0x03`` at C speed.  Returns ``(rows, bases,
    next_offset)``: one type-3 sized row per record, back to back, for the
    caller to take apart in one gather — a type-3 record verbatim; a type-2
    record as tag 2, its prefix and its deviation around identifier 0, its
    basis row (wider than a machine word) in ``bases``.
    """
    deviation_bits = layout.deviation_bits
    deviation_mask = (1 << deviation_bits) - 1
    basis_mask = (1 << layout.basis_bits) - 1
    prefix_shift = deviation_bits + layout.basis_bits
    prefix_mask = (1 << layout.prefix_bits) - 1
    row_shift = deviation_bits + layout.identifier_bits
    stride2 = 1 + layout.t2_padded // 8
    stride3 = 1 + layout.t3_padded // 8
    tagged = 2 << layout.t3_padded
    width = (layout.basis_bits + 7) // 8
    total = len(data)
    budget = total if limit is None else limit
    from_bytes = int.from_bytes
    rows = []
    bases: List[bytes] = []
    while offset < total and budget > 0:
        tag = data[offset]
        if tag == 2:
            end = offset + stride2
            if end > total:
                break
            value = from_bytes(data[offset + 1 : end], "big")
            bases.append(((value >> deviation_bits) & basis_mask).to_bytes(width, "big"))
            row = tagged | ((value >> prefix_shift) & prefix_mask) << row_shift
            rows.append((row | value & deviation_mask).to_bytes(stride3, "big"))
            offset = end
            budget -= 1
            continue
        if tag != 3:
            if tag == END_TAG and streamed:
                break
            raise CodingError(f"unknown record tag {tag} at offset {offset}")
        room = (total - offset) // stride3
        room = room if room < budget else budget
        start = offset
        look = 16
        while room:
            step = look if look < room else room
            column = bytes(data[offset : offset + step * stride3 : stride3])
            same = step - len(column.lstrip(b"\x03"))
            offset += same * stride3
            if same < step:
                break
            room -= same
            look *= 4
        if offset == start:
            break
        rows.append(data[start:offset])
        budget -= (offset - start) // stride3
    return b"".join(rows), bases, offset


def pack_trailer(original_bytes: int) -> bytes:
    """The trailer that ends a container's record run."""
    return _TRAILER.pack(END_TAG, original_bytes)


def parse_trailer(
    data: "bytes | bytearray | memoryview", offset: int
) -> Optional[Tuple[int, int]]:
    """``(original_bytes, next_offset)`` of the trailer at ``data[offset:]``.

    ``None`` when no complete trailer starts there (where
    :func:`parse_records` stopped short of one, more bytes are needed).
    """
    if len(data) - offset < _TRAILER.size or data[offset] != END_TAG:
        return None
    return _TRAILER.unpack_from(data, offset)[1], offset + _TRAILER.size


# -- the container: header, record runs, trailer -------------------------------


class ContainerHeader(NamedTuple):
    """The codec parameters a GDZ1 header carries, under the names
    :class:`~repro.core.codec.GDCodec` takes them by."""

    order: int
    chunk_bits: int
    identifier_bits: int
    alignment_padding_bits: int


def parse_header(data) -> Optional[Tuple[ContainerHeader, int]]:
    """``(header, next_offset)`` of the container that starts ``data``, or
    ``None`` while it is incomplete.

    A wrong magic or a clear :data:`FLAG_STREAMED` raises
    :class:`~repro.exceptions.CodingError`.
    """
    if len(data) < HEADER.size:
        return None
    magic, order, chunk_bits, identifier_bits, flags, _records, padding_bits = (
        HEADER.unpack_from(data)
    )
    if magic != MAGIC:
        raise CodingError(f"bad container magic {magic!r}")
    if not flags & FLAG_STREAMED:
        raise CodingError(
            "GDZ1 header without the streamed flag: the count-in-header "
            "layout is no longer read"
        )
    return ContainerHeader(order, chunk_bits, identifier_bits, padding_bits), HEADER.size


def write_container(
    header: ContainerHeader, runs: Iterable[Tuple[bytes, int]]
) -> Iterator[bytes]:
    """The GDZ1 writer: header, each record run as it arrives, trailer.

    ``runs`` yields ``(packed records, original bytes they encode)``.
    """
    # order, chunk bits, identifier bits | flags, record count | padding bits
    yield HEADER.pack(MAGIC, *header[:3], FLAG_STREAMED, 0, header[3])
    total = 0
    for body, original_bytes in runs:
        total += original_bytes
        yield body
    yield pack_trailer(total)


def read_container(blocks: Iterable[bytes], open_codec) -> Iterator[bytes]:
    """The GDZ1 reader: container bytes in any fragmentation → decoded bytes.

    ``open_codec(header)`` returns the :class:`~repro.core.codec.GDCodec`
    that parses and decodes the records (or raises for a header it will not
    serve).  One chunk of output is held back until the trailer states the
    original length, so the final chunk's zero padding is never emitted;
    that length must lie within the held-back chunk and nothing may follow
    the trailer.
    """
    data = bytearray()
    codec = None
    original_bytes = None
    holdback = b""
    emitted = 0
    for block in blocks:
        data += block
        position = 0
        if codec is None:
            opened = parse_header(data)
            if opened is None:
                continue
            header, position = opened
            codec = open_codec(header)
            chunk_bytes = codec.chunk_bytes
        if original_bytes is None:
            tags, prefixes, keys, deviations, position = codec.parse_records(
                data, position, streamed=True
            )
            if tags:
                combined = holdback + codec.decoder.decode_columns_to_bytes(
                    tags, prefixes, keys, deviations
                )
                holdback = combined[-chunk_bytes:]
                out = combined[:-chunk_bytes]
                if out:
                    emitted += len(out)
                    yield out
            trailer = parse_trailer(data, position)
            if trailer is not None:
                original_bytes, position = trailer
                decoded = emitted + len(holdback)
                if not 0 <= decoded - original_bytes <= chunk_bytes:
                    raise CodingError(
                        f"container length {original_bytes} inconsistent with "
                        f"{decoded} decoded bytes"
                    )
        if original_bytes is not None and len(data) > position:
            raise CodingError(
                f"{len(data) - position} trailing bytes after container end"
            )
        del data[:position]  # bounded memory: only an incomplete item stays
    if original_bytes is None:
        raise CodingError("truncated GDZ1 stream")
    if original_bytes > emitted:
        yield holdback[: original_bytes - emitted]
