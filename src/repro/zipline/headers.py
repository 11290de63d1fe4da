"""Header definitions shared by the ZipLine encoder and decoder programs.

The wire formats are derived from the GD transform parameters:

* ``ethernet_h`` — the standard 14-byte Ethernet header;
* ``chunk_h`` — a raw (type-1) chunk: the verbatim prefix bits followed by
  the ``n`` bits that go through the Hamming code (256 bits total for the
  paper's parameters);
* ``type2_h`` — processed, uncompressed: prefix, basis, syndrome, plus the
  explicit padding bits the byte-alignment constraint requires;
* ``type3_h`` — processed, compressed: prefix, identifier, syndrome, plus
  padding when needed (none for the paper's parameters).

Raw chunks travel under the dedicated :data:`ETHERTYPE_RAW_CHUNK` EtherType;
this is how the trace replays mark packets that the encoder should process
(any other EtherType is forwarded untouched, like a regular switch would).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.transform import GDTransform
from repro.core.wire import RecordLayout
from repro.exceptions import PacketError
from repro.net.ethernet import EtherType
from repro.tofino.parser import HeaderType

__all__ = [
    "ETHERTYPE_RAW_CHUNK",
    "RAW_CHUNK_ETHERTYPE_BYTES",
    "raw_chunk_payload",
    "ZipLineHeaderSet",
]

#: EtherType marking a raw, yet-unprocessed chunk payload (packet type 1 in
#: the paper's terminology, restricted to the payloads ZipLine processes).
ETHERTYPE_RAW_CHUNK = EtherType.ZIPLINE_RAW_CHUNK

#: The same EtherType as the two wire bytes of an Ethernet header.
RAW_CHUNK_ETHERTYPE_BYTES = ETHERTYPE_RAW_CHUNK.to_bytes(2, "big")


def raw_chunk_payload(frame_bytes: bytes) -> Optional[bytes]:
    """Payload of a raw-chunk frame, or ``None`` for any other frame.

    The one place that knows how a raw chunk sits inside an Ethernet frame;
    the replay accounting, integrity matching and CLI base extraction all
    parse through here so the layout cannot silently diverge.
    """
    if frame_bytes[12:14] != RAW_CHUNK_ETHERTYPE_BYTES:
        return None
    return frame_bytes[14:]


@dataclass(frozen=True)
class ZipLineHeaderSet:
    """The four header types used by the ZipLine programs.

    Built from a :class:`~repro.core.transform.GDTransform` plus the
    identifier width; exposes the byte sizes the evaluation needs (e.g. the
    33-byte type-2 and 3-byte type-3 payloads behind Figure 3).
    """

    ethernet: HeaderType
    chunk: HeaderType
    type2: HeaderType
    type3: HeaderType
    prefix_bits: int
    body_bits: int
    basis_bits: int
    syndrome_bits: int
    identifier_bits: int
    type2_padding_bits: int
    type3_padding_bits: int

    @classmethod
    def build(
        cls, transform: GDTransform, identifier_bits: int = 15
    ) -> "ZipLineHeaderSet":
        """Derive the header set from transform parameters.

        Field widths and padding are those of
        :meth:`repro.core.wire.RecordLayout.for_packets`.
        """
        if identifier_bits <= 0:
            raise PacketError("identifier_bits must be positive")

        prefix_bits = transform.prefix_bits
        body_bits = transform.code.n
        basis_bits = transform.basis_bits
        syndrome_bits = transform.deviation_bits
        layout = RecordLayout.for_packets(transform, identifier_bits)
        type2_padding_bits = layout.padding_bits
        type3_padding_bits = layout.t3_padding_bits

        ethernet = HeaderType(
            "ethernet_h",
            [("dst_addr", 48), ("src_addr", 48), ("ether_type", 16)],
        )

        chunk_fields = []
        if prefix_bits:
            chunk_fields.append(("prefix", prefix_bits))
        chunk_fields.append(("body", body_bits))
        chunk = HeaderType("chunk_h", chunk_fields)

        type2_fields = []
        if prefix_bits:
            type2_fields.append(("prefix", prefix_bits))
        type2_fields.extend([("basis", basis_bits), ("syndrome", syndrome_bits)])
        type2_fields.append(("pad", type2_padding_bits))
        type2 = HeaderType("zipline_type2_h", type2_fields)

        type3_fields = []
        if prefix_bits:
            type3_fields.append(("prefix", prefix_bits))
        type3_fields.extend(
            [("identifier", identifier_bits), ("syndrome", syndrome_bits)]
        )
        if type3_padding_bits:
            type3_fields.append(("pad", type3_padding_bits))
        type3 = HeaderType("zipline_type3_h", type3_fields)

        return cls(
            ethernet=ethernet,
            chunk=chunk,
            type2=type2,
            type3=type3,
            prefix_bits=prefix_bits,
            body_bits=body_bits,
            basis_bits=basis_bits,
            syndrome_bits=syndrome_bits,
            identifier_bits=identifier_bits,
            type2_padding_bits=type2_padding_bits,
            type3_padding_bits=type3_padding_bits,
        )

    # -- payload sizes -----------------------------------------------------------

    @property
    def type2_payload_bytes(self) -> int:
        """Payload bytes of a type-2 packet."""
        return self.type2.total_bytes

    @property
    def type3_payload_bytes(self) -> int:
        """Payload bytes of a type-3 packet."""
        return self.type3.total_bytes
