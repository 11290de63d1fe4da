"""ZipLine packet formats: the wire encoding of type-1/2/3 packets.

Section 5 of the paper defines three packet types.  The reproduction gives
them a concrete wire format:

* **type 1** (raw): an ordinary Ethernet frame, untouched;
* **type 2** (processed, uncompressed): EtherType
  ``ZIPLINE_UNCOMPRESSED``; payload = prefix bits, basis, syndrome, plus the
  alignment padding the Tofino target requires (one padding byte for the
  paper's ``m = 8`` configuration → 33-byte payload per 32-byte chunk,
  i.e. the 1.03 ratio of Figure 3);
* **type 3** (processed, compressed): EtherType ``ZIPLINE_COMPRESSED``;
  payload = prefix bits, identifier, syndrome (3 bytes for the paper's
  parameters).

:class:`ZipLinePacketCodec` converts between :mod:`repro.core.records`
records and Ethernet payload bytes, and classifies frames by EtherType.
A payload may carry several chunks back to back (the trace replays use one
chunk per packet, like the paper).
"""

from __future__ import annotations

from enum import IntEnum
from typing import Tuple

from repro.core.bits import mask
from repro.core.records import CompressedRecord, GDRecord, UncompressedRecord
from repro.core.transform import GDTransform
from repro.core.wire import RecordLayout
from repro.exceptions import PacketError
from repro.net.ethernet import EthernetFrame, EtherType

__all__ = ["PacketKind", "ZipLinePacketCodec", "classify_frame"]


class PacketKind(IntEnum):
    """The paper's packet-type numbering."""

    RAW = 1
    PROCESSED_UNCOMPRESSED = 2
    PROCESSED_COMPRESSED = 3


def classify_frame(frame: EthernetFrame) -> PacketKind:
    """Classify a frame into one of the three ZipLine packet types."""
    if frame.ethertype == EtherType.ZIPLINE_UNCOMPRESSED:
        return PacketKind.PROCESSED_UNCOMPRESSED
    if frame.ethertype == EtherType.ZIPLINE_COMPRESSED:
        return PacketKind.PROCESSED_COMPRESSED
    return PacketKind.RAW


#: ``(body bits, trailing padding bits, payload bytes)`` of one packet type.
_Variant = Tuple[int, int, int]


class ZipLinePacketCodec:
    """Convert GD records to/from ZipLine packet payloads.

    Parameters
    ----------
    transform:
        The GD transformation in use (provides prefix/basis/deviation widths).
    identifier_bits:
        Identifier width carried in type-3 packets.

    Padding and payload sizes are those of
    :meth:`repro.core.wire.RecordLayout.for_packets` (8 padding bits on
    type 2 for the paper's 256-bit chunks, matching its reported 3 %
    overhead); on the wire the padding follows the fields.
    """

    def __init__(self, transform: GDTransform, identifier_bits: int = 15):
        if identifier_bits <= 0:
            raise PacketError(f"identifier_bits must be positive, got {identifier_bits}")
        self._transform = transform
        self._identifier_bits = identifier_bits
        layout = RecordLayout.for_packets(transform, identifier_bits)
        self._type2: _Variant = (
            layout.basis_bits, layout.padding_bits, layout.t2_padded // 8
        )
        self._type3: _Variant = (
            identifier_bits, layout.t3_padding_bits, layout.t3_padded // 8
        )

    # -- accessors -----------------------------------------------------------

    @property
    def transform(self) -> GDTransform:
        """The GD transformation whose widths define the layouts."""
        return self._transform

    @property
    def identifier_bits(self) -> int:
        """Identifier width in type-3 packets."""
        return self._identifier_bits

    @property
    def uncompressed_payload_bytes(self) -> int:
        """Wire payload size of a type-2 packet carrying one chunk."""
        return self._type2[2]

    @property
    def compressed_payload_bytes(self) -> int:
        """Wire payload size of a type-3 packet carrying one chunk."""
        return self._type3[2]

    @property
    def raw_payload_bytes(self) -> int:
        """Wire payload size of a type-1 packet carrying one chunk."""
        return self._transform.chunk_bytes

    @property
    def uncompressed_padding_bits(self) -> int:
        """Alignment padding carried by every type-2 packet."""
        return self._type2[1]

    # -- record -> payload -------------------------------------------------------

    def pack_record(self, record: GDRecord) -> bytes:
        """Serialise one record into a ZipLine payload."""
        if isinstance(record, UncompressedRecord):
            return self._pack_fields(
                self._type2, record.prefix, record.basis, record.deviation
            )
        if isinstance(record, CompressedRecord):
            if record.identifier_bits != self._identifier_bits:
                raise PacketError(
                    f"record identifier width {record.identifier_bits} does not "
                    f"match codec width {self._identifier_bits}"
                )
            return self._pack_fields(
                self._type3, record.prefix, record.identifier, record.deviation
            )
        raise PacketError(
            f"cannot pack record of type {type(record).__name__}; raw chunks travel "
            "as ordinary Ethernet payloads"
        )

    def ethertype_for_record(self, record: GDRecord) -> int:
        """EtherType matching a record's packet type."""
        if isinstance(record, UncompressedRecord):
            return EtherType.ZIPLINE_UNCOMPRESSED
        if isinstance(record, CompressedRecord):
            return EtherType.ZIPLINE_COMPRESSED
        raise PacketError(f"no ZipLine EtherType for {type(record).__name__}")

    def _pack_fields(
        self, variant: _Variant, prefix: int, body: int, deviation: int
    ) -> bytes:
        body_bits, padding_bits, total_bytes = variant
        deviation_bits = self._transform.deviation_bits
        for name, value, bits in (
            ("prefix", prefix, self._transform.prefix_bits),
            ("body", body, body_bits),
            ("deviation", deviation, deviation_bits),
        ):
            if value < 0 or (bits == 0 and value) or (bits and value >> bits):
                raise PacketError(f"{name} value {value:#x} does not fit in {bits} bits")
        value = prefix
        value = (value << body_bits) | body
        value = (value << deviation_bits) | deviation
        value <<= padding_bits
        return value.to_bytes(total_bytes, "big")

    # -- payload -> record --------------------------------------------------------

    def unpack_uncompressed(self, payload: bytes) -> UncompressedRecord:
        """Parse a type-2 payload into an :class:`UncompressedRecord`."""
        prefix, basis, deviation = self._unpack_fields(self._type2, payload)
        return UncompressedRecord(
            prefix=prefix,
            basis=basis,
            deviation=deviation,
            prefix_bits=self._transform.prefix_bits,
            basis_bits=self._transform.basis_bits,
            deviation_bits=self._transform.deviation_bits,
            alignment_padding_bits=self._type2[1],
        )

    def unpack_compressed(self, payload: bytes) -> CompressedRecord:
        """Parse a type-3 payload into a :class:`CompressedRecord`."""
        prefix, identifier, deviation = self._unpack_fields(self._type3, payload)
        return CompressedRecord(
            prefix=prefix,
            identifier=identifier,
            deviation=deviation,
            prefix_bits=self._transform.prefix_bits,
            identifier_bits=self._identifier_bits,
            deviation_bits=self._transform.deviation_bits,
        )

    def unpack_frame(self, frame: EthernetFrame) -> GDRecord:
        """Parse a ZipLine frame (type 2 or 3) into its record."""
        kind = classify_frame(frame)
        if kind is PacketKind.PROCESSED_UNCOMPRESSED:
            return self.unpack_uncompressed(frame.payload)
        if kind is PacketKind.PROCESSED_COMPRESSED:
            return self.unpack_compressed(frame.payload)
        raise PacketError(
            f"frame with EtherType {EtherType.name(frame.ethertype)} is not a "
            "processed ZipLine packet"
        )

    def _unpack_fields(
        self, variant: _Variant, payload: bytes
    ) -> Tuple[int, int, int]:
        body_bits, padding_bits, total_bytes = variant
        if len(payload) != total_bytes:
            raise PacketError(
                f"payload of {len(payload)} bytes does not match the expected "
                f"{total_bytes}-byte layout"
            )
        value = int.from_bytes(payload, "big")
        value >>= padding_bits
        deviation = value & mask(self._transform.deviation_bits)
        value >>= self._transform.deviation_bits
        body = value & mask(body_bits)
        value >>= body_bits
        prefix_bits = self._transform.prefix_bits
        prefix = value & mask(prefix_bits) if prefix_bits else 0
        return prefix, body, deviation

    # -- frame helpers ---------------------------------------------------------------

    def build_frame(
        self,
        record: GDRecord,
        destination,
        source,
    ) -> EthernetFrame:
        """Build a complete type-2/3 Ethernet frame for a record."""
        return EthernetFrame(
            destination=destination,
            source=source,
            ethertype=self.ethertype_for_record(record),
            payload=self.pack_record(record),
        )
