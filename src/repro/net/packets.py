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

:class:`ZipLinePacketCodec` gives the payload sizes of each type and reads
a type-2 payload back into its record.  The trace replays carry one chunk
per packet, like the paper.
"""

from __future__ import annotations

from enum import IntEnum

from repro.core.records import UncompressedRecord
from repro.core.transform import GDTransform
from repro.core.wire import RecordLayout
from repro.exceptions import PacketError

__all__ = ["PacketKind", "ZipLinePacketCodec"]


class PacketKind(IntEnum):
    """The paper's packet-type numbering."""

    RAW = 1
    PROCESSED_UNCOMPRESSED = 2
    PROCESSED_COMPRESSED = 3


class ZipLinePacketCodec:
    """Payload sizes of ZipLine packets, and the type-2 payload reader.

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
        self._layout = RecordLayout.for_packets(transform, identifier_bits)

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
        return self._layout.t2_padded // 8

    # -- payload -> record --------------------------------------------------------

    def unpack_uncompressed(self, payload: bytes) -> UncompressedRecord:
        """Parse a type-2 payload into an :class:`UncompressedRecord`."""
        layout = self._layout
        if len(payload) != self.uncompressed_payload_bytes:
            raise PacketError(
                f"payload of {len(payload)} bytes does not match the expected "
                f"{self.uncompressed_payload_bytes}-byte layout"
            )
        value = int.from_bytes(payload, "big") >> layout.padding_bits
        deviation = value & ((1 << layout.deviation_bits) - 1)
        value >>= layout.deviation_bits
        return UncompressedRecord(
            prefix=value >> layout.basis_bits,
            basis=value & ((1 << layout.basis_bits) - 1),
            deviation=deviation,
            prefix_bits=layout.prefix_bits,
            basis_bits=layout.basis_bits,
            deviation_bits=layout.deviation_bits,
            alignment_padding_bits=layout.padding_bits,
        )
