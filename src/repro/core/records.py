"""Record types produced by the GD encoder.

The paper defines three packet types (Section 5):

* **type 1** — a regular, unprocessed packet (the raw chunk);
* **type 2** — processed but uncompressed: the chunk replaced by its
  (prefix, basis, deviation) decomposition;
* **type 3** — processed and compressed: the basis replaced by a short
  identifier.

At the library (non-switch) level these are represented by
:class:`RawRecord`, :class:`UncompressedRecord` and :class:`CompressedRecord`.
Each record knows its exact payload size in bits, both unpadded (the
information-theoretic size) and padded to byte alignment (what actually goes
on the wire once the Tofino byte-alignment constraint applies — the source of
the paper's 3 % "no table" overhead).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Union

from repro.core.bits import align_up, bits_to_bytes_len, int_to_bytes
from repro.exceptions import CodingError

__all__ = [
    "RecordType",
    "RawRecord",
    "UncompressedRecord",
    "CompressedRecord",
    "GDRecord",
]


class RecordType(IntEnum):
    """Numeric tags matching the paper's packet-type terminology."""

    RAW = 1
    UNCOMPRESSED = 2
    COMPRESSED = 3


@dataclass(frozen=True)
class RawRecord:
    """A type-1 record: the chunk travels untouched."""

    chunk: int
    chunk_bits: int

    def __post_init__(self) -> None:
        if self.chunk < 0 or self.chunk >> self.chunk_bits:
            raise CodingError(
                f"chunk {self.chunk:#x} does not fit in {self.chunk_bits} bits"
            )

    @property
    def record_type(self) -> RecordType:
        return RecordType.RAW

    @property
    def payload_bits(self) -> int:
        """Unpadded payload size in bits."""
        return self.chunk_bits

    @property
    def padded_bits(self) -> int:
        """Payload size after byte alignment."""
        return align_up(self.chunk_bits, 8)

    @property
    def payload_bytes(self) -> int:
        """Payload size in whole bytes."""
        return bits_to_bytes_len(self.chunk_bits)

    def to_bytes(self) -> bytes:
        """Serialise the payload (big-endian, byte aligned)."""
        return int_to_bytes(self.chunk, self.chunk_bits)


@dataclass(frozen=True)
class UncompressedRecord:
    """A type-2 record: (prefix, basis, deviation) with no dictionary hit."""

    prefix: int
    basis: int
    deviation: int
    prefix_bits: int
    basis_bits: int
    deviation_bits: int
    alignment_padding_bits: int = 0

    def __post_init__(self) -> None:
        if self.prefix < 0 or self.prefix >> self.prefix_bits:
            raise CodingError(
                f"prefix {self.prefix:#x} does not fit in {self.prefix_bits} bits"
            )
        if self.basis < 0 or self.basis >> self.basis_bits:
            raise CodingError(
                f"basis {self.basis:#x} does not fit in {self.basis_bits} bits"
            )
        if self.deviation < 0 or self.deviation >> self.deviation_bits:
            raise CodingError(
                f"deviation {self.deviation:#x} does not fit in "
                f"{self.deviation_bits} bits"
            )
        if self.alignment_padding_bits < 0:
            raise CodingError("alignment padding cannot be negative")

    @property
    def record_type(self) -> RecordType:
        return RecordType.UNCOMPRESSED

    @property
    def payload_bits(self) -> int:
        """Information-theoretic payload size (no padding)."""
        return self.prefix_bits + self.basis_bits + self.deviation_bits

    @property
    def padded_bits(self) -> int:
        """Wire payload size: fields plus explicit padding, byte aligned."""
        return align_up(self.payload_bits + self.alignment_padding_bits, 8)

    @property
    def payload_bytes(self) -> int:
        """Wire payload size in bytes."""
        return self.padded_bits // 8

    def to_bytes(self) -> bytes:
        """Serialise prefix | basis | deviation, left-padded to byte alignment."""
        value = (
            ((self.prefix << self.basis_bits) | self.basis) << self.deviation_bits
        ) | self.deviation
        return int_to_bytes(value, self.padded_bits)


@dataclass(frozen=True)
class CompressedRecord:
    """A type-3 record: the basis is replaced by a short identifier."""

    prefix: int
    identifier: int
    deviation: int
    prefix_bits: int
    identifier_bits: int
    deviation_bits: int
    alignment_padding_bits: int = 0

    def __post_init__(self) -> None:
        if self.prefix < 0 or self.prefix >> self.prefix_bits:
            raise CodingError(
                f"prefix {self.prefix:#x} does not fit in {self.prefix_bits} bits"
            )
        if self.identifier < 0 or self.identifier >> self.identifier_bits:
            raise CodingError(
                f"identifier {self.identifier} does not fit in "
                f"{self.identifier_bits} bits"
            )
        if self.deviation < 0 or self.deviation >> self.deviation_bits:
            raise CodingError(
                f"deviation {self.deviation:#x} does not fit in "
                f"{self.deviation_bits} bits"
            )
        if self.alignment_padding_bits < 0:
            raise CodingError("alignment padding cannot be negative")

    @property
    def record_type(self) -> RecordType:
        return RecordType.COMPRESSED

    @property
    def payload_bits(self) -> int:
        """Information-theoretic payload size (no padding)."""
        return self.prefix_bits + self.identifier_bits + self.deviation_bits

    @property
    def padded_bits(self) -> int:
        """Wire payload size: fields plus explicit padding, byte aligned."""
        return align_up(self.payload_bits + self.alignment_padding_bits, 8)

    @property
    def payload_bytes(self) -> int:
        """Wire payload size in bytes."""
        return self.padded_bits // 8

    def to_bytes(self) -> bytes:
        """Serialise prefix | identifier | deviation, byte aligned."""
        value = (
            ((self.prefix << self.identifier_bits) | self.identifier)
            << self.deviation_bits
        ) | self.deviation
        return int_to_bytes(value, self.padded_bits)


GDRecord = Union[RawRecord, UncompressedRecord, CompressedRecord]
