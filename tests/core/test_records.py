"""Tests for the GD record types and their size accounting."""

import pytest

from repro.core.records import (
    CompressedRecord,
    RawRecord,
    RecordType,
    UncompressedRecord,
)
from repro.exceptions import CodingError


class TestRawRecord:
    def test_sizes(self):
        record = RawRecord(chunk=0, chunk_bits=256)
        assert record.record_type is RecordType.RAW
        assert record.payload_bits == 256
        assert record.padded_bits == 256
        assert record.payload_bytes == 32
        assert record.to_bytes() == bytes(32)

    def test_non_aligned_chunk_padding(self):
        record = RawRecord(chunk=1, chunk_bits=15)
        assert record.padded_bits == 16
        assert record.payload_bytes == 2

    def test_rejects_oversized_chunk(self):
        with pytest.raises(CodingError):
            RawRecord(chunk=1 << 16, chunk_bits=16)


class TestUncompressedRecord:
    def _paper_record(self, padding=8):
        return UncompressedRecord(
            prefix=1,
            basis=(1 << 247) - 1,
            deviation=0xAB,
            prefix_bits=1,
            basis_bits=247,
            deviation_bits=8,
            alignment_padding_bits=padding,
        )

    def test_paper_sizes(self):
        # 1 + 247 + 8 field bits + 8 padding bits = 264 bits = 33 bytes,
        # which is the 1.03 "no table" overhead of Figure 3.
        record = self._paper_record()
        assert record.payload_bits == 256
        assert record.padded_bits == 264
        assert record.payload_bytes == 33

    def test_without_padding(self):
        record = self._paper_record(padding=0)
        assert record.padded_bits == 256
        assert record.payload_bytes == 32

    def test_serialisation_layout(self):
        record = UncompressedRecord(
            prefix=1,
            basis=0b1011,
            deviation=0b101,
            prefix_bits=1,
            basis_bits=4,
            deviation_bits=3,
            alignment_padding_bits=0,
        )
        # prefix|basis|deviation = 1 1011 101 = 0xDD
        assert record.to_bytes() == bytes([0b11011101])

    def test_field_range_validation(self):
        with pytest.raises(CodingError):
            UncompressedRecord(
                prefix=2, basis=0, deviation=0,
                prefix_bits=1, basis_bits=4, deviation_bits=3,
            )
        with pytest.raises(CodingError):
            UncompressedRecord(
                prefix=0, basis=0, deviation=0,
                prefix_bits=1, basis_bits=4, deviation_bits=3,
                alignment_padding_bits=-1,
            )

    def test_record_type(self):
        assert self._paper_record().record_type is RecordType.UNCOMPRESSED


class TestCompressedRecord:
    def _paper_record(self):
        return CompressedRecord(
            prefix=1,
            identifier=0x7FFF,
            deviation=0xCD,
            prefix_bits=1,
            identifier_bits=15,
            deviation_bits=8,
        )

    def test_paper_sizes(self):
        # 1 + 15 + 8 bits = 24 bits = 3 bytes: the compressed payload of the
        # paper (0.09 of a 32-byte chunk).
        record = self._paper_record()
        assert record.payload_bits == 24
        assert record.padded_bits == 24
        assert record.payload_bytes == 3

    def test_compression_factor_vs_chunk(self):
        record = self._paper_record()
        assert record.payload_bytes / 32 == pytest.approx(0.09375)

    def test_serialisation_layout(self):
        record = CompressedRecord(
            prefix=1,
            identifier=0b0000000000000001,
            deviation=0x05,
            prefix_bits=1,
            identifier_bits=15,
            deviation_bits=8,
        )
        assert record.to_bytes() == bytes([0b10000000, 0b00000001, 0x05])

    def test_field_range_validation(self):
        with pytest.raises(CodingError):
            CompressedRecord(
                prefix=0, identifier=1 << 15, deviation=0,
                prefix_bits=1, identifier_bits=15, deviation_bits=8,
            )
        with pytest.raises(CodingError):
            CompressedRecord(
                prefix=0, identifier=0, deviation=256,
                prefix_bits=1, identifier_bits=15, deviation_bits=8,
            )

    def test_record_type(self):
        assert self._paper_record().record_type is RecordType.COMPRESSED

    def test_padding_for_unaligned_identifier(self):
        record = CompressedRecord(
            prefix=0,
            identifier=3,
            deviation=1,
            prefix_bits=0,
            identifier_bits=10,
            deviation_bits=4,
            alignment_padding_bits=2,
        )
        assert record.payload_bits == 14
        assert record.padded_bits == 16
