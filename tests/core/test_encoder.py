"""Tests for the GD encoder."""

import pytest

from repro.core.dictionary import BasisDictionary
from repro.core.encoder import EncoderMode, GDEncoder
from repro.core.records import CompressedRecord, RecordType, UncompressedRecord
from repro.core.transform import GDTransform
from repro.exceptions import CodingError, DictionaryError


@pytest.fixture()
def transform():
    return GDTransform(order=4)  # 16-bit chunks keep tests readable


def make_chunks(transform, bases, deviations):
    """Chunks built from (basis index, deviation position) pairs."""
    code = transform.code
    chunks = []
    for basis, position in deviations:
        codeword = code.encode(bases[basis])
        body = codeword if position is None else codeword ^ (1 << position)
        chunks.append(body.to_bytes(transform.chunk_bytes, "big"))
    return chunks


class TestModes:
    def test_mode_parsing(self):
        assert EncoderMode.from_name("static") is EncoderMode.STATIC
        assert EncoderMode.from_name(EncoderMode.DYNAMIC) is EncoderMode.DYNAMIC
        with pytest.raises(CodingError):
            EncoderMode.from_name("bogus")

    def test_no_table_mode_never_compresses(self, transform):
        encoder = GDEncoder(transform, mode="no_table", alignment_padding_bits=0)
        records = encoder.encode_batch([b"\x00\x01", b"\x00\x01", b"\x00\x01"])
        assert all(isinstance(r, UncompressedRecord) for r in records)
        assert encoder.stats.compressed_records == 0

    def test_table_modes_require_dictionary(self, transform):
        with pytest.raises(DictionaryError):
            GDEncoder(transform, mode="dynamic")
        with pytest.raises(DictionaryError):
            GDEncoder(transform, mode="static")

    def test_static_mode_does_not_learn(self, transform):
        dictionary = BasisDictionary(16)
        encoder = GDEncoder(transform, dictionary, mode="static")
        encoder.encode_batch([b"\x12\x34"])
        assert len(dictionary) == 0

    def test_dynamic_mode_learns_and_compresses_repeats(self, transform):
        dictionary = BasisDictionary(16)
        encoder = GDEncoder(transform, dictionary, mode="dynamic")
        first = encoder.encode_batch([b"\x12\x34"])[0]
        second = encoder.encode_batch([b"\x12\x34"])[0]
        assert isinstance(first, UncompressedRecord)
        assert isinstance(second, CompressedRecord)
        assert len(dictionary) == 1

    def test_static_mode_compresses_preloaded_bases(self, transform):
        chunk = b"\x12\x34"
        basis = transform.split(chunk).basis
        dictionary = BasisDictionary(16)
        dictionary.preload(iter([basis.to_bytes(2, "big")]))  # keyed as its row
        encoder = GDEncoder(transform, dictionary, mode="static")
        record = encoder.encode_batch([chunk])[0]
        assert isinstance(record, CompressedRecord)
        assert record.identifier == 0


class TestIdentifierWidth:
    def test_default_width_matches_dictionary(self, transform):
        dictionary = BasisDictionary(1 << 10)
        encoder = GDEncoder(transform, dictionary)
        assert encoder.identifier_bits == 10

    def test_explicit_width_validated_against_capacity(self, transform):
        dictionary = BasisDictionary(1 << 10)
        with pytest.raises(DictionaryError):
            GDEncoder(transform, dictionary, identifier_bits=8)

    def test_records_carry_the_configured_width(self, transform):
        dictionary = BasisDictionary(1 << 6)
        encoder = GDEncoder(transform, dictionary, identifier_bits=6)
        encoder.encode_batch([b"\x12\x34"])
        record = encoder.encode_batch([b"\x12\x34"])[0]
        assert isinstance(record, CompressedRecord)
        assert record.identifier_bits == 6


class TestDynamicLearning:
    def test_learned_basis_compresses_from_the_next_chunk(self, transform):
        dictionary = BasisDictionary(16)
        encoder = GDEncoder(transform, dictionary, mode="dynamic")
        chunk = b"\x12\x34"
        encoder.encode_batch([chunk])
        assert encoder.encode_batch([chunk])[0].record_type is RecordType.COMPRESSED


class TestStats:
    def test_paper_ratios_from_stats(self):
        transform = GDTransform(order=8)
        dictionary = BasisDictionary(1 << 15)
        encoder = GDEncoder(
            transform, dictionary, mode="dynamic", alignment_padding_bits=8
        )
        chunk = bytes(31) + b"\x01"
        encoder.encode_batch([chunk])
        for _ in range(99):
            encoder.encode_batch([chunk])
        stats = encoder.stats
        assert stats.chunks == 100
        assert stats.uncompressed_records == 1
        assert stats.compressed_records == 99
        # 1 × 33 B + 99 × 3 B over 100 × 32 B.
        expected = (33 + 99 * 3) / (100 * 32)
        assert stats.compression_ratio == pytest.approx(expected)
        assert stats.unpadded_ratio < stats.compression_ratio
        assert stats.input_bits == 3200 * 8
        assert stats.output_padded_bits == (33 + 99 * 3) * 8

    def test_stats_as_dict(self, transform):
        encoder = GDEncoder(transform, BasisDictionary(16))
        encoder.encode_batch([b"\x12\x34"])
        assert encoder.stats.as_dict()["chunks"] == 1

    def test_empty_stats_ratios(self, transform):
        encoder = GDEncoder(transform, BasisDictionary(4))
        assert encoder.stats.compression_ratio == 0.0
        assert encoder.stats.unpadded_ratio == 0.0


class TestSharedBasis:
    def test_chunks_sharing_a_basis_share_an_identifier(self, transform, rng):
        code = transform.code
        basis = rng.getrandbits(code.k)
        codeword = code.encode(basis)
        chunks = [
            (codeword ^ (1 << position)).to_bytes(2, "big")
            for position in range(0, code.n, 3)
        ]
        dictionary = BasisDictionary(16)
        encoder = GDEncoder(transform, dictionary)
        records = encoder.encode_batch(chunks)
        identifiers = {
            record.identifier
            for record in records
            if isinstance(record, CompressedRecord)
        }
        assert identifiers == {0}
        assert len(dictionary) == 1
