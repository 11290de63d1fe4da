"""Tests for the GD decoder."""

import pytest

from repro.core.decoder import GDDecoder
from repro.core.dictionary import BasisDictionary
from repro.core.encoder import GDEncoder
from repro.core.records import CompressedRecord, RawRecord, UncompressedRecord
from repro.core.transform import GDTransform
from repro.exceptions import CodingError, DictionaryError


@pytest.fixture()
def transform():
    return GDTransform(order=4)


def encoded_stream(transform, chunks):
    """Encode chunks with a fresh dynamic encoder, returning the records."""
    encoder = GDEncoder(transform, BasisDictionary(64), mode="dynamic")
    return encoder.encode_batch(chunks)


class TestDecodeRecords:
    def test_uncompressed_roundtrip(self, transform, rng):
        decoder = GDDecoder(transform, BasisDictionary(64))
        for _ in range(50):
            chunk = rng.getrandbits(16).to_bytes(2, "big")
            parts = transform.split(chunk)
            record = UncompressedRecord(
                prefix=parts.prefix,
                basis=parts.basis,
                deviation=parts.deviation,
                prefix_bits=parts.prefix_bits,
                basis_bits=parts.basis_bits,
                deviation_bits=parts.deviation_bits,
            )
            assert decoder.decode_batch_to_bytes([record]) == chunk

    def test_raw_record_passthrough(self, transform):
        decoder = GDDecoder(transform)
        record = RawRecord(chunk=0x1234, chunk_bits=16)
        assert decoder.decode_batch([record])[0] == 0x1234
        assert decoder.stats.raw_records == 1

    def test_compressed_requires_dictionary(self, transform):
        decoder = GDDecoder(transform, dictionary=None)
        record = CompressedRecord(
            prefix=0, identifier=0, deviation=0,
            prefix_bits=1, identifier_bits=6, deviation_bits=4,
        )
        with pytest.raises(DictionaryError):
            decoder.decode_batch([record])

    def test_unknown_identifier_raises_and_counts(self, transform):
        decoder = GDDecoder(transform, BasisDictionary(64))
        record = CompressedRecord(
            prefix=0, identifier=7, deviation=0,
            prefix_bits=1, identifier_bits=6, deviation_bits=4,
        )
        with pytest.raises(DictionaryError):
            decoder.decode_batch([record])
        assert decoder.stats.unknown_identifiers == 1

    def test_unsupported_record_type(self, transform):
        decoder = GDDecoder(transform)
        with pytest.raises(CodingError):
            decoder.decode_batch(["not a record"])

    def test_width_mismatch_rejected(self, transform):
        other = GDTransform(order=3)
        decoder = GDDecoder(transform, BasisDictionary(64))
        parts = other.split(0b0101010)
        record = UncompressedRecord(
            prefix=parts.prefix,
            basis=parts.basis,
            deviation=parts.deviation,
            prefix_bits=parts.prefix_bits,
            basis_bits=parts.basis_bits,
            deviation_bits=parts.deviation_bits,
        )
        with pytest.raises(CodingError):
            decoder.decode_batch([record])


class TestEncoderDecoderPairing:
    def test_learning_decoder_tracks_dynamic_encoder(self, transform, rng):
        chunks = []
        code = transform.code
        bases = [rng.getrandbits(code.k) for _ in range(5)]
        for index in range(200):
            codeword = code.encode(bases[index % 5])
            body = codeword ^ (1 << rng.randrange(code.n)) if index % 3 else codeword
            chunks.append(body.to_bytes(2, "big"))
        records = encoded_stream(transform, chunks)
        decoder = GDDecoder(transform, BasisDictionary(64))
        restored = [
            value.to_bytes(transform.chunk_bytes, "big")
            for value in decoder.decode_batch(records)
        ]
        assert restored == chunks
        assert decoder.stats.records == 200
        assert decoder.stats.compressed_records > 0

    def test_decode_batch_to_bytes_concatenates(self, transform):
        chunks = [b"\x12\x34", b"\x12\x34", b"\x56\x78"]
        records = encoded_stream(transform, chunks)
        decoder = GDDecoder(transform, BasisDictionary(64))
        assert decoder.decode_batch_to_bytes(records) == b"".join(chunks)

    def test_shared_dictionary_zero_latency_model(self, transform):
        # Encoder and decoder sharing one dictionary models the original
        # register-based design with instantaneous learning.
        shared = BasisDictionary(64)
        encoder = GDEncoder(transform, shared, mode="dynamic")
        decoder = GDDecoder(transform, shared, learn_from_uncompressed=False)
        chunks = [b"\xAA\x55"] * 4
        records = encoder.encode_batch(chunks)
        assert decoder.decode_batch_to_bytes(records) == b"".join(chunks)

    def test_eviction_stays_consistent_between_sides(self, transform, rng):
        # A tiny dictionary forces evictions; decoder recency tracking must
        # keep both sides aligned so decoding still succeeds.
        code = transform.code
        bases = [rng.getrandbits(code.k) for _ in range(8)]
        chunks = []
        for index in range(400):
            basis = bases[rng.randrange(len(bases))]
            codeword = code.encode(basis)
            chunks.append(codeword.to_bytes(2, "big"))
        encoder = GDEncoder(transform, BasisDictionary(4), mode="dynamic")
        decoder = GDDecoder(transform, BasisDictionary(4))
        records = encoder.encode_batch(chunks)
        restored = [
            value.to_bytes(2, "big") for value in decoder.decode_batch(records)
        ]
        assert restored == chunks
        assert encoder.dictionary.stats.evictions > 0


class TestInstalledBasisGuard:
    """External installs can put anything under an identifier; what the
    dictionary resolves is re-checked against the basis width, once per
    batch, and the error names the first misfit in record order.  A basis
    is keyed as its row: ``ceil(11 / 8) = 2`` big-endian bytes at order 4."""

    def _records(self, transform, identifiers):
        return [
            CompressedRecord(
                prefix=0, identifier=identifier, deviation=0,
                prefix_bits=transform.prefix_bits, identifier_bits=6,
                deviation_bits=transform.deviation_bits,
            )
            for identifier in identifiers
        ]

    @pytest.mark.parametrize(
        "misfit",
        [b"\x08\x00", b"\xff\xff", b"\x01", b"\x00\x00\x01", 5, -1, 2.0, (0, 1)],
        ids=repr,
    )
    def test_first_misfit_is_named(self, transform, misfit):
        dictionary = BasisDictionary(64)
        dictionary.insert_with_identifier(b"\x00\x05", 0)
        dictionary.insert_with_identifier(misfit, 1)
        dictionary.insert_with_identifier(b"\x10\x00", 2)  # a later, other misfit
        decoder = GDDecoder(transform, dictionary)
        with pytest.raises(CodingError) as raised:
            decoder.decode_batch(self._records(transform, [0, 1, 2, 0]))
        assert str(raised.value) == f"basis {misfit!r} does not fit in 11 bits"
        assert decoder.stats.records == 0

    def test_the_widest_row_fits(self, transform):
        dictionary = BasisDictionary(64)
        dictionary.insert_with_identifier(b"\x07\xff", 0)
        decoder = GDDecoder(transform, dictionary)
        assert decoder.decode_batch(self._records(transform, [0])) == [
            transform.join_fields(0, (1 << 11) - 1, 0)
        ]

    def test_misfit_before_an_unmapped_identifier_wins(self, transform):
        dictionary = BasisDictionary(64)
        dictionary.insert_with_identifier(b"\x08\x00", 0)
        decoder = GDDecoder(transform, dictionary)
        with pytest.raises(CodingError, match="does not fit"):
            decoder.decode_batch(self._records(transform, [0, 9]))
        assert decoder.stats.unknown_identifiers == 0
        with pytest.raises(DictionaryError, match="identifier 9 is not mapped"):
            decoder.decode_batch(self._records(transform, [9, 0]))
        assert decoder.stats.unknown_identifiers == 1
