"""Tests for the GD transformation (chunk ⇄ prefix/basis/deviation)."""

import pytest

from repro.core.encoder import GDEncoder
from repro.core.transform import GDParts, GDTransform
from repro.exceptions import ChunkSizeError, CodingError


class TestConfiguration:
    def test_paper_configuration(self, paper_transform):
        assert paper_transform.order == 8
        assert paper_transform.chunk_bits == 256
        assert paper_transform.chunk_bytes == 32
        assert paper_transform.prefix_bits == 1
        assert paper_transform.basis_bits == 247
        assert paper_transform.deviation_bits == 8

    def test_parts_fill_the_chunk_exactly(self, paper_transform):
        # "Applying GD does not introduce additional bits" (Section 7).
        transform = paper_transform
        assert (
            transform.prefix_bits + transform.basis_bits + transform.deviation_bits
            == transform.chunk_bits
        )

    def test_small_configuration(self, small_transform):
        assert small_transform.chunk_bits == 16
        assert small_transform.prefix_bits == 1
        assert small_transform.basis_bits == 11
        assert small_transform.deviation_bits == 4

    def test_custom_chunk_bits(self):
        transform = GDTransform(order=4, chunk_bits=24)
        assert transform.prefix_bits == 24 - 15

    def test_exact_code_length_chunk(self):
        transform = GDTransform(order=4, chunk_bits=15)
        assert transform.prefix_bits == 0

    def test_chunk_bits_below_code_length_rejected(self):
        with pytest.raises(CodingError):
            GDTransform(order=4, chunk_bits=14)

    def test_transforms_naming_one_code_share_it(self):
        """One ``HammingCode`` per order and polynomial per process: its
        syndrome table is built once, whoever builds a transform."""
        paper = GDTransform(order=8)
        assert GDTransform(order=8, chunk_bits=264).code is paper.code
        assert GDTransform(order=8, polynomial=paper.code.full_polynomial).code is (
            GDTransform(order=8, polynomial=paper.code.full_polynomial).code
        )
        assert GDTransform(order=5).code is not paper.code

    def test_repr_mentions_parameters(self, paper_transform):
        assert "order=8" in repr(paper_transform)
        assert "k=247" in repr(paper_transform)


class TestSplitJoin:
    def test_roundtrip_bytes(self, paper_transform, rng):
        for _ in range(100):
            chunk = rng.getrandbits(256).to_bytes(32, "big")
            parts = paper_transform.split(chunk)
            assert paper_transform.join(parts).to_bytes(32, "big") == chunk

    def test_roundtrip_int_and_bytes(self, small_transform, rng):
        for _ in range(100):
            value = rng.getrandbits(16)
            data = value.to_bytes(2, "big")
            parts_from_int = small_transform.split(value)
            for chunk in (data, bytearray(data), memoryview(data)):
                assert small_transform.split(chunk) == parts_from_int
            assert small_transform.join(parts_from_int) == value

    def test_exhaustive_small_transform_bijection(self, small_transform):
        seen = set()
        for value in range(1 << 16):
            parts = small_transform.split(value)
            key = (parts.prefix, parts.basis, parts.deviation)
            assert key not in seen
            seen.add(key)
            assert small_transform.join(parts) == value
        assert len(seen) == 1 << 16

    def test_prefix_is_msb(self, paper_transform):
        chunk_with_msb = (1 << 255).to_bytes(32, "big")
        parts = paper_transform.split(chunk_with_msb)
        assert parts.prefix == 1
        parts_zero = paper_transform.split(bytes(32))
        assert parts_zero.prefix == 0

    def test_basis_ignores_the_prefix(self, paper_transform, rng):
        basis = rng.getrandbits(247)
        codeword = paper_transform.code.encode(basis)
        with_msb = ((1 << 255) | codeword).to_bytes(32, "big")
        without_msb = codeword.to_bytes(32, "big")
        assert paper_transform.split(with_msb).basis == basis
        assert paper_transform.split(without_msb).basis == basis

    def test_join_fields(self, small_transform, rng):
        value = rng.getrandbits(16)
        parts = small_transform.split(value)
        assert (
            small_transform.join_fields(parts.prefix, parts.basis, parts.deviation)
            == value
        )

    def test_split_batch_multi_chunk(self, paper_transform, rng):
        data = rng.getrandbits(256 * 5).to_bytes(32 * 5, "big")
        parts = paper_transform.split_batch(data)
        assert len(parts) == 5
        restored = b"".join(paper_transform.join(p).to_bytes(32, "big") for p in parts)
        assert restored == data


#: Not a 16-bit chunk of ``small_transform``: a chunk is an int or a
#: bytes-like of exactly ``chunk_bytes``; a ``(value, width)`` pair is a
#: field, not a chunk.
NOT_A_CHUNK = {
    "short-bytes": b"\x00",
    "long-bytes": b"\x00\x00\x00",
    "empty-bytes": b"",
    "short-bytearray": bytearray(1),
    "long-memoryview": memoryview(bytes(3)),
    "oversized-int": 1 << 16,
    "negative-int": -1,
    "float": 3.14,
    "str": "ab",
    "none": None,
    "int-list": [0, 0],
    "value-width-pair": (0, 16),
}


class TestValidation:
    @pytest.mark.parametrize("entry", ["split", "split_fields", "encode_batch"])
    @pytest.mark.parametrize("chunk", NOT_A_CHUNK.values(), ids=NOT_A_CHUNK.keys())
    def test_non_chunk_rejected(self, small_transform, entry, chunk):
        if entry == "encode_batch":
            encoder = GDEncoder(small_transform, mode="no_table")
            with pytest.raises(ChunkSizeError):
                encoder.encode_batch([chunk])
            return
        with pytest.raises(ChunkSizeError):
            getattr(small_transform, entry)(chunk)

    def test_wrong_byte_length_rejected_at_paper_size(self, paper_transform):
        with pytest.raises(ChunkSizeError):
            paper_transform.split(b"\x00" * 31)

    def test_join_checks_part_widths(self, small_transform, paper_transform):
        parts = paper_transform.split(bytes(32))
        with pytest.raises(CodingError):
            small_transform.join(parts)

    def test_parts_validate_field_ranges(self):
        with pytest.raises(CodingError):
            GDParts(prefix=2, basis=0, deviation=0, prefix_bits=1, basis_bits=4, deviation_bits=3)
        with pytest.raises(CodingError):
            GDParts(prefix=0, basis=16, deviation=0, prefix_bits=1, basis_bits=4, deviation_bits=3)
        with pytest.raises(CodingError):
            GDParts(prefix=0, basis=0, deviation=8, prefix_bits=1, basis_bits=4, deviation_bits=3)

    def test_parts_zero_prefix_bits(self):
        parts = GDParts(
            prefix=0, basis=3, deviation=1, prefix_bits=0, basis_bits=4, deviation_bits=3
        )
        assert parts.chunk_bits == 7
