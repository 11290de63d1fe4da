"""Tests for the high-level GDCodec."""

import pytest

from repro.core.codec import GDCodec
from repro.exceptions import ChunkSizeError, CodingError

from gd_oracle import roundtrip


def clustered_data(codec, bases, count, rng):
    """Data whose chunks share the given bases (codeword ± one bit)."""
    code = codec.transform.code
    chunks = []
    for index in range(count):
        codeword = code.encode(bases[index % len(bases)])
        position = rng.randrange(code.n + 1)
        body = codeword if position == code.n else codeword ^ (1 << position)
        chunks.append(body.to_bytes(codec.chunk_bytes, "big"))
    return b"".join(chunks)


class TestConstruction:
    def test_paper_defaults(self):
        codec = GDCodec()
        assert codec.transform.order == 8
        assert codec.chunk_bytes == 32
        assert codec.identifier_bits == 15

    def test_invalid_identifier_bits(self):
        with pytest.raises(CodingError):
            GDCodec(identifier_bits=0)

    def test_static_requires_bases(self):
        with pytest.raises(CodingError):
            GDCodec(mode="static")

    def test_clone_preserves_parameters(self):
        codec = GDCodec(order=4, identifier_bits=6, alignment_padding_bits=8)
        clone = codec.clone()
        assert clone.transform.order == 4
        assert clone.identifier_bits == 6
        assert clone.encoder.alignment_padding_bits == 8


class TestChunking:
    def test_exact_multiple_is_whole_chunks(self):
        codec = GDCodec(order=4)
        assert len(codec.compress(b"\x00" * 6).records) == 3

    def test_ragged_length_requires_padding_flag(self):
        codec = GDCodec(order=4)
        with pytest.raises(ChunkSizeError):
            codec.compress(b"\x00" * 5)
        result = codec.compress(b"\x00" * 5, pad=True)
        assert len(result.records) == 3
        assert result.original_bytes == 5


class TestCompressionModes:
    def test_dynamic_roundtrip_and_ratio(self, rng):
        codec = GDCodec(order=8, alignment_padding_bits=8)
        bases = [rng.getrandbits(247) for _ in range(4)]
        data = clustered_data(codec, bases, 500, rng)
        result = codec.compress(data)
        assert codec.decompress_records(result.records, len(data)) == data
        assert result.compression_ratio < 0.12
        assert result.compressed_record_fraction > 0.95

    def test_static_matches_paper_ratio(self, rng):
        bases = [rng.getrandbits(247) for _ in range(4)]
        codec = GDCodec(
            order=8, mode="static", static_bases=bases, alignment_padding_bits=8
        )
        data = clustered_data(codec, bases, 200, rng)
        result = codec.compress(data)
        # Every chunk compresses: 3 bytes out of 32 (the paper's 0.09).
        assert result.compression_ratio == pytest.approx(3 / 32)

    def test_no_table_matches_paper_overhead(self, rng):
        codec = GDCodec(order=8, mode="no_table", alignment_padding_bits=8)
        bases = [rng.getrandbits(247) for _ in range(2)]
        data = clustered_data(codec, bases, 100, rng)
        result = codec.compress(data)
        # 33 bytes out of 32: the 1.03 padding-only overhead of Figure 3.
        assert result.compression_ratio == pytest.approx(33 / 32)
        assert result.compressed_record_fraction == 0.0

    def test_roundtrip_without_padding(self, rng):
        codec = GDCodec(order=4)
        data = bytes(rng.getrandbits(8) for _ in range(2 * 100))
        assert roundtrip(codec, data) == data

    def test_roundtrip_with_final_partial_chunk(self, rng):
        codec = GDCodec(order=4)
        data = bytes(rng.getrandbits(8) for _ in range(33))
        assert roundtrip(codec, data, pad=True) == data


class TestContainers:
    def test_container_roundtrip_fresh_codec(self, rng):
        codec = GDCodec(order=8, alignment_padding_bits=8)
        bases = [rng.getrandbits(247) for _ in range(3)]
        data = clustered_data(codec, bases, 120, rng)
        blob = codec.compress_to_container(data)
        restored = GDCodec(order=8, alignment_padding_bits=8).decompress_container(blob)
        assert restored == data

    def test_container_is_self_contained_despite_prior_state(self, rng):
        codec = GDCodec(order=8, alignment_padding_bits=8)
        bases = [rng.getrandbits(247) for _ in range(3)]
        data = clustered_data(codec, bases, 60, rng)
        codec.compress(data)  # warm up the encoder dictionary
        blob = codec.compress_to_container(data)
        fresh = GDCodec(order=8, alignment_padding_bits=8)
        assert fresh.decompress_container(blob) == data

    def test_container_header_mismatch_detected(self, rng):
        codec_a = GDCodec(order=8)
        codec_b = GDCodec(order=4)
        blob = codec_a.compress_to_container(bytes(64))
        with pytest.raises(CodingError):
            codec_b.decompress_container(blob)

    def test_container_identifier_width_mismatch(self):
        blob = GDCodec(order=4, identifier_bits=6).compress_to_container(bytes(8))
        with pytest.raises(CodingError):
            GDCodec(order=4, identifier_bits=7).decompress_container(blob)

    def test_container_bad_magic(self):
        codec = GDCodec(order=4)
        with pytest.raises(CodingError):
            codec.decompress_container(b"NOPE" + bytes(32))
        with pytest.raises(CodingError):
            codec.decompress_container(b"\x00" * 4)

    def test_container_truncation_detected(self, rng):
        codec = GDCodec(order=4)
        blob = codec.compress_to_container(bytes(16))
        with pytest.raises(CodingError):
            codec.decompress_container(blob[:-1])

    def test_from_container_header(self):
        blob = GDCodec(order=4, identifier_bits=6).compress_to_container(bytes(8))
        rebuilt = GDCodec.from_container_header(blob)
        assert rebuilt.transform.order == 4
        assert rebuilt.identifier_bits == 6

    def test_container_sizes_reported(self, rng):
        codec = GDCodec(order=8, alignment_padding_bits=8)
        bases = [rng.getrandbits(247)]
        data = clustered_data(codec, bases, 50, rng)
        result = codec.compress(data)
        blob = codec.to_container(result)
        assert result.container_bytes == len(blob)
