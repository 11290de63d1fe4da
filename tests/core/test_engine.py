"""Streaming compression engine: protocol conformance and round trips."""

import random

import pytest

from repro.core.codec import GDCodec
from repro.core.engine import (
    Compressor,
    DedupStreamCompressor,
    GDStreamCompressor,
    GzipStreamCompressor,
    NullStreamCompressor,
    compress_bytes,
    compress_file,
    decompress_bytes,
    decompress_file,
    iter_file_blocks,
)
from repro.exceptions import CodingError

ALL_COMPRESSORS = [
    GDStreamCompressor,
    GzipStreamCompressor,
    DedupStreamCompressor,
    NullStreamCompressor,
]


def clustered_payload(total_bytes: int, seed: int = 11, bases: int = 8) -> bytes:
    """Sensor-like payload: 32-byte chunks around a few bases, one flip each."""
    rng = random.Random(seed)
    population = [rng.getrandbits(247) for _ in range(bases)]
    out = bytearray()
    while len(out) < total_bytes:
        basis = rng.choice(population)
        chunk = basis ^ (1 << rng.randrange(255))
        out += ((rng.getrandbits(1) << 255) | chunk).to_bytes(32, "big")
    return bytes(out[:total_bytes])


def as_blocks(data: bytes, block_size: int):
    return [data[offset : offset + block_size] for offset in range(0, len(data), block_size)]


class TestProtocol:
    @pytest.mark.parametrize("factory", ALL_COMPRESSORS)
    def test_satisfies_compressor_protocol(self, factory):
        compressor = factory()
        assert isinstance(compressor, Compressor)
        assert compressor.name
        assert isinstance(compressor.magic, bytes)

    @pytest.mark.parametrize("factory", ALL_COMPRESSORS)
    def test_output_starts_with_magic(self, factory):
        compressor = factory()
        blob = compress_bytes(compressor, b"x" * 64)
        assert blob.startswith(compressor.magic)


class TestRoundTrips:
    @pytest.mark.parametrize("factory", ALL_COMPRESSORS)
    @pytest.mark.parametrize("size", [0, 1, 31, 32, 33, 4096, 65537])
    def test_roundtrip_various_sizes(self, factory, size):
        data = clustered_payload(size) if size else b""
        compressor = factory()
        blob = compress_bytes(compressor, data)
        assert decompress_bytes(factory(), blob) == data

    @pytest.mark.parametrize("factory", ALL_COMPRESSORS)
    def test_one_mebibyte_stream_stays_bounded(self, factory):
        """A 1 MiB stream round-trips without materialising the input.

        The input is a generator (consumed lazily, cannot be replayed) and
        the compressed blocks are re-fragmented before decompression, so
        both directions must work purely incrementally.
        """
        total = 1024 * 1024
        data = clustered_payload(total)
        compressor = factory()

        consumed = []

        def producer():
            for block in as_blocks(data, 8192):
                consumed.append(len(block))
                yield block

        compressed = list(compressor.compress_stream(producer()))
        assert sum(consumed) == total
        # No compressor may buffer everything and emit a single block at the
        # end: compression must have produced output incrementally.
        assert len(compressed) > 2

        refragmented = as_blocks(b"".join(compressed), 1000)
        restored = bytearray()
        for block in factory().decompress_stream(iter(refragmented)):
            restored += block
        assert bytes(restored) == data

    @pytest.mark.parametrize("factory", ALL_COMPRESSORS)
    def test_byte_at_a_time_decompression(self, factory):
        """Worst-case fragmentation: the decoder sees one byte per block."""
        data = clustered_payload(2048)
        blob = compress_bytes(factory(), data)
        stream = factory().decompress_stream(bytes([b]) for b in blob)
        assert b"".join(stream) == data


class TestGDStream:
    def test_reads_codec_containers(self):
        data = clustered_payload(4096)
        container = GDCodec(order=8, identifier_bits=15).compress_to_container(data)
        assert decompress_bytes(GDStreamCompressor(), container) == data

    def test_streamed_container_accepted_by_codec_reader(self):
        data = clustered_payload(256)
        blob = compress_bytes(GDStreamCompressor(), data)
        codec = GDCodec.from_container_header(blob)
        assert codec.decompress_container(blob) == data

    def test_header_carries_parameters(self):
        """A stream written with non-default parameters decodes on its own."""
        data = clustered_payload(2048)
        blob = compress_bytes(GDStreamCompressor(order=8, identifier_bits=10), data)
        assert decompress_bytes(GDStreamCompressor(), blob) == data

    def test_truncated_stream_raises(self):
        blob = compress_bytes(GDStreamCompressor(), clustered_payload(1024))
        with pytest.raises(CodingError):
            decompress_bytes(GDStreamCompressor(), blob[:-4])

    def test_trailing_garbage_raises(self):
        blob = compress_bytes(GDStreamCompressor(), clustered_payload(1024))
        with pytest.raises(CodingError):
            decompress_bytes(GDStreamCompressor(), blob + b"junk")

    def test_crafted_huge_identifier_width_stays_bounded(self):
        """A hostile GDZ1 header (identifier_bits=255) must fail cleanly,
        not allocate a 2**255-entry identifier pool — dictionary identifier
        allocation is lazy, so capacity costs no memory up front."""
        from repro.core.wire import FLAG_STREAMED, HEADER
        from repro.exceptions import ReproError

        header = HEADER.pack(b"GDZ1", 8, 256, 255, FLAG_STREAMED, 0, 0)
        # A type-3 record referencing an identifier that was never mapped.
        record = bytes([3]) + b"\x00" * 33
        with pytest.raises(ReproError):
            decompress_bytes(GDStreamCompressor(), header + record)

    def test_compression_beats_half_on_clustered_data(self):
        data = clustered_payload(256 * 1024)
        blob = compress_bytes(GDStreamCompressor(), data)
        assert len(blob) < len(data) / 2

    def test_static_mode_roundtrips_through_same_configuration(self):
        """A static-table stream decodes with an identically configured
        compressor (the decoder preloads the same bases)."""
        from repro.core.transform import GDTransform

        data = clustered_payload(8192)
        transform = GDTransform(order=8)
        bases = {transform.split(data[i : i + 32]).basis for i in range(0, len(data), 32)}
        factory = lambda: GDStreamCompressor(mode="static", static_bases=sorted(bases))
        blob = compress_bytes(factory(), data)
        assert decompress_bytes(factory(), blob) == data
        # Static hits make every record type 3: far smaller than dynamic.
        assert len(blob) < len(compress_bytes(GDStreamCompressor(), data))

    def test_seeded_random_eviction_roundtrips_under_pressure(self):
        """Random-eviction streams decode when the decoder shares the seed."""
        data = clustered_payload(128 * 1024, bases=600)
        factory = lambda: GDStreamCompressor(
            identifier_bits=4, eviction_policy="random", eviction_seed=7
        )
        blob = compress_bytes(factory(), data)
        assert decompress_bytes(factory(), blob) == data

    @pytest.mark.parametrize("factory", [GDStreamCompressor, DedupStreamCompressor])
    def test_unseeded_random_eviction_rejected(self, factory):
        """Streaming with random eviction and no seed would silently corrupt
        once the dictionary fills (compressor and decompressor draw different
        eviction sequences) — construction must fail loudly instead."""
        from repro.exceptions import ReproError

        with pytest.raises(ReproError, match="eviction_seed"):
            factory(eviction_policy="random")

    def test_reads_codec_containers_with_alignment_padding(self):
        """The header carries the padding width, so the ZipLine-accounting
        configuration (8 padding bits on type-2 records) round-trips too."""
        data = clustered_payload(4096)
        codec = GDCodec(order=8, identifier_bits=15, alignment_padding_bits=8)
        container = codec.compress_to_container(data)
        assert decompress_bytes(GDStreamCompressor(), container) == data


class TestGzipStream:
    def test_concatenated_members_decode_like_gunzip(self):
        first = compress_bytes(GzipStreamCompressor(), b"alpha" * 100)
        second = compress_bytes(GzipStreamCompressor(), b"beta" * 100)
        restored = decompress_bytes(GzipStreamCompressor(), first + second)
        assert restored == b"alpha" * 100 + b"beta" * 100

    def test_trailing_garbage_raises(self):
        blob = compress_bytes(GzipStreamCompressor(), b"payload" * 50)
        with pytest.raises(CodingError):
            decompress_bytes(GzipStreamCompressor(), blob + b"garbage!")

    def test_truncated_stream_raises(self):
        blob = compress_bytes(GzipStreamCompressor(), b"payload" * 50)
        with pytest.raises(CodingError):
            decompress_bytes(GzipStreamCompressor(), blob[:-2])

    @pytest.mark.parametrize("level", [1, 6, 9])
    def test_whole_file_size_is_the_gzip_tools(self, level, rng):
        """The stream fed chunk by chunk is as long as ``gzip`` over the
        joined file: what Figure 3's gzip bar counts."""
        import gzip

        noisy = [rng.getrandbits(256).to_bytes(32, "big") for _ in range(100)]
        for chunks in ([bytes([i % 7] * 32) for i in range(500)], noisy, [], [b""]):
            stream = GzipStreamCompressor(level).compress_stream(chunks)
            joined = b"".join(chunks)
            assert sum(map(len, stream)) == len(gzip.compress(joined, compresslevel=level))

    def test_redundant_chunks_compress_to_under_five_percent(self):
        data = b"".join(bytes([i % 4] * 32) for i in range(1000))
        assert len(compress_bytes(GzipStreamCompressor(), data)) < 0.05 * len(data)

    def test_incompressible_data_stays_near_its_size(self, rng):
        data = bytes(rng.getrandbits(8) for _ in range(4096))
        assert len(compress_bytes(GzipStreamCompressor(), data)) > 0.9 * len(data)

    def test_one_stream_per_chunk_is_much_worse_for_small_chunks(self, rng):
        """Realistic (high-entropy) 32-byte chunks: compressing each chunk on
        its own cannot exploit cross-chunk redundancy, which is the paper's
        argument for GD on small data."""
        base = rng.getrandbits(256)
        chunks = [
            (base ^ (1 << rng.randrange(256))).to_bytes(32, "big") for _ in range(200)
        ]
        total = 32 * len(chunks)
        whole = len(compress_bytes(GzipStreamCompressor(), b"".join(chunks)))
        per_chunk = sum(len(compress_bytes(GzipStreamCompressor(), c)) for c in chunks)
        assert per_chunk > whole
        assert per_chunk > 0.9 * total

    @pytest.mark.parametrize("level", [-1, 0, 10])
    def test_level_must_be_in_1_to_9(self, level):
        from repro.exceptions import ReproError

        with pytest.raises(ReproError, match="level"):
            GzipStreamCompressor(level)


class TestDedupStream:
    #: Header, end tag; a full literal is tag + chunk.
    _FRAMING = DedupStreamCompressor._HEADER.size + 1
    _LITERAL = 1 + 32

    def test_identical_chunks_cost_one_literal_then_references(self):
        blob = compress_bytes(DedupStreamCompressor(identifier_bits=15), b"\x01" * 32 * 100)
        assert len(blob) == self._FRAMING + self._LITERAL + 99 * (1 + 2)
        assert decompress_bytes(DedupStreamCompressor(), blob) == b"\x01" * 32 * 100

    @pytest.mark.parametrize("identifier_bits", [1, 8, 9, 16, 32])
    def test_reference_width_follows_identifier_bits(self, identifier_bits):
        compressor = DedupStreamCompressor(identifier_bits=identifier_bits)
        blob = compress_bytes(compressor, bytes(range(32)) * 2)
        reference = 1 + (identifier_bits + 7) // 8
        assert len(blob) == self._FRAMING + self._LITERAL + reference
        assert decompress_bytes(DedupStreamCompressor(), blob) == bytes(range(32)) * 2

    def test_full_dictionary_evicts_the_least_recently_used_chunk(self):
        a, b, c = (bytes([value]) * 32 for value in (1, 2, 3))
        data = a + b + a + c + a + b  # c evicts b (a was just referenced)
        blob = compress_bytes(DedupStreamCompressor(identifier_bits=1), data)
        literals, references = 4, 2  # a b c b; the two later a's
        assert len(blob) == self._FRAMING + literals * self._LITERAL + references * 2
        assert decompress_bytes(DedupStreamCompressor(), blob) == data

    def test_single_bit_noise_defeats_dedup_but_not_gd(self, rng):
        """One flipped bit per chunk leaves exact deduplication little to
        match while GD maps every chunk to the same basis: the core
        motivation for GD."""
        codec = GDCodec(order=8, identifier_bits=15, alignment_padding_bits=8)
        codeword = codec.transform.code.encode(rng.getrandbits(247))
        data = b"".join(
            (codeword ^ (1 << rng.randrange(255))).to_bytes(32, "big") for _ in range(200)
        )
        dedup = len(compress_bytes(DedupStreamCompressor(identifier_bits=15), data))
        gd = codec.compress(data)
        assert gd.compressed_record_fraction > 0.95
        assert dedup > 0.6 * len(data)
        assert gd.compression_ratio < dedup / len(data)

    @pytest.mark.parametrize(
        "parameters",
        [
            {"chunk_bytes": 0},
            {"chunk_bytes": 0x10000},
            {"identifier_bits": 0},
            {"identifier_bits": 33},
        ],
        ids=lambda parameters: "-".join(f"{k}={v}" for k, v in parameters.items()),
    )
    def test_out_of_range_parameters_rejected(self, parameters):
        from repro.exceptions import ReproError

        with pytest.raises(ReproError, match=next(iter(parameters))):
            DedupStreamCompressor(**parameters)

    def test_duplicate_heavy_stream_compresses(self):
        chunk = bytes(range(32))
        data = chunk * 4096
        blob = compress_bytes(DedupStreamCompressor(), data)
        assert len(blob) < len(data) / 8
        assert decompress_bytes(DedupStreamCompressor(), blob) == data

    def test_unknown_tag_raises(self):
        compressor = DedupStreamCompressor()
        header = compress_bytes(compressor, b"")[: compressor._HEADER.size]
        with pytest.raises(CodingError):
            decompress_bytes(DedupStreamCompressor(), header + b"\xff")

    @pytest.mark.parametrize("chunk_size,identifier_bits", [(32, 255), (32, 0), (0, 15)])
    def test_crafted_header_fields_rejected(self, chunk_size, identifier_bits):
        """Out-of-range header fields raise instead of sizing a dictionary
        from untrusted input (identifier_bits=255 would otherwise try to
        allocate a 2**255-entry identifier space)."""
        import struct as _struct

        blob = DedupStreamCompressor._HEADER.pack(b"GDD1", chunk_size, identifier_bits)
        with pytest.raises(CodingError, match="header"):
            decompress_bytes(DedupStreamCompressor(), blob + b"\x00")

    def test_seeded_random_eviction_is_deterministic(self):
        data = clustered_payload(64 * 1024, bases=600)
        first = compress_bytes(
            DedupStreamCompressor(identifier_bits=4, eviction_policy="random", eviction_seed=1),
            data,
        )
        second = compress_bytes(
            DedupStreamCompressor(identifier_bits=4, eviction_policy="random", eviction_seed=1),
            data,
        )
        assert first == second


class TestNullStream:
    def test_output_is_the_magic_then_the_input(self):
        data = b"\x00" * 320
        assert compress_bytes(NullStreamCompressor(), data) == b"GDN1" + data

    def test_empty_input_is_the_magic_alone(self):
        assert compress_bytes(NullStreamCompressor(), b"") == b"GDN1"
        assert decompress_bytes(NullStreamCompressor(), b"GDN1") == b""

    def test_bad_magic_raises(self):
        with pytest.raises(CodingError, match="magic"):
            decompress_bytes(NullStreamCompressor(), b"GDZ1payload")

    @pytest.mark.parametrize("cut", [0, 1, 3])
    def test_truncated_magic_raises(self, cut):
        with pytest.raises(CodingError, match="truncated"):
            decompress_bytes(NullStreamCompressor(), b"GDN1"[:cut])


class TestFileHelpers:
    def test_compress_and_decompress_file(self, tmp_path):
        data = clustered_payload(100_000)
        source = tmp_path / "payload.bin"
        source.write_bytes(data)
        packed = tmp_path / "payload.gdz"
        restored = tmp_path / "restored.bin"

        read, written = compress_file(GDStreamCompressor(), source, packed, block_size=4096)
        assert read == len(data)
        assert written == packed.stat().st_size
        read_back, out = decompress_file(GDStreamCompressor(), packed, restored)
        assert read_back == written
        assert out == len(data)
        assert restored.read_bytes() == data

    def test_failed_run_leaves_existing_destination_intact(self, tmp_path):
        """A missing source or corrupt stream must not clobber the output."""
        destination = tmp_path / "out.bin"
        destination.write_bytes(b"precious")
        with pytest.raises(OSError):
            compress_file(GDStreamCompressor(), tmp_path / "missing.bin", destination)
        assert destination.read_bytes() == b"precious"

        corrupt = tmp_path / "corrupt.gdz"
        blob = compress_bytes(GDStreamCompressor(), clustered_payload(1024))
        corrupt.write_bytes(blob[:-4])
        with pytest.raises(CodingError):
            decompress_file(GDStreamCompressor(), corrupt, destination)
        assert destination.read_bytes() == b"precious"
        assert list(tmp_path.glob("*.tmp")) == []

    def test_iter_file_blocks_sizes(self, tmp_path):
        path = tmp_path / "blob.bin"
        path.write_bytes(b"a" * 2500)
        blocks = list(iter_file_blocks(path, block_size=1024))
        assert [len(block) for block in blocks] == [1024, 1024, 452]
