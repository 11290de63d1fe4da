"""Batch APIs: split_batch / encode_batch / decode_batch match the oracle.

Every encode and decode entry point runs the same columnar loop; these
tests pin down that the loop is observationally identical to the bit-serial
oracle walking one chunk at a time — same records, same stats, same
dictionary evolution, evictions included — and that batches compose with
the state earlier batches left behind.
"""

import random

import pytest

from repro.core.codec import GDCodec
from repro.core.decoder import GDDecoder
from repro.core.dictionary import BasisDictionary
from repro.core.encoder import EncoderMode, GDEncoder
from repro.core.records import RawRecord
from repro.core.transform import GDTransform
from repro.exceptions import ChunkSizeError

from gd_oracle import OracleCodec, roundtrip


def clustered_chunks(count: int, seed: int = 3, bases: int = 6) -> list:
    rng = random.Random(seed)
    population = [rng.getrandbits(247) for _ in range(bases)]
    chunks = []
    for _ in range(count):
        body = rng.choice(population) ^ (1 << rng.randrange(255))
        chunks.append(((rng.getrandbits(1) << 255) | body).to_bytes(32, "big"))
    return chunks


class TestSplitBatch:
    def test_matches_per_chunk_split(self):
        transform = GDTransform(order=8)
        chunks = clustered_chunks(50)
        expected = [transform.split(chunk) for chunk in chunks]
        assert transform.split_batch(b"".join(chunks)) == expected

    def test_rejects_ragged_buffer(self):
        transform = GDTransform(order=8)
        with pytest.raises(ChunkSizeError):
            transform.split_batch(b"\x00" * 33)

    def test_non_byte_aligned_chunk_bits_range_checked(self):
        transform = GDTransform(order=8, chunk_bits=257)
        oversized = (1 << 257).to_bytes(transform.chunk_bytes, "big")
        with pytest.raises(ChunkSizeError):
            transform.split_batch(oversized)


def _fresh_encoder(mode=EncoderMode.DYNAMIC, identifier_bits=15):
    transform = GDTransform(order=8)
    dictionary = None
    if mode is not EncoderMode.NO_TABLE:
        dictionary = BasisDictionary(1 << identifier_bits)
    return GDEncoder(
        transform,
        dictionary,
        mode=mode,
        alignment_padding_bits=8,
    )


class TestEncodeBatch:
    # Two identifier bits hold four of the six bases: constant eviction.
    @pytest.mark.parametrize("identifier_bits", [15, 2])
    @pytest.mark.parametrize("entry", ["encode_batch", "one_chunk_batches", "encode_chunks"])
    def test_matches_oracle(self, entry, identifier_bits):
        chunks = clustered_chunks(300)
        oracle = OracleCodec(alignment_padding_bits=8, identifier_bits=identifier_bits)
        expected = oracle.encode(b"".join(chunks))
        encoder = _fresh_encoder(identifier_bits=identifier_bits)
        if entry == "encode_batch":
            records = encoder.encode_batch(chunks)
        elif entry == "one_chunk_batches":
            records = [encoder.encode_batch([chunk])[0] for chunk in chunks]
        else:
            records = encoder.encode_chunks(b"".join(chunks))
        assert records == expected
        assert encoder.stats.as_dict() == oracle.stats.as_dict()
        # The encoder keys on basis rows; its snapshot writes them as ints.
        assert encoder.snapshot_state()["dictionary"] == (
            oracle.encoder_dictionary.snapshot_state()
        )

    def test_batches_compose_with_state(self):
        """Two consecutive batches equal one batch over the concatenation."""
        chunks = clustered_chunks(200)
        split_run = _fresh_encoder()
        whole_run = _fresh_encoder()
        first = split_run.encode_batch(chunks[:90])
        second = split_run.encode_batch(chunks[90:])
        assert first + second == whole_run.encode_batch(chunks)
        assert split_run.stats.as_dict() == whole_run.stats.as_dict()

    def test_no_table_mode(self):
        chunks = clustered_chunks(40)
        encoder = _fresh_encoder(mode=EncoderMode.NO_TABLE)
        records = encoder.encode_batch(chunks)
        assert len(records) == 40
        assert encoder.stats.compressed_records == 0


class TestDecodeBatch:
    def test_matches_decode_record_sequence(self):
        chunks = clustered_chunks(250)
        codec = GDCodec(order=8, identifier_bits=15)
        records = list(codec.compress(b"".join(chunks)).records)

        transform = GDTransform(order=8)
        unit = GDDecoder(transform, BasisDictionary(1 << 15))
        batch = GDDecoder(transform, BasisDictionary(1 << 15))
        expected = [unit.decode_batch([record])[0] for record in records]
        assert batch.decode_batch(records) == expected
        assert batch.stats.as_dict() == unit.stats.as_dict()
        oracle = OracleCodec()
        assert b"".join(chunk.to_bytes(32, "big") for chunk in expected) == (
            oracle.decode(records)
        )
        assert batch.snapshot_state()["dictionary"] == (
            oracle.decoder_dictionary.snapshot_state()
        )

    def test_raw_records_pass_through(self):
        transform = GDTransform(order=8)
        decoder = GDDecoder(transform)
        records = [RawRecord(chunk=123, chunk_bits=256)]
        assert decoder.decode_batch(records) == [123]
        assert decoder.stats.raw_records == 1
        assert decoder.stats.output_bits == 256

    def test_decode_batch_to_bytes_roundtrip(self):
        chunks = clustered_chunks(100)
        data = b"".join(chunks)
        codec = GDCodec(order=8, identifier_bits=15)
        result = codec.compress(data)
        assert codec.decompress_records(result.records) == data


class TestEvictionSeedPlumbing:
    def test_seeded_random_eviction_reproducible_through_codec(self):
        """Same seed -> identical record streams under dictionary pressure."""
        chunks = clustered_chunks(2000, bases=64)
        data = b"".join(chunks)

        def run(seed):
            codec = GDCodec(
                order=8,
                identifier_bits=4,  # 16 slots for 64 bases: constant eviction
                eviction_policy="random",
                eviction_seed=seed,
            )
            return codec.compress(data).records

        assert run(1234) == run(1234)

    def test_seeded_codec_roundtrips_with_random_eviction(self):
        chunks = clustered_chunks(1500, bases=64)
        data = b"".join(chunks)
        codec = GDCodec(
            order=8,
            identifier_bits=4,
            eviction_policy="random",
            eviction_seed=99,
        )
        assert roundtrip(codec, data) == data

    def test_clone_preserves_seed(self):
        codec = GDCodec(eviction_policy="random", eviction_seed=5)
        assert codec.clone()._eviction_seed == 5

    def test_unseeded_random_eviction_still_lossless_in_process(self):
        """Without an explicit seed the codec samples one shared seed, so
        encoder and decoder dictionaries evict in lock-step and round trips
        stay exact even under dictionary pressure."""
        chunks = clustered_chunks(1500, bases=64)
        data = b"".join(chunks)
        codec = GDCodec(order=8, identifier_bits=4, eviction_policy="random")
        assert roundtrip(codec, data) == data
