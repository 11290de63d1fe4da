"""Tests for the gzip, exact-deduplication and no-op baselines."""

import pytest

from repro.baselines.dedup import ExactDedupBaseline
from repro.baselines.gzip_baseline import GzipBaseline
from repro.baselines.null import NullBaseline
from repro.exceptions import ReproError


class TestGzipBaseline:
    def test_whole_file_compression_of_redundant_data(self):
        baseline = GzipBaseline()
        chunks = [bytes([i % 4] * 32) for i in range(1000)]
        result = baseline.compress_chunks(chunks)
        assert result.original_bytes == 32000
        assert result.compression_ratio < 0.05
        assert result.savings_percent > 95

    def test_incompressible_data(self):
        import random

        rng = random.Random(1)
        data = bytes(rng.getrandbits(8) for _ in range(4096))
        result = GzipBaseline().compress_bytes(data)
        assert result.compression_ratio > 0.9

    def test_per_chunk_mode_is_much_worse_for_small_chunks(self, rng):
        # Realistic (high-entropy) 32-byte chunks: compressing each chunk on
        # its own cannot exploit cross-chunk redundancy, which is the paper's
        # argument for GD on small data.
        base = rng.getrandbits(256)
        chunks = [
            (base ^ (1 << rng.randrange(256))).to_bytes(32, "big")
            for _ in range(200)
        ]
        whole = GzipBaseline().compress_chunks(chunks)
        per_chunk = GzipBaseline().compress_per_chunk(chunks)
        assert per_chunk.per_chunk
        assert per_chunk.compression_ratio > whole.compression_ratio
        assert per_chunk.compression_ratio > 0.9

    @pytest.mark.parametrize("level", [1, 6, 9])
    def test_whole_file_size_is_the_gzip_tools(self, level, rng):
        """Counting the registry codec's stream, chunk by chunk, gives the
        size of ``gzip`` over the joined file: the Figure 3 bar."""
        import gzip

        noisy = [rng.getrandbits(256).to_bytes(32, "big") for _ in range(100)]
        for chunks in ([bytes([i % 7] * 32) for i in range(500)], noisy, [], [b""]):
            whole = GzipBaseline(level=level).compress_chunks(chunks)
            joined = b"".join(chunks)
            assert whole.original_bytes == len(joined)
            assert whole.compressed_bytes == len(gzip.compress(joined, compresslevel=level))

    def test_level_validation(self):
        with pytest.raises(ReproError):
            GzipBaseline(level=0)
        with pytest.raises(ReproError):
            GzipBaseline(level=10)

    def test_empty_input(self):
        assert GzipBaseline().compress_bytes(b"").compression_ratio == 0.0


class TestExactDedup:
    def test_identical_chunks_deduplicate(self):
        baseline = ExactDedupBaseline(identifier_bits=15)
        chunks = [b"\x01" * 32] * 100
        result = baseline.run(chunks)
        assert result.duplicate_chunks == 99
        assert result.duplicate_fraction == pytest.approx(0.99)
        # 1 full chunk + 99 × 2-byte references
        assert result.transmitted_bytes == 32 + 99 * 2
        assert result.compression_ratio < 0.1

    def test_gd_like_noisy_chunks_do_not_deduplicate(self, rng):
        # Single-bit noise defeats exact deduplication while GD still maps
        # every chunk to the same basis — the core motivation for GD.
        from repro.core.codec import GDCodec

        baseline = ExactDedupBaseline(identifier_bits=15)
        codec = GDCodec(order=8, identifier_bits=15, alignment_padding_bits=8)
        basis = rng.getrandbits(247)
        codeword = codec.transform.code.encode(basis)
        chunks = [
            (codeword ^ (1 << rng.randrange(255))).to_bytes(32, "big")
            for _ in range(200)
        ]
        dedup_result = baseline.run(chunks)
        gd_result = codec.compress(b"".join(chunks))
        assert gd_result.compressed_record_fraction > 0.95
        assert dedup_result.duplicate_fraction < 0.6
        assert gd_result.compression_ratio < dedup_result.compression_ratio

    def test_static_mode_does_not_learn(self):
        baseline = ExactDedupBaseline()
        result = baseline.run([b"\x01" * 32] * 10, learn=False)
        assert result.duplicate_chunks == 0
        assert len(baseline.dictionary) == 0

    def test_preload_and_reset(self):
        baseline = ExactDedupBaseline()
        baseline.preload([b"\x01" * 32])
        result = baseline.run([b"\x01" * 32] * 5, learn=False)
        assert result.duplicate_chunks == 5
        baseline.reset()
        assert len(baseline.dictionary) == 0

    def test_parameter_validation(self):
        with pytest.raises(ReproError):
            ExactDedupBaseline(identifier_bits=0)
        with pytest.raises(ReproError):
            ExactDedupBaseline(alignment_padding_bits=-1)

    def test_empty_run(self):
        result = ExactDedupBaseline().run([])
        assert result.compression_ratio == 0.0
        assert result.duplicate_fraction == 0.0


class TestNullBaseline:
    def test_identity_accounting(self):
        result = NullBaseline().run([b"\x00" * 32] * 10)
        assert result.chunks == 10
        assert result.original_bytes == 320
        assert result.transmitted_bytes == 320
        assert result.compression_ratio == 1.0

    def test_empty(self):
        assert NullBaseline().run([]).compression_ratio == 0.0
