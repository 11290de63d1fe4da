"""Hostile GDZ1 input: both readers fail the same way, quickly and cheaply.

``GDCodec.decompress_container`` and ``GDStreamCompressor.decompress_stream``
share one record parser and one end-of-container check, so for any legacy
container — intact or mutated — they must return the same bytes or raise
the same :class:`ReproError` subclass, in bounded time and memory.
"""

import random
import struct
import time
import tracemalloc

import pytest

from repro.core.codec import CONTAINER_HEADER, GDCodec
from repro.core.engine import GDStreamCompressor
from repro.exceptions import CodingError, ReproError


def _payload(chunks=32, seed=13):
    rng = random.Random(seed)
    code = GDCodec().transform.code
    bases = [rng.getrandbits(code.k) for _ in range(4)]
    return b"".join(
        (code.encode(rng.choice(bases)) ^ (1 << rng.randrange(code.n))).to_bytes(
            32, "big"
        )
        for _ in range(chunks)
    )


def _container(data):
    return GDCodec(identifier_bits=4).compress_to_container(data)


def _with_header(blob, **fields):
    """``blob`` with header fields (count, flags) or the length replaced."""
    magic, order, chunk_bits, id_bits, flags, count, padding = CONTAINER_HEADER.unpack(
        blob[: CONTAINER_HEADER.size]
    )
    header = CONTAINER_HEADER.pack(
        magic,
        order,
        chunk_bits,
        id_bits,
        fields.get("flags", flags),
        fields.get("count", count),
        padding,
    )
    size = CONTAINER_HEADER.size
    length = blob[size : size + 8]
    if "length" in fields:
        length = struct.pack(">Q", fields["length"])
    return header + length + blob[size + 8 :]


def _outcome(reader, blob):
    start = time.perf_counter()
    try:
        result = reader(blob)
    except ReproError as error:
        result = type(error)
    assert time.perf_counter() - start < 2.0
    return result


def _read_container(blob):
    return GDCodec.from_container_header(blob).decompress_container(blob)


def _read_stream(blob):
    return b"".join(GDStreamCompressor().decompress_stream([blob]))


class TestLyingHeaders:
    def test_huge_record_count_fails_without_allocating(self):
        """24 bytes claiming 2**31 records: a clean error, not a MemoryError
        after preallocating per-record columns."""
        blob = _with_header(_container(b""), count=2**31)
        assert len(blob) == 24
        for reader in (_read_container, _read_stream):
            tracemalloc.start()
            try:
                with pytest.raises(CodingError, match="truncated"):
                    reader(blob)
                _current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1_000_000

    @pytest.mark.parametrize("length", [5, 1024 - 33, 1024 + 1, 2**40])
    def test_lying_original_length_is_rejected(self, length):
        data = _payload(32)  # 1,024 bytes
        blob = _with_header(_container(data), length=length)
        assert _outcome(_read_container, blob) is CodingError
        assert _outcome(_read_stream, blob) is CodingError

    @pytest.mark.parametrize("padding", [0, 1, 31])
    def test_padding_within_the_last_chunk_is_legal(self, padding):
        data = _payload(32)
        blob = _with_header(_container(data), length=len(data) - padding)
        expected = data[: len(data) - padding]
        assert _read_container(blob) == expected
        assert _read_stream(blob) == expected

    def test_trailing_garbage_is_rejected(self):
        blob = _container(_payload(8)) + b"\x00"
        assert _outcome(_read_container, blob) is CodingError
        assert _outcome(_read_stream, blob) is CodingError


class TestMutationCorpus:
    def _agree(self, blob):
        assert _outcome(_read_container, blob) == _outcome(_read_stream, blob)

    def test_truncation_at_every_offset(self):
        blob = _container(_payload(6))
        for cut in range(len(blob)):
            self._agree(blob[:cut])

    def test_every_single_bit_flip(self):
        blob = _container(_payload(6))
        for position in range(len(blob) * 8):
            mutated = bytearray(blob)
            mutated[position // 8] ^= 0x80 >> (position % 8)
            self._agree(bytes(mutated))

    def test_lying_count_length_and_flags(self):
        data = _payload(6)
        blob = _container(data)
        for count in (0, 1, 5, 7, 255, 2**31, 2**32 - 1):
            self._agree(_with_header(blob, count=count))
        for length in (0, 1, len(data) - 32, len(data) + 1, 2**63):
            self._agree(_with_header(blob, length=length))
        for flags in (0x02, 0x80, 0xFE):
            self._agree(_with_header(blob, flags=flags))
