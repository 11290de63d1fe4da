"""Hostile GDZ1 input: both entry points fail the same way, quickly and cheaply.

``GDCodec.decompress_container`` and ``GDStreamCompressor.decompress_stream``
call one reader (``repro.core.wire.read_container``), which reads the
streamed layout the writer produces and refuses the count-in-header layout
older versions wrote.  For any container — intact or mutated — the two must
return the same bytes or raise the same :class:`ReproError` subclass, in
bounded time and memory.  The stream entry point is also fed one byte per
block, so every record and the trailer straddle block boundaries.
"""

import random
import struct
import time
import tracemalloc

import pytest

from repro.core.codec import GDCodec
from repro.core.engine import GDStreamCompressor
from repro.exceptions import CodingError, ReproError

from gd_oracle import CONTAINER_HEADER, OracleCodec


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
    """``data`` (whole chunks) as a GDZ1 container."""
    return GDCodec(identifier_bits=4).compress_to_container(data)


def _with_header(blob, **fields):
    """``blob`` with header fields (count, flags) or the length replaced."""
    size = CONTAINER_HEADER.size
    magic, order, chunk_bits, id_bits, flags, count, padding = CONTAINER_HEADER.unpack(
        blob[:size]
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
    body = blob[size:]
    if "length" in fields:
        body = body[:-8] + struct.pack(">Q", fields["length"])  # ends the trailer
    return header + body


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


def _read_bytewise(blob):
    return b"".join(GDStreamCompressor().decompress_stream(bytes([b]) for b in blob))


READERS = {
    "container": _read_container,
    "stream": _read_stream,
    "bytewise": _read_bytewise,
}
reader_axis = pytest.mark.parametrize("reader", list(READERS.values()), ids=list(READERS))


class TestLyingHeaders:
    @reader_axis
    def test_count_in_header_layout_is_refused_without_allocating(self, reader):
        """A header with the streamed flag clear claiming 2**31 records: a
        clean error naming the layout, not a MemoryError after
        preallocating per-record columns."""
        intact = _container(b"")
        assert reader(intact) == b""  # backend import, outside the window
        blob = _with_header(intact, flags=0, count=2**31)
        tracemalloc.start()
        try:
            with pytest.raises(CodingError, match="count-in-header"):
                reader(blob)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @reader_axis
    @pytest.mark.parametrize("length", [5, 1024 - 33, 1024 + 1, 2**40])
    def test_lying_original_length_is_rejected(self, length, reader):
        data = _payload(32)  # 1,024 bytes
        blob = _with_header(_container(data), length=length)
        assert _outcome(reader, blob) is CodingError

    @reader_axis
    @pytest.mark.parametrize("padding", [0, 1, 31])
    def test_padding_within_the_last_chunk_is_legal(self, padding, reader):
        data = _payload(32)
        blob = _with_header(_container(data), length=len(data) - padding)
        assert reader(blob) == data[: len(data) - padding]

    @reader_axis
    def test_trailing_garbage_is_rejected(self, reader):
        blob = _container(_payload(8)) + b"\x00"
        assert _outcome(reader, blob) is CodingError

    @pytest.mark.parametrize("written, read", [(8, 0), (0, 8)])
    def test_alignment_padding_mismatch_is_named(self, written, read):
        """A codec refuses a container written under another type-2
        padding width with the error that says so, in either direction."""
        data = _payload(8)
        blob = GDCodec(alignment_padding_bits=written).compress_to_container(data)
        with pytest.raises(CodingError, match="alignment padding .* does not match"):
            GDCodec(alignment_padding_bits=read).decompress_container(blob)


class TestMutationCorpus:
    def _agree(self, blob):
        assert _outcome(_read_container, blob) == _outcome(_read_stream, blob)

    def test_truncation_at_every_offset(self):
        blob = _container(_payload(6))
        for cut in range(len(blob)):
            self._agree(blob[:cut])
            assert _outcome(_read_stream, blob[:cut]) is CodingError

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
        for flags in (0x00, 0x01, 0x02, 0x80, 0xFE):
            self._agree(_with_header(blob, flags=flags))


class TestEveryReaderDecodesAlike:
    """The writer's container is the oracle's byte for byte and decodes to
    the same bytes through both entry points, whole and one byte at a
    time."""

    @pytest.mark.parametrize("chunks", [0, 1, 2, 33, 200])
    @pytest.mark.parametrize("padding_bits", [0, 8])
    def test_same_bytes_through_every_reader(self, chunks, padding_bits):
        data = _payload(chunks, seed=chunks)
        codec = GDCodec(identifier_bits=4, alignment_padding_bits=padding_bits)
        oracle = OracleCodec(identifier_bits=4, alignment_padding_bits=padding_bits)
        records = oracle.encode(data)
        blob = codec.compress_to_container(data)
        assert blob == oracle.container(records, len(data))
        assert codec.decompress_container(blob) == data
        assert _read_stream(blob) == data
        assert _read_bytewise(blob) == data
