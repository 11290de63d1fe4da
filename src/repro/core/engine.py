"""Unified streaming compression engine.

Every compressor in the project — the GD codec and the gzip, classic dedup
and null codecs it is compared against — is usable behind one interface,
the :class:`Compressor` protocol:

* ``compress_stream(blocks)`` consumes an iterable of byte blocks (file
  reads, packet payloads, trace chunks) and lazily yields compressed byte
  blocks;
* ``decompress_stream(blocks)`` inverts it, again block by block.

Both directions run in bounded memory: no implementation materialises the
whole input or output, so a multi-gigabyte trace streams through a constant
few-chunk working set.  The GD implementation frames its records as a
``GDZ1`` container, written and read by :mod:`repro.core.wire`.

Name-based construction lives in :mod:`repro.registry`; this module holds
the implementations.

>>> compressor = GzipStreamCompressor()
>>> stream = compressor.compress_stream([b"chunk one, ", b"chunk two"])
>>> b"".join(compressor.decompress_stream(stream))
b'chunk one, chunk two'
"""

from __future__ import annotations

import os
import struct
import zlib
from pathlib import Path
from typing import (
    Callable,
    Iterable,
    Iterator,
    Optional,
    Protocol,
    Tuple,
    runtime_checkable,
)

from repro.core.codec import GDCodec
from repro.core.dictionary import BasisDictionary, EvictionPolicy
from repro.core.encoder import EncoderMode
from repro.core.wire import MAGIC, ContainerHeader, read_container
from repro.exceptions import CodingError, ReproError

__all__ = [
    "Compressor",
    "GDStreamCompressor",
    "GzipStreamCompressor",
    "DedupStreamCompressor",
    "NullStreamCompressor",
    "compress_bytes",
    "decompress_bytes",
    "iter_file_blocks",
    "compress_file",
    "decompress_file",
    "DEFAULT_BLOCK_SIZE",
]

#: Default read size for file streaming (a comfortable multiple of every
#: supported chunk size).
DEFAULT_BLOCK_SIZE = 64 * 1024


class _IncrementalBuffer:
    """Byte accumulator shared by the incremental stream parsers.

    Parsers read at ``position`` and advance it; consumed bytes are
    reclaimed once they pass the compaction threshold so the buffer stays
    bounded by the input block size plus one unparsed item.
    """

    __slots__ = ("data", "position")

    def __init__(self) -> None:
        self.data = bytearray()
        self.position = 0

    def feed(self, block: bytes) -> None:
        self.data += block

    @property
    def available(self) -> int:
        """Bytes not yet consumed by the parser."""
        return len(self.data) - self.position

    def compact(self) -> None:
        """Drop consumed bytes once enough of them have accumulated."""
        if self.position > DEFAULT_BLOCK_SIZE:
            del self.data[: self.position]
            self.position = 0


def _check_random_eviction_seed(
    policy: "str | EvictionPolicy", seed: Optional[int]
) -> None:
    """Random eviction across a stream boundary needs an explicit seed.

    Compressor and decompressor run in different processes; without a
    shared seed their dictionaries evict differently once full and
    references silently resolve to the wrong entries.  Fail loudly at
    construction instead.
    """
    if EvictionPolicy.from_name(policy) is EvictionPolicy.RANDOM and seed is None:
        raise ReproError(
            "eviction_policy='random' requires an explicit eviction_seed for "
            "streaming: the decompressor must replay the same eviction "
            "sequence or references silently corrupt"
        )


@runtime_checkable
class Compressor(Protocol):
    """A named, streaming, lossless compressor.

    Implementations carry a short ``name`` (the registry key) and a
    ``magic`` prefix that identifies their output format, and must satisfy
    ``b"".join(decompress_stream(compress_stream(blocks))) ==
    b"".join(blocks)`` for any iterable of byte blocks, processing both
    directions in bounded memory.
    """

    name: str
    magic: bytes

    def compress_stream(self, blocks: Iterable[bytes]) -> Iterator[bytes]:
        """Lazily compress an iterable of byte blocks."""
        ...

    def decompress_stream(self, blocks: Iterable[bytes]) -> Iterator[bytes]:
        """Lazily decompress an iterable of byte blocks."""
        ...


# -- convenience wrappers -----------------------------------------------------


def compress_bytes(compressor: Compressor, data: bytes) -> bytes:
    """One-shot compression of an in-memory byte string."""
    return b"".join(compressor.compress_stream([data]))


def decompress_bytes(compressor: Compressor, blob: bytes) -> bytes:
    """One-shot decompression of an in-memory byte string."""
    return b"".join(compressor.decompress_stream([blob]))


def iter_file_blocks(
    path: "str | Path", block_size: int = DEFAULT_BLOCK_SIZE
) -> Iterator[bytes]:
    """Yield a file's contents as blocks of at most ``block_size`` bytes."""
    if block_size <= 0:
        raise ReproError(f"block size must be positive, got {block_size}")
    with open(path, "rb") as stream:
        while True:
            block = stream.read(block_size)
            if not block:
                return
            yield block


def _pump_file(
    stream_function: "Callable[[Iterable[bytes]], Iterator[bytes]]",
    source: "str | Path",
    destination: "str | Path",
    block_size: int,
) -> Tuple[int, int]:
    """Stream ``source`` through a compress/decompress function into
    ``destination``; returns ``(input_bytes, output_bytes)``.

    Output goes to a temporary file that replaces ``destination`` only on
    success, so a missing source or a corrupt stream never clobbers a
    pre-existing destination file.
    """
    read = written = 0

    def counted_blocks() -> Iterator[bytes]:
        nonlocal read
        for block in iter_file_blocks(source, block_size):
            read += len(block)
            yield block

    destination = Path(destination)
    scratch = destination.with_name(f".{destination.name}.{os.getpid()}.tmp")
    try:
        with open(scratch, "wb") as out:
            for block in stream_function(counted_blocks()):
                written += len(block)
                out.write(block)
        os.replace(scratch, destination)
    finally:
        if scratch.exists():
            scratch.unlink()
    return read, written


def compress_file(
    compressor: Compressor,
    source: "str | Path",
    destination: "str | Path",
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> Tuple[int, int]:
    """Stream-compress ``source`` into ``destination``.

    Returns ``(input_bytes, output_bytes)``.  Memory stays bounded by the
    block size regardless of the file size.
    """
    return _pump_file(compressor.compress_stream, source, destination, block_size)


def decompress_file(
    compressor: Compressor,
    source: "str | Path",
    destination: "str | Path",
    block_size: int = DEFAULT_BLOCK_SIZE,
) -> Tuple[int, int]:
    """Stream-decompress ``source`` into ``destination``.

    Returns ``(input_bytes, output_bytes)``.
    """
    return _pump_file(compressor.decompress_stream, source, destination, block_size)


# -- GD ------------------------------------------------------------------------


class GDStreamCompressor:
    """The GD codec behind the streaming interface.

    Each ``compress_stream`` call uses a fresh codec, so every stream is
    self-contained (all identifiers referenced by type-3 records are
    introduced by earlier type-2 records in the same stream) and carries
    everything needed to decompress it in its header.  Input blocks are
    re-chunked to the codec's chunk size internally; the final partial chunk
    is zero padded and the original length restored from the trailer.
    """

    name = "gd"
    magic = MAGIC

    def __init__(
        self,
        order: int = 8,
        chunk_bits: Optional[int] = None,
        identifier_bits: int = 15,
        mode: "str | EncoderMode" = EncoderMode.DYNAMIC,
        eviction_policy: "str | EvictionPolicy" = EvictionPolicy.LRU,
        eviction_seed: Optional[int] = None,
        static_bases: Optional[Iterable[int]] = None,
        backend: Optional[str] = None,
    ):
        _check_random_eviction_seed(eviction_policy, eviction_seed)
        self._codec_kwargs = dict(
            order=order,
            chunk_bits=chunk_bits,
            identifier_bits=identifier_bits,
            mode=mode,
            eviction_policy=eviction_policy,
            alignment_padding_bits=0,
            eviction_seed=eviction_seed,
            static_bases=list(static_bases) if static_bases is not None else None,
            backend=backend,
        )

    def codec(self) -> GDCodec:
        """A fresh codec configured with this compressor's parameters."""
        return GDCodec(**self._codec_kwargs)

    def compress_stream(self, blocks: Iterable[bytes]) -> Iterator[bytes]:
        """Re-chunk, GD-encode and frame a block stream incrementally."""
        codec = self.codec()
        yield from codec.write_container(self._record_runs(codec, blocks))

    @staticmethod
    def _record_runs(
        codec: GDCodec, blocks: Iterable[bytes]
    ) -> Iterator[Tuple[bytes, int]]:
        """``(packed records, input bytes they encode)`` per block's worth
        of whole chunks; the final partial chunk is zero padded."""
        encoder = codec.encoder
        chunk_size = codec.chunk_bytes
        pending = bytearray()
        for block in blocks:
            pending += block
            usable = len(pending) - len(pending) % chunk_size
            if usable:
                batch = encoder.encode_buffer_batch(bytes(pending[:usable]))
                del pending[:usable]
                yield batch.pack_stream(), usable
        if pending:
            tail = len(pending)
            pending += b"\x00" * (chunk_size - tail)
            yield encoder.encode_buffer_batch(bytes(pending)).pack_stream(), tail

    def decompress_stream(self, blocks: Iterable[bytes]) -> Iterator[bytes]:
        """Incrementally parse and decode a GDZ1 container stream.

        The wire parameters (order, chunk bits, identifier width, record
        padding) come from the stream header; the dictionary behaviour
        (mode, static bases, eviction policy and seed) comes from this
        instance, so a compressor configured with e.g. a static table or
        seeded random eviction decodes its own streams.
        """
        return read_container(blocks, self._open_container)

    def _open_container(self, header: ContainerHeader) -> GDCodec:
        return GDCodec(**{**self._codec_kwargs, **header._asdict()})


# -- gzip ----------------------------------------------------------------------


class GzipStreamCompressor:
    """DEFLATE with gzip framing behind the streaming interface.

    Same algorithm and container as the paper's ``gzip`` tool run: fed a
    file chunk by chunk, the stream is as long as the tool's output, which
    is what Figure 3's gzip bar counts.
    """

    name = "gzip"
    magic = b"\x1f\x8b"

    #: wbits selecting the gzip container in zlib.
    _GZIP_WBITS = 31

    def __init__(self, level: int = 6):
        if not 1 <= level <= 9:
            raise ReproError(f"compression level must be in 1..9, got {level}")
        self.level = level

    def compress_stream(self, blocks: Iterable[bytes]) -> Iterator[bytes]:
        """Feed blocks through one DEFLATE stream, yielding as zlib flushes."""
        compressor = zlib.compressobj(self.level, zlib.DEFLATED, self._GZIP_WBITS)
        for block in blocks:
            out = compressor.compress(block)
            if out:
                yield out
        yield compressor.flush()

    def decompress_stream(self, blocks: Iterable[bytes]) -> Iterator[bytes]:
        """Inflate a gzip stream block by block.

        Like ``gunzip``, concatenated gzip members decode to the
        concatenation of their contents, and corrupt data after a valid
        member is an error rather than silently dropped.
        """
        decompressor = zlib.decompressobj(self._GZIP_WBITS)

        def inflate(data: bytes) -> Iterator[bytes]:
            nonlocal decompressor
            while data:
                try:
                    out = decompressor.decompress(data)
                except zlib.error as error:
                    raise CodingError(f"corrupt gzip stream: {error}") from None
                if out:
                    yield out
                if not decompressor.eof:
                    return
                # Member finished: anything left over starts the next one.
                data = decompressor.unused_data
                if data:
                    decompressor = zlib.decompressobj(self._GZIP_WBITS)

        for block in blocks:
            yield from inflate(block)
        tail = decompressor.flush()
        if not decompressor.eof:
            raise CodingError("truncated gzip stream")
        if tail:
            yield tail


# -- classic deduplication -----------------------------------------------------


class DedupStreamCompressor:
    """Classic exact deduplication as a round-trippable stream format.

    A decodable stream, so classic dedup runs through the same round-trip
    harness as GD and gzip.  Wire format: a 7-byte header (magic, chunk
    size, identifier width) followed by tagged records — 0x02 full literal
    chunk, 0x03 identifier reference, 0x01 short final literal (2-byte
    length prefix), 0x00 end of stream.  Decoder and encoder maintain
    identical dictionaries by replaying the literals, exactly like the GD
    decoder learns from type-2 records.
    """

    name = "dedup"
    magic = b"GDD1"

    _HEADER = struct.Struct(">4sHB")  # magic, chunk_bytes, identifier_bits
    _TAG_END = 0x00
    _TAG_SHORT_LITERAL = 0x01
    _TAG_LITERAL = 0x02
    _TAG_REFERENCE = 0x03

    def __init__(
        self,
        chunk_bytes: int = 32,
        identifier_bits: int = 15,
        eviction_policy: "str | EvictionPolicy" = EvictionPolicy.LRU,
        eviction_seed: Optional[int] = None,
    ):
        if not 1 <= chunk_bytes <= 0xFFFF:
            raise ReproError(f"chunk_bytes must be in 1..65535, got {chunk_bytes}")
        if not 1 <= identifier_bits <= 32:
            raise ReproError(
                f"identifier_bits must be in 1..32, got {identifier_bits}"
            )
        _check_random_eviction_seed(eviction_policy, eviction_seed)
        self.chunk_bytes = chunk_bytes
        self.identifier_bits = identifier_bits
        self._eviction_policy = EvictionPolicy.from_name(eviction_policy)
        self._eviction_seed = eviction_seed

    def _dictionary(self) -> BasisDictionary:
        return BasisDictionary(
            1 << self.identifier_bits, self._eviction_policy, seed=self._eviction_seed
        )

    @property
    def _identifier_size(self) -> int:
        return (self.identifier_bits + 7) // 8

    def compress_stream(self, blocks: Iterable[bytes]) -> Iterator[bytes]:
        """Deduplicate fixed-size chunks against a bounded dictionary."""
        dictionary = self._dictionary()
        chunk_size = self.chunk_bytes
        id_size = self._identifier_size
        yield self._HEADER.pack(self.magic, chunk_size, self.identifier_bits)
        pending = bytearray()
        for block in blocks:
            if not block:
                continue
            pending += block
            if len(pending) < chunk_size:
                continue
            out = bytearray()
            for offset in range(0, len(pending) - chunk_size + 1, chunk_size):
                chunk = bytes(pending[offset : offset + chunk_size])
                identifier = dictionary.lookup(chunk)
                if identifier is not None:
                    out.append(self._TAG_REFERENCE)
                    out += identifier.to_bytes(id_size, "big")
                else:
                    dictionary.insert(chunk)
                    out.append(self._TAG_LITERAL)
                    out += chunk
            del pending[: len(pending) - len(pending) % chunk_size]
            yield bytes(out)
        tail = b""
        if pending:
            tail = (
                bytes([self._TAG_SHORT_LITERAL])
                + struct.pack(">H", len(pending))
                + bytes(pending)
            )
        yield tail + bytes([self._TAG_END])

    def decompress_stream(self, blocks: Iterable[bytes]) -> Iterator[bytes]:
        """Replay literals and resolve references with a mirrored dictionary.

        Decoded chunks accumulate into one output buffer per incoming block
        (a 32-byte-chunk stream would otherwise mean one yield — and one
        downstream write — per record).
        """
        buffer = _IncrementalBuffer()
        dictionary: Optional[BasisDictionary] = None
        chunk_size = 0
        id_size = 0
        finished = False
        for block in blocks:
            if block:
                buffer.feed(block)
            out = bytearray()
            while True:
                if finished:
                    if buffer.available:
                        raise CodingError(
                            f"{buffer.available} trailing bytes after dedup stream end"
                        )
                    break
                if dictionary is None:
                    if buffer.available < self._HEADER.size:
                        break
                    magic, chunk_size, identifier_bits = self._HEADER.unpack_from(
                        buffer.data, buffer.position
                    )
                    if magic != self.magic:
                        raise CodingError(f"bad dedup stream magic {magic!r}")
                    # Same bounds the encoder enforces — the header is
                    # untrusted input.
                    if chunk_size < 1:
                        raise CodingError(
                            f"dedup stream header has chunk size {chunk_size}"
                        )
                    if not 1 <= identifier_bits <= 32:
                        raise CodingError(
                            f"dedup stream header has identifier width "
                            f"{identifier_bits} (valid: 1..32)"
                        )
                    dictionary = BasisDictionary(
                        1 << identifier_bits,
                        self._eviction_policy,
                        seed=self._eviction_seed,
                    )
                    id_size = (identifier_bits + 7) // 8
                    buffer.position += self._HEADER.size
                    continue
                if buffer.available < 1:
                    break
                position = buffer.position
                tag = buffer.data[position]
                if tag == self._TAG_END:
                    buffer.position += 1
                    finished = True
                    continue
                if tag == self._TAG_LITERAL:
                    if buffer.available < 1 + chunk_size:
                        break
                    chunk = bytes(buffer.data[position + 1 : position + 1 + chunk_size])
                    dictionary.insert(chunk)
                    buffer.position += 1 + chunk_size
                    out += chunk
                elif tag == self._TAG_REFERENCE:
                    if buffer.available < 1 + id_size:
                        break
                    identifier = int.from_bytes(
                        buffer.data[position + 1 : position + 1 + id_size], "big"
                    )
                    chunk = dictionary.reverse_lookup(identifier)
                    if chunk is None:
                        raise CodingError(
                            f"dedup reference to unmapped identifier {identifier}"
                        )
                    dictionary.touch(chunk)
                    buffer.position += 1 + id_size
                    out += chunk
                elif tag == self._TAG_SHORT_LITERAL:
                    if buffer.available < 3:
                        break
                    (length,) = struct.unpack_from(">H", buffer.data, position + 1)
                    if buffer.available < 3 + length:
                        break
                    out += buffer.data[position + 3 : position + 3 + length]
                    buffer.position += 3 + length
                else:
                    raise CodingError(f"unknown dedup record tag {tag}")
            if out:
                yield bytes(out)
            buffer.compact()
        if not finished:
            raise CodingError("truncated dedup stream")


# -- null ----------------------------------------------------------------------


class NullStreamCompressor:
    """The no-op compressor: blocks pass through behind a 4-byte magic.

    The magic exists so the format is sniffable like every other stream
    format; apart from those 4 bytes the output is the input.
    """

    name = "null"
    magic = b"GDN1"

    def compress_stream(self, blocks: Iterable[bytes]) -> Iterator[bytes]:
        """Prepend the magic, then forward every block untouched."""
        yield self.magic
        for block in blocks:
            if block:
                yield block

    def decompress_stream(self, blocks: Iterable[bytes]) -> Iterator[bytes]:
        """Strip and validate the magic, then forward every block."""
        needed = len(self.magic)
        prefix = b""
        for block in blocks:
            if not block:
                continue
            if needed:
                taken = block[:needed]
                prefix += taken
                block = block[len(taken):]
                needed -= len(taken)
                if needed == 0 and prefix != self.magic:
                    raise CodingError(f"bad null stream magic {prefix!r}")
            if block:
                yield block
        if needed:
            raise CodingError("truncated null stream")
