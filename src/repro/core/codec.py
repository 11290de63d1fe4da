"""High-level GD codec: compress / decompress byte streams in one call.

:class:`GDCodec` is the laptop-level entry point of the library — the piece a
downstream user reaches for when they want the paper's compression algorithm
without the switch model.  It wires together a transform, an encoder-side
dictionary and a decoder-side dictionary, offers ``compress`` /
``decompress`` over byte strings, and can serialise the compressed stream to
the self-describing ``GDZ1`` container (useful for files, and used by the
gzip comparison in the Figure 3 benchmark).  The container format — header,
record runs, trailer — belongs to :mod:`repro.core.wire`; this module only
says which codec a container's header is served by.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.backends import batch_backend
from repro.core.bits import int_to_bytes
from repro.core.dictionary import BasisDictionary, EvictionPolicy
from repro.core.decoder import GDDecoder
from repro.core.encoder import EncoderMode, GDEncoder
from repro.core.records import GDRecord, RecordType
from repro.core.transform import GDTransform
from repro.core.wire import (
    FRAMING_BYTES,
    ContainerHeader,
    parse_header,
    read_container,
    write_container,
)
from repro.exceptions import ChunkSizeError, CodingError

__all__ = ["CompressionResult", "GDCodec"]


@dataclass(frozen=True)
class CompressionResult:
    """Outcome of compressing a byte string with :class:`GDCodec`.

    Attributes
    ----------
    records:
        The emitted GD records in order.
    original_bytes:
        Size of the input.
    payload_bytes:
        Sum of the padded record payloads — what would travel on the wire as
        ZipLine packet payloads (no container overhead).
    container_bytes:
        Size of the serialised container produced by :meth:`GDCodec.to_container`
        (includes the header and the per-record type tags).
    """

    records: Tuple[GDRecord, ...]
    original_bytes: int
    payload_bytes: int
    container_bytes: int

    @property
    def compression_ratio(self) -> float:
        """Payload bytes over original bytes (the paper's Figure 3 metric)."""
        if self.original_bytes == 0:
            return 0.0
        return self.payload_bytes / self.original_bytes

    @property
    def compressed_record_fraction(self) -> float:
        """Fraction of records that were emitted as compressed (type 3)."""
        if not self.records:
            return 0.0
        compressed = sum(
            1 for record in self.records if record.record_type is RecordType.COMPRESSED
        )
        return compressed / len(self.records)


class GDCodec:
    """Byte-stream compressor/decompressor built on generalized deduplication.

    Parameters
    ----------
    order:
        Hamming order ``m`` (the paper uses 8).
    chunk_bits:
        Chunk width; defaults to the smallest byte multiple ≥ ``2**order - 1``.
    identifier_bits:
        Identifier width ``t``; the dictionary holds ``2**t`` bases (the paper
        uses 15).
    mode:
        ``dynamic`` (default), ``static`` or ``no_table``.
    eviction_policy:
        Dictionary replacement policy (LRU by default, as in the paper).
    alignment_padding_bits:
        Extra bits added to type-2 payloads to model the hardware container
        alignment (8 in the paper).  Set to 0 for the pure software codec.
    static_bases:
        Iterable of basis values to preload when ``mode="static"`` (each
        must fit in ``k`` bits, else :class:`~repro.exceptions.CodingError`).
    eviction_seed:
        Seed for the dictionaries' eviction randomness.  Only the ``random``
        policy draws from it; passing a seed makes ablation runs
        reproducible.  Encoder and decoder dictionaries always share one
        seed — when none is given and the policy is ``random``, a seed is
        sampled once so both sides still evict in lock-step (required for
        lossless round trips under dictionary pressure).
    backend:
        Codec-backend selection forwarded to
        :class:`~repro.core.transform.GDTransform`: a registered backend
        name, or ``None`` for the documented precedence
        (``REPRO_GD_BACKEND``, then best available).  Backends are
        bit-identical; this only affects batch throughput.
    """

    def __init__(
        self,
        order: int = 8,
        chunk_bits: Optional[int] = None,
        identifier_bits: int = 15,
        mode: "str | EncoderMode" = EncoderMode.DYNAMIC,
        eviction_policy: "str | EvictionPolicy" = EvictionPolicy.LRU,
        alignment_padding_bits: int = 0,
        static_bases: Optional[Iterable[int]] = None,
        eviction_seed: Optional[int] = None,
        backend: Optional[str] = None,
    ):
        if identifier_bits <= 0:
            raise CodingError(f"identifier_bits must be positive, got {identifier_bits}")
        if not 0 <= alignment_padding_bits <= 255:
            raise CodingError(
                f"alignment_padding_bits must be in 0..255, got {alignment_padding_bits}"
            )
        self._backend = backend
        self._transform = GDTransform(
            order=order, chunk_bits=chunk_bits, backend=backend
        )
        self._identifier_bits = identifier_bits
        self._header = ContainerHeader(
            order, self._transform.chunk_bits, identifier_bits, alignment_padding_bits
        )
        self._mode = EncoderMode.from_name(mode)
        self._eviction_policy = EvictionPolicy.from_name(eviction_policy)
        self._static_bases = list(static_bases) if static_bases is not None else None
        if eviction_seed is None and self._eviction_policy is EvictionPolicy.RANDOM:
            # Both dictionaries must draw the same eviction sequence or the
            # decoder resolves identifiers to the wrong bases once the
            # dictionary fills; sample one seed and share it.
            eviction_seed = random.randrange(1 << 63)
        self._eviction_seed = eviction_seed

        capacity = 1 << identifier_bits
        self._encoder_dictionary: Optional[BasisDictionary] = None
        self._decoder_dictionary: Optional[BasisDictionary] = None
        if self._mode is not EncoderMode.NO_TABLE:
            self._encoder_dictionary = BasisDictionary(
                capacity, eviction_policy, seed=eviction_seed
            )
            self._decoder_dictionary = BasisDictionary(
                capacity, eviction_policy, seed=eviction_seed
            )
            if self._mode is EncoderMode.STATIC:
                if self._static_bases is None:
                    raise CodingError("static mode requires static_bases")
                # The dictionaries key on basis rows (BatchSplit).
                basis_bits = self._transform.basis_bits
                rows = [int_to_bytes(basis, basis_bits) for basis in self._static_bases]
                self._encoder_dictionary.preload(iter(rows))
                self._decoder_dictionary.preload(iter(rows))

        self._encoder = GDEncoder(
            self._transform,
            self._encoder_dictionary,
            mode=self._mode,
            identifier_bits=identifier_bits,
            alignment_padding_bits=alignment_padding_bits,
        )
        self._decoder = GDDecoder(
            self._transform,
            self._decoder_dictionary,
            # Mirror the encoder: only a dynamic encoder inserts the bases it
            # sends uncompressed, so only then may the decoder learn them (a
            # static decoder that learned would evict preloaded entries the
            # encoder still references).
            learn_from_uncompressed=self._mode is EncoderMode.DYNAMIC,
        )

    # -- accessors -------------------------------------------------------------

    @property
    def transform(self) -> GDTransform:
        """The underlying GD transformation."""
        return self._transform

    @property
    def encoder(self) -> GDEncoder:
        """The encoder half of the codec."""
        return self._encoder

    @property
    def decoder(self) -> GDDecoder:
        """The decoder half of the codec."""
        return self._decoder

    @property
    def chunk_bytes(self) -> int:
        """Chunk size in bytes."""
        return self._transform.chunk_bytes

    @property
    def identifier_bits(self) -> int:
        """Identifier width in bits."""
        return self._identifier_bits

    # -- chunking ---------------------------------------------------------------

    def _padded(self, data: bytes, pad: bool) -> bytes:
        """``data`` zero-padded to a whole number of chunks.

        Without ``pad``, a ragged length raises instead (the paper's traces
        are always exact chunk multiples).
        """
        size = self.chunk_bytes
        if len(data) % size:
            if not pad:
                raise ChunkSizeError(
                    f"data length {len(data)} is not a multiple of the chunk size "
                    f"{size}; pass pad=True to zero-pad the final chunk"
                )
            data = data + b"\x00" * (size - len(data) % size)
        return data

    # -- compression -------------------------------------------------------------

    def compress(self, data: bytes, pad: bool = False) -> CompressionResult:
        """Compress a byte string into GD records.

        The records come back as a lazily materialised
        :class:`~repro.core.encoder.EncodedBatch`, which compares equal to
        the record tuple it describes.
        """
        padded_bits_before = self._encoder.stats.output_padded_bits
        records = self._encoder.encode_buffer_batch(self._padded(data, pad))
        # Padded record payloads are byte aligned, so the wire volume is the
        # encoder's padded-bit delta — no per-record property walk needed.
        payload_bytes = (
            self._encoder.stats.output_padded_bits - padded_bits_before
        ) // 8
        return CompressionResult(
            records=records,
            original_bytes=len(data),
            payload_bytes=payload_bytes,
            # One tag byte per record on top of the payloads and the framing.
            container_bytes=FRAMING_BYTES + len(records) + payload_bytes,
        )

    def decompress_records(
        self, records: Iterable[GDRecord], original_bytes: Optional[int] = None
    ) -> bytes:
        """Decode records back into the original byte string."""
        data = self._decoder.decode_batch_to_bytes(records)
        if original_bytes is not None:
            data = data[:original_bytes]
        return data

    # -- container serialisation ------------------------------------------------------

    def write_container(self, runs: Iterable[Tuple[bytes, int]]) -> Iterator[bytes]:
        """:func:`repro.core.wire.write_container` of ``runs`` under this
        codec's parameters."""
        return write_container(self._header, runs)

    def to_container(self, result: CompressionResult) -> bytes:
        """Serialise a compression result into the ``GDZ1`` container format."""
        run = (result.records.pack_stream(), result.original_bytes)
        return b"".join(self.write_container([run]))

    def clone(self) -> "GDCodec":
        """A new codec with the same parameters and empty dictionaries."""
        return GDCodec(
            **self._header._asdict(),
            mode=self._mode,
            eviction_policy=self._eviction_policy,
            static_bases=self._static_bases,
            eviction_seed=self._eviction_seed,
            backend=self._backend,
        )

    def compress_to_container(self, data: bytes, pad: bool = True) -> bytes:
        """Compress and serialise into a self-contained container.

        A fresh encoder state is used so that every basis referenced by a
        type-3 record is introduced by an earlier type-2 record inside the
        same container — the container can then be decompressed with no
        shared state, regardless of what this codec compressed before.
        """
        fresh = self.clone()
        return fresh.to_container(fresh.compress(data, pad=pad))

    @classmethod
    def from_container_header(cls, blob: bytes) -> "GDCodec":
        """Build a codec matching the parameters stored in a container."""
        opened = parse_header(blob)
        if opened is None:
            raise CodingError("container too short to hold a header")
        return cls(mode=EncoderMode.DYNAMIC, **opened[0]._asdict())

    def decompress_container(self, blob: bytes) -> bytes:
        """Parse a ``GDZ1`` container and reconstruct the original bytes."""
        return b"".join(read_container([blob], self._open_container))

    def _open_container(self, header: ContainerHeader) -> "GDCodec":
        """The codec that decodes a container with ``header``, which must
        have been produced with this codec's parameters."""
        mine = self._header
        if header[:3] != mine[:3]:
            raise CodingError(
                "container was produced with different GD parameters: "
                f"{header[:3]} (order, chunk bits, identifier bits), not {mine[:3]}"
            )
        if header.alignment_padding_bits != mine.alignment_padding_bits:
            raise CodingError(
                f"container alignment padding {header.alignment_padding_bits} "
                f"does not match codec padding {mine.alignment_padding_bits}"
            )
        # Containers are self-contained: decode with a fresh dictionary so
        # that identifiers resolve exactly as the producing encoder assigned
        # them, independent of anything this codec decoded before.
        return self.clone()

    def parse_records(
        self, data, offset: int, limit: Optional[int] = None, streamed: bool = False
    ) -> Tuple[bytearray, Sequence[int], List[int], Sequence[int], int]:
        """:func:`repro.core.wire.parse_records` of ``data[offset:]`` (same
        contract, same return) served by the backend
        :func:`~repro.core.backends.batch_backend` picks; the columns go to
        :meth:`GDDecoder.decode_columns_to_bytes` on the same transform."""
        layout = self._encoder.layout
        backend = self._transform.backend_impl
        most = len(data) - offset if limit is None else limit  # records, at most
        return batch_backend(
            backend, most, backend.supports_records, layout
        ).parse_records(layout, data, offset, limit, streamed)
