"""The ``pure`` codec backend: the fused byte-lane path, always available.

The pure-Python batch kernels of the GD transformation live here —
``bytes.translate`` lane reduction for syndromes/parities, big-integer XOR
folds, one table lookup per chunk.  Every batch entry point dispatches to
this backend unless :func:`~repro.core.backends.batch_backend` selects an
accelerated one, and the other backends are property-tested against it.
"""

from __future__ import annotations

import struct
from typing import List, Sequence, Tuple

from repro.core.backends import BatchSplit, CodecBackend
from repro.core.crc import lane_remainders, record_tables
from repro.exceptions import ChunkSizeError

__all__ = ["PureBackend"]


class PureBackend(CodecBackend):
    """Reference backend built on the pure-Python fused fast paths."""

    name = "pure"
    priority = 10
    accelerated = False

    def availability_detail(self) -> str:
        return "pure-Python fused byte-lane path (always available)"

    def split_batch_columns(self, transform, data) -> BatchSplit:
        """Buffer of whole chunks → field triples, one fused pass per chunk.

        ``int.from_bytes`` for the value, the syndrome of the chunk's own
        bytes (corrected for the prefix bits by one lookup), one XOR-mask
        lookup for the codeword — with zero per-chunk object allocation.
        ``data`` is sliced through a :class:`memoryview`, so callers can
        pass views of larger buffers without copying.
        """
        chunk_bytes = transform.chunk_bytes
        total = len(data)
        code = transform.code
        n = code.n
        m = code.m
        chunk_bits = transform.chunk_bits
        body_mask = (1 << n) - 1
        from_bytes = int.from_bytes
        aligned = chunk_bits == chunk_bytes * 8
        view = memoryview(data)
        fields: List[Tuple[int, int, int]] = []
        append = fields.append
        masks = code.error_masks
        # A whole chunk's remainder splits linearly as ``syndrome(chunk) =
        # syndrome(body) ^ syndrome(prefix << n)``, so reducing the chunk's
        # own bytes and cancelling the prefix term recovers the body
        # syndrome without isolating (re-serialising) the body.  That term
        # is the prefix itself unless it is wider than the syndrome.
        prefix_syndrome = code.prefix_syndrome
        offsets = range(0, total, chunk_bytes)
        if m <= 8:
            # Bulk lane pass: every chunk's raw-buffer syndrome at once, at
            # C speed.  The per-chunk Python work then collapses to one
            # ``int.from_bytes`` plus a handful of arithmetic ops.
            buf = data if isinstance(data, (bytes, bytearray)) else bytes(view)
            raw_syndromes = lane_remainders(
                record_tables(code.crc_parameter, m, chunk_bytes), buf
            )
        else:
            buf = view
            remainder = code.byte_remainder
            raw_syndromes = [
                remainder(view[offset : offset + chunk_bytes]) for offset in offsets
            ]
        for offset, deviation in zip(offsets, raw_syndromes):
            value = from_bytes(buf[offset : offset + chunk_bytes], "big")
            if not aligned and value >> chunk_bits:
                raise ChunkSizeError(
                    f"chunk value does not fit in {chunk_bits} bits"
                )
            prefix = value >> n
            if prefix:
                deviation ^= prefix_syndrome(prefix) if prefix >> m else prefix
            append(
                (prefix, ((value & body_mask) ^ masks[deviation]) >> m, deviation)
            )
        width = (code.k + 7) // 8

        def columns():
            prefixes, bases, deviations = tuple(map(list, zip(*fields))) or ([], [], [])
            return prefixes, [b.to_bytes(width, "big") for b in bases], deviations

        return BatchSplit(len(fields), self.name, columns, fields)

    def parities_of_bases(self, code, bases: Sequence[int]) -> Sequence[int]:
        return code.parities_of_bases(bases)

    def join_batch_to_bytes(
        self,
        transform,
        prefixes: Sequence[int],
        bases: bytes,
        deviations: Sequence[int],
    ) -> bytes:
        """Resolved field columns → concatenated chunks.

        Parity bits of the basis rows for the whole batch through the bulk
        lane reduction, then one combine + ``to_bytes`` per chunk.  Callers
        guarantee the field widths (the decoder validates them per batch).
        """
        chunk_bytes = transform.chunk_bytes
        code = transform.code
        bases = [
            int.from_bytes(row, "big")
            for (row,) in struct.iter_unpack(f"{(code.k + 7) // 8}s", bases)
        ]
        parities = code.parities_of_bases(bases)
        masks = code.error_masks
        m = code.m
        n = code.n
        pieces: List[bytes] = []
        append = pieces.append
        for index in range(len(bases)):
            codeword = (bases[index] << m) | parities[index]
            append(
                (
                    (prefixes[index] << n) | (codeword ^ masks[deviations[index]])
                ).to_bytes(chunk_bytes, "big")
            )
        return b"".join(pieces)
