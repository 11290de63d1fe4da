"""DEFLATE/gzip baseline (the "Gzip" bars of Figure 3).

The paper extracts all payloads into a regular file and compresses it with
the ``gzip`` command-line tool.  The whole-file mode counts the output of
the registry's ``gzip`` codec
(:class:`~repro.core.engine.GzipStreamCompressor`: the same DEFLATE
algorithm and container framing as the tool), fed chunk by chunk, so the
concatenated file is never materialised.

Besides the whole-file mode the paper uses, a per-chunk mode is provided for
the ablation study: it shows why DEFLATE is a poor fit for small IoT-style
chunks (every 32-byte chunk pays the DEFLATE block overhead), which is one
of the motivations the paper gives for GD.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.core.engine import GzipStreamCompressor

__all__ = ["GzipResult", "GzipBaseline"]


@dataclass(frozen=True)
class GzipResult:
    """Outcome of compressing a dataset with the gzip baseline."""

    original_bytes: int
    compressed_bytes: int
    level: int
    per_chunk: bool

    @property
    def compression_ratio(self) -> float:
        """Compressed size over original size."""
        if self.original_bytes == 0:
            return 0.0
        return self.compressed_bytes / self.original_bytes

    @property
    def savings_percent(self) -> float:
        """Percentage of bytes saved."""
        return 100.0 * (1.0 - self.compression_ratio)


class GzipBaseline:
    """Compress chunk streams with DEFLATE, whole-file or per chunk.

    Parameters
    ----------
    level:
        DEFLATE compression level, 1–9 (the gzip tool default is 6).
    """

    def __init__(self, level: int = 6):
        self._whole_file = GzipStreamCompressor(level)  # validates the level
        self.level = level

    # -- whole-file mode (what the paper measures) --------------------------------

    def compress_chunks(self, chunks: Sequence[bytes]) -> GzipResult:
        """Compress the chunks as one concatenated file (paper's method)."""
        compressed = sum(len(out) for out in self._whole_file.compress_stream(chunks))
        return GzipResult(
            original_bytes=sum(len(chunk) for chunk in chunks),
            compressed_bytes=compressed,
            level=self.level,
            per_chunk=False,
        )

    def compress_bytes(self, data: bytes) -> GzipResult:
        """Compress one contiguous byte string (gzip container, like the tool)."""
        return self.compress_chunks([data])

    # -- per-chunk mode (ablation) ----------------------------------------------------

    def compress_per_chunk(self, chunks: Iterable[bytes]) -> GzipResult:
        """Compress every chunk independently (raw DEFLATE, no container).

        This is what an online, per-packet DEFLATE deployment would have to
        do; the resulting ratio is typically above 1 for 32-byte chunks,
        illustrating the paper's point about small-data compression.
        """
        original = 0
        compressed = 0
        for chunk in chunks:
            original += len(chunk)
            compressor = zlib.compressobj(self.level, zlib.DEFLATED, -15)
            compressed += len(compressor.compress(chunk) + compressor.flush())
        return GzipResult(
            original_bytes=original,
            compressed_bytes=compressed,
            level=self.level,
            per_chunk=True,
        )
