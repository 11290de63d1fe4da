"""The GD transformation function: fixed-size chunks ⇄ (prefix, basis, deviation).

The Hamming code of order ``m`` works on chunks of exactly ``n = 2**m - 1``
bits, which is never byte aligned.  ZipLine therefore processes chunks of
``n + e`` bits where the ``e`` extra most-significant bits (``e = 1`` for the
paper's 256-bit chunks with ``m = 8``) are carried through verbatim — the
paper calls this "one additional bit to store the MSB of the raw data
packet".

:class:`GDTransform` wraps a :class:`~repro.core.hamming.HammingCode` and
handles this framing: it accepts chunks as integers or byte strings,
splits them into a *prefix* (the verbatim extra bits), a *basis* and a
*deviation* (the syndrome), and reassembles them exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

from repro.core.backends import (
    BatchSplit,
    CodecBackend,
    batch_backend,
    default_backend,
    named_backend,
)
from repro.core.bits import align_up, bits_to_bytes_len, mask
from repro.core.hamming import HammingCode, hamming_code
from repro.exceptions import ChunkSizeError, CodingError

__all__ = ["GDParts", "GDTransform", "ChunkLike", "GDFields"]

ChunkLike = Union[int, bytes, bytearray, memoryview]

#: The allocation-free representation the fast path works in:
#: ``(prefix, basis, deviation)`` as plain integers.
GDFields = Tuple[int, int, int]

@dataclass(frozen=True)
class GDParts:
    """The three components produced by the GD transformation of one chunk.

    Attributes
    ----------
    prefix:
        The ``prefix_bits`` most-significant bits of the chunk, carried
        verbatim (0 when ``prefix_bits`` is 0).
    basis:
        The ``k``-bit basis (deduplication unit).
    deviation:
        The ``m``-bit syndrome identifying which bit of the chunk deviates
        from the basis' codeword (0 = none).
    prefix_bits, basis_bits, deviation_bits:
        Field widths, kept alongside the values so the parts are
        self-describing and can be reserialised without the transform.
    """

    prefix: int
    basis: int
    deviation: int
    prefix_bits: int
    basis_bits: int
    deviation_bits: int

    def __post_init__(self) -> None:
        if self.prefix < 0 or self.prefix >> self.prefix_bits:
            raise CodingError(
                f"prefix {self.prefix:#x} does not fit in {self.prefix_bits} bits"
            )
        if self.basis >> self.basis_bits:
            raise CodingError(
                f"basis {self.basis:#x} does not fit in {self.basis_bits} bits"
            )
        if self.deviation >> self.deviation_bits:
            raise CodingError(
                f"deviation {self.deviation:#x} does not fit in "
                f"{self.deviation_bits} bits"
            )

    @property
    def chunk_bits(self) -> int:
        """Total chunk width this decomposition corresponds to."""
        return self.prefix_bits + self.basis_bits + self.deviation_bits


class GDTransform:
    """Bijective mapping between chunks and (prefix, basis, deviation) parts.

    Parameters
    ----------
    order:
        Hamming order ``m``; the code has ``n = 2**m - 1`` and ``k = n - m``.
    chunk_bits:
        Total chunk width.  Must be at least ``n``; the default is the
        smallest byte-aligned width not below ``n`` (256 for ``m = 8``),
        matching the paper's configuration.
    polynomial:
        Optional generator polynomial override (full form, with leading
        term).  Defaults to the Table 1 entry for the order.
    backend:
        Codec backend for the batch entry points: a registered name
        (``"pure"``, ``"numpy"``), a
        :class:`~repro.core.backends.CodecBackend` instance, or ``None``
        to follow the documented precedence (``REPRO_GD_BACKEND``, then
        the best available).  A backend named either way is checked at
        construction; "the best available" is decided by the first batch
        call or :attr:`backend` / :attr:`backend_impl` read, so a
        transform that only ever splits single chunks never imports
        numpy.  Accelerated backends only engage for configurations they
        support; everything else stays on the fused pure loop.  All
        backends are bit-identical.

    The split and the unchecked join run fused and table-driven.  The
    bit-serial reference they are property-tested against is the layer
    below — :meth:`HammingCode.chunk_to_basis
    <repro.core.hamming.HammingCode.chunk_to_basis>` /
    :meth:`~repro.core.hamming.HammingCode.basis_to_chunk`, which
    :meth:`join` also goes through.
    """

    def __init__(
        self,
        order: int = 8,
        chunk_bits: int | None = None,
        polynomial: int | None = None,
        backend: "str | CodecBackend | None" = None,
    ):
        self._code = hamming_code(order, polynomial)
        n = self._code.n
        if chunk_bits is None:
            chunk_bits = align_up(n, 8)
        if chunk_bits < n:
            raise CodingError(
                f"chunk_bits={chunk_bits} is smaller than the code length n={n}"
            )
        self._chunk_bits = chunk_bits
        self._prefix_bits = chunk_bits - n
        # A named backend is checked now.  The unnamed default is whichever
        # is best *available*, and finding out imports numpy: that waits for
        # the first batch call — a simulator run never makes one.
        self._backend = named_backend(backend)
        # Fused per-chunk constants, bound once: the shared byte→remainder
        # closure and the syndrome→XOR-mask array.
        self._body_mask = mask(n)
        self._remainder = self._code.byte_remainder
        self._error_masks = self._code.error_masks

    # -- accessors -----------------------------------------------------------

    @property
    def code(self) -> HammingCode:
        """The underlying Hamming code."""
        return self._code

    @property
    def order(self) -> int:
        """Hamming order ``m`` (deviation width)."""
        return self._code.m

    @property
    def chunk_bits(self) -> int:
        """Chunk width in bits (prefix + n)."""
        return self._chunk_bits

    @property
    def chunk_bytes(self) -> int:
        """Bytes needed to carry one chunk."""
        return bits_to_bytes_len(self._chunk_bits)

    @property
    def prefix_bits(self) -> int:
        """Verbatim prefix width in bits (chunk_bits - n)."""
        return self._prefix_bits

    @property
    def basis_bits(self) -> int:
        """Basis width ``k`` in bits."""
        return self._code.k

    @property
    def deviation_bits(self) -> int:
        """Deviation (syndrome) width ``m`` in bits."""
        return self._code.m

    @property
    def backend(self) -> str:
        """Name of the resolved codec backend (``pure``/``numpy``/...)."""
        return self.backend_impl.name

    @property
    def backend_impl(self) -> CodecBackend:
        """The resolved backend instance the batch entry points dispatch to."""
        backend = self._backend
        if backend is None:
            backend = self._backend = default_backend()
        return backend

    def __repr__(self) -> str:
        return (
            f"GDTransform(order={self.order}, chunk_bits={self._chunk_bits}, "
            f"n={self._code.n}, k={self._code.k})"
        )

    # -- input normalisation ----------------------------------------------------

    def _chunk_to_int(self, chunk: ChunkLike) -> int:
        if isinstance(chunk, (bytes, bytearray, memoryview)):
            data = bytes(chunk)
            if len(data) != self.chunk_bytes:
                raise ChunkSizeError(
                    f"chunk of {len(data)} bytes does not match configured "
                    f"{self.chunk_bytes} bytes"
                )
            value = int.from_bytes(data, "big")
            if value >> self._chunk_bits:
                raise ChunkSizeError(
                    f"chunk value does not fit in {self._chunk_bits} bits"
                )
            return value
        if isinstance(chunk, int):
            if chunk < 0:
                raise ChunkSizeError(f"chunk must be non-negative, got {chunk}")
            if chunk >> self._chunk_bits:
                raise ChunkSizeError(
                    f"chunk {chunk:#x} does not fit in {self._chunk_bits} bits"
                )
            return chunk
        raise ChunkSizeError(f"unsupported chunk type {type(chunk).__name__}")

    # -- forward / inverse ---------------------------------------------------------

    def split(self, chunk: ChunkLike) -> GDParts:
        """Apply the GD transformation to one chunk (Figure 1, steps ➊–➎)."""
        value = self._chunk_to_int(chunk)
        return self._parts(*self._split_value(value))

    def _parts(self, prefix: int, basis: int, deviation: int) -> GDParts:
        """Field values wrapped (and width-validated) as :class:`GDParts`."""
        return GDParts(
            prefix=prefix,
            basis=basis,
            deviation=deviation,
            prefix_bits=self._prefix_bits,
            basis_bits=self._code.k,
            deviation_bits=self._code.m,
        )

    def split_fields(self, chunk: ChunkLike) -> GDFields:
        """Transform one chunk into plain ``(prefix, basis, deviation)`` ints.

        The allocation-free twin of :meth:`split`: no :class:`GDParts`
        object, no per-field width re-validation.  Input validation is the
        same as :meth:`split`.
        """
        return self._split_value(self._chunk_to_int(chunk))

    def _split_value(self, value: int) -> GDFields:
        """Fused split of an already-validated chunk value."""
        n = self._code.n
        body = value & self._body_mask
        deviation = self._remainder(
            body.to_bytes((n + 7) // 8, "big")
        )
        basis = (body ^ self._error_masks[deviation]) >> self._code.m
        return value >> n, basis, deviation

    def join(self, parts: GDParts) -> int:
        """Invert the GD transformation (Figure 2, steps ➌–➐)."""
        self._check_parts(parts)
        body = self._code.basis_to_chunk(parts.basis, parts.deviation)
        return (parts.prefix << self._code.n) | body

    def join_fields(self, prefix: int, basis: int, deviation: int) -> int:
        """Invert the transformation from raw field values."""
        return self.join(self._parts(prefix, basis, deviation))

    def join_fields_fast(self, prefix: int, basis: int, deviation: int) -> int:
        """Fused, unchecked inverse: callers guarantee the field widths.

        The decode-direction hot path: parity bits through the shared CRC
        byte loop, one XOR-mask lookup to flip the deviated bit back.  Used
        by the batch decoder after it has validated record widths once per
        run; :meth:`join_fields` remains the checked entry point, through
        the reference :meth:`~repro.core.hamming.HammingCode.basis_to_chunk`.
        """
        code = self._code
        codeword = (basis << code.m) | code.parity_of_basis_fast(basis)
        return (prefix << code.n) | (codeword ^ self._error_masks[deviation])

    def split_batch(self, data: "bytes | bytearray | memoryview") -> List[GDParts]:
        """Transform a contiguous buffer of whole chunks in one pass.

        Semantically equal to calling :meth:`split` on every
        :attr:`chunk_bytes`-sized slice, but running the batch kernel of
        :meth:`split_batch_columns` and wrapping each result once.
        """
        parts = self._parts
        return [parts(*fields) for fields in self.split_batch_fields(data)]

    def split_batch_fields(
        self, data: "bytes | bytearray | memoryview"
    ) -> List[GDFields]:
        """Buffer of whole chunks → ``(prefix, basis, deviation)`` triples.

        The tuple-list view of :meth:`split_batch_columns`.
        """
        return self.split_batch_columns(data).fields()

    def split_batch_columns(
        self, data: "bytes | bytearray | memoryview"
    ) -> BatchSplit:
        """The batch split kernel: buffer of whole chunks → field columns.

        Dispatches through :func:`~repro.core.backends.batch_backend`: an
        accelerated backend (``numpy``) computes the whole buffer's
        syndromes, bases and deviations as ndarray operations when the
        batch is large enough and the configuration supported; otherwise
        the fused ``pure`` loop runs.  The result stays in the producing
        backend's natural shape and the columns or the classic tuple list
        are materialised lazily (see :class:`BatchSplit`).  Every backend
        is bit-identical, so callers never observe which one ran.
        """
        chunk_bytes = self.chunk_bytes
        total = len(data)
        if total % chunk_bytes:
            raise ChunkSizeError(
                f"data length {total} is not a multiple of the chunk size "
                f"{chunk_bytes}"
            )
        backend = self.backend_impl
        return batch_backend(
            backend, total // chunk_bytes, backend.supports_transform, self
        ).split_batch_columns(self, data)

    def join_batch_to_bytes(
        self,
        prefixes: Sequence[int],
        bases: bytes,
        deviations: Sequence[int],
    ) -> bytes:
        """The batch join kernel: field columns → concatenated chunk bytes.

        The inverse of :meth:`split_batch_columns`, with the same dispatch;
        ``bases`` is the basis rows (:class:`BatchSplit`) back to back.
        Callers guarantee the field widths (the decoder validates them once
        per batch); :meth:`join_fields` remains the checked entry point.
        """
        backend = self.backend_impl
        return batch_backend(
            backend, len(deviations), backend.supports_join, self
        ).join_batch_to_bytes(self, prefixes, bases, deviations)

    # -- validation ---------------------------------------------------------------

    def _check_parts(self, parts: GDParts) -> None:
        if parts.prefix_bits != self._prefix_bits:
            raise CodingError(
                f"parts prefix width {parts.prefix_bits} does not match "
                f"transform prefix width {self._prefix_bits}"
            )
        if parts.basis_bits != self._code.k:
            raise CodingError(
                f"parts basis width {parts.basis_bits} does not match k={self._code.k}"
            )
        if parts.deviation_bits != self._code.m:
            raise CodingError(
                f"parts deviation width {parts.deviation_bits} does not match "
                f"m={self._code.m}"
            )
