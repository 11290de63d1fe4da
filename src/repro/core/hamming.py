"""Hamming codes driven by CRC arithmetic, as used by the GD transformation.

A Hamming code of order ``m`` has length ``n = 2**m - 1`` and dimension
``k = n - m``.  ZipLine never uses the code for error *correction*; instead
it exploits the code's algebra to split an arbitrary ``n``-bit chunk ``B``
into a ``k``-bit **basis** and an ``m``-bit **deviation** (the syndrome):

* encoding (compression direction, Figure 1 of the paper):
  ``s = CRC_m(B)``; the syndrome lookup table maps ``s`` to the single bit
  position whose flip turns ``B`` into a codeword ``B'``; the basis is the
  ``k`` message bits of ``B'``;
* decoding (decompression direction, Figure 2): the basis is zero-padded and
  fed through the same CRC to recover the parity bits, rebuilding ``B'``;
  the same syndrome lookup table gives the mask that flips the deviated bit
  back, recovering ``B`` exactly.

Because every ``n``-bit value decomposes uniquely into (basis, syndrome),
the transform is lossless and bijective: ``2**k * 2**m == 2**n``.

The class below also offers systematic encoding and single-error
correction; the matrix formulation the CRC shortcut is checked against
lives with the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from repro.core.backends import batch_backend
from repro.core.crc import (
    CrcEngine,
    byte_remainder_function,
    lane_remainders,
    poly_mod,
    record_tables,
    syndrome_crc,
)
from repro.core.polynomials import HammingPolynomial, polynomial_for_order
from repro.exceptions import CodingError

__all__ = [
    "HammingCode",
    "SyndromeTable",
    "hamming_code",
    "hamming_parameters_for_order",
]


def hamming_parameters_for_order(m: int) -> Tuple[int, int]:
    """Return ``(n, k)`` for a Hamming code of order ``m``."""
    if m < 2:
        raise CodingError(f"Hamming order must be at least 2, got {m}")
    n = (1 << m) - 1
    return n, n - m


@dataclass(frozen=True)
class SyndromeTable:
    """The syndrome → error-position lookup table (step ➌ in Figure 1).

    ``positions[s]`` gives the bit position (0 = least significant bit of the
    chunk) whose single-bit error produces syndrome ``s``; syndrome 0 maps to
    ``None`` (no deviation).  ``masks[s]`` is the corresponding n-bit XOR
    mask — precomputed exactly like the constant P4 table entries that the
    paper generates with a short C++/Boost.CRC program.
    """

    order: int
    positions: Tuple[Optional[int], ...]
    masks: Tuple[int, ...]

    def mask_for(self, syndrome: int) -> int:
        """n-bit XOR mask for ``syndrome`` (0 for syndrome 0)."""
        if not 0 <= syndrome < len(self.masks):
            raise CodingError(
                f"syndrome {syndrome} out of range for order {self.order}"
            )
        return self.masks[syndrome]

    def entries(self) -> List[Tuple[int, Optional[int]]]:
        """All (syndrome, position) pairs, syndrome 0 first."""
        return list(enumerate(self.positions))


class HammingCode:
    """A cyclic Hamming code of order ``m`` built from a generator polynomial.

    Parameters
    ----------
    m:
        Parity width.  ``n = 2**m - 1`` and ``k = n - m`` follow.
    polynomial:
        Optional full-form generator polynomial (including the leading
        ``x**m`` term).  Defaults to the Table 1 entry for this order.

    The instance owns a :class:`~repro.core.crc.CrcEngine` configured in
    plain-remainder mode — the software twin of the Tofino CRC extern that
    the hardware implementation programs with the Table 1 parameter.
    """

    def __init__(self, m: int, polynomial: Optional[int] = None):
        n, k = hamming_parameters_for_order(m)
        if polynomial is None:
            entry: Optional[HammingPolynomial] = polynomial_for_order(m)
            polynomial = entry.full_polynomial
        else:
            entry = None
            if polynomial.bit_length() - 1 != m:
                raise CodingError(
                    f"polynomial degree {polynomial.bit_length() - 1} does not "
                    f"match requested order m={m}"
                )
            if not polynomial & 1:
                raise CodingError("generator polynomial must have a non-zero constant term")
        self._m = m
        self._n = n
        self._k = k
        self._full_polynomial = polynomial
        self._table_entry = entry
        parameter = polynomial ^ (1 << m)  # leading term stripped (Table 1)
        self._crc = syndrome_crc(parameter, m)
        self._syndrome_table = self._build_syndrome_table()
        # Precomputed hot-path state: the error-mask array indexed directly
        # by syndrome, a fused bytes→remainder closure over the shared
        # 256-entry CRC table and (orders up to 8) the byte-lane tables of a
        # serialised codeword.  The GD fast path (transform batch split and
        # the switch models) reduces whole chunks through these without
        # re-entering the checked CrcEngine/SyndromeTable layers.
        self._error_masks: Tuple[int, ...] = self._syndrome_table.masks
        self._byte_remainder = byte_remainder_function(parameter, m)
        self._parity_bytes = (n + 7) // 8
        self._parity_lanes = (
            record_tables(parameter, m, self._parity_bytes) if m <= 8 else None
        )

    # -- construction -----------------------------------------------------

    def _build_syndrome_table(self) -> SyndromeTable:
        """Precompute syndrome → error-position and syndrome → mask tables.

        Position ``i`` has syndrome ``x**i mod g(x)``; iterating the
        multiplication by ``x`` avoids recomputing full divisions.  The
        construction fails loudly if two positions collide, which would mean
        the polynomial is not primitive and cannot support a Hamming code of
        this length.
        """
        positions: List[Optional[int]] = [None] * (1 << self._m)
        masks = [0] * (1 << self._m)
        syndrome = 1  # x^0 mod g
        for position in range(self._n):
            if syndrome == 0:
                raise CodingError(
                    f"polynomial 0x{self._full_polynomial:X} divides x^{position}; "
                    "not a valid Hamming generator"
                )
            if positions[syndrome] is not None:
                raise CodingError(
                    f"polynomial 0x{self._full_polynomial:X} is not primitive: "
                    f"positions {positions[syndrome]} and {position} share syndrome "
                    f"{syndrome:#x}"
                )
            positions[syndrome] = position
            masks[syndrome] = 1 << position
            syndrome = poly_mod(syndrome << 1, self._full_polynomial)
        return SyndromeTable(
            order=self._m, positions=tuple(positions), masks=tuple(masks)
        )

    # -- simple accessors ---------------------------------------------------

    @property
    def m(self) -> int:
        """Parity width (syndrome width) in bits."""
        return self._m

    @property
    def n(self) -> int:
        """Code length in bits (``2**m - 1``)."""
        return self._n

    @property
    def k(self) -> int:
        """Message (basis) length in bits (``n - m``)."""
        return self._k

    @property
    def full_polynomial(self) -> int:
        """Generator polynomial including the leading term."""
        return self._full_polynomial

    @property
    def crc_parameter(self) -> int:
        """Polynomial with the leading term stripped (Tofino CRC parameter)."""
        return self._full_polynomial ^ (1 << self._m)

    @property
    def crc_engine(self) -> CrcEngine:
        """The plain-remainder CRC engine used for syndrome computation."""
        return self._crc

    @property
    def syndrome_table(self) -> SyndromeTable:
        """The syndrome → error-position lookup table."""
        return self._syndrome_table

    @property
    def error_masks(self) -> Tuple[int, ...]:
        """The n-bit XOR masks indexed by syndrome (step ➌/➍ of Figure 1;
        :meth:`SyndromeTable.mask_for` without its checks)."""
        return self._error_masks

    @property
    def byte_remainder(self):
        """Fused ``remainder(data) -> int`` over raw bytes (syndrome mode).

        Equals :meth:`syndrome` of the integer the bytes spell, for any
        byte-aligned buffer whose value fits in ``n`` bits; the fast paths
        bind this closure locally instead of calling :meth:`syndrome` per
        chunk.
        """
        return self._byte_remainder

    def prefix_syndrome(self, prefix: int) -> int:
        """Remainder contribution of ``prefix`` sitting above the n-bit body.

        Syndromes are linear, so ``byte_remainder(whole chunk) ==
        syndrome(body) ^ (prefix * x**n) mod g``; and because ``g`` is
        primitive of order ``n``, ``x**n ≡ 1`` and the correction is just
        ``prefix mod g`` — the prefix itself whenever it fits in ``m`` bits.
        """
        if not prefix >> self._m:
            return prefix
        return self._byte_remainder(
            prefix.to_bytes((prefix.bit_length() + 7) // 8, "big")
        )

    def parity_of_basis_fast(self, basis: int) -> int:
        """Unchecked :meth:`parity_of_basis` (decode-direction hot path).

        Serialises ``basis * x**m`` to a fixed ``ceil(n / 8)`` bytes (leading
        zeros do not change a remainder) and reduces it through the fused
        byte loop.
        """
        return self._byte_remainder((basis << self._m).to_bytes(self._parity_bytes, "big"))

    def parities_of_bases(
        self, bases: Sequence[int], backend=None
    ) -> Sequence[int]:
        """Parity bits of many bases in one bulk pass (decode hot path).

        For orders up to 8 the parities of the whole batch come out of the
        C-speed lane reduction (serialise every ``basis * x**m`` into one
        buffer, translate its byte lanes, XOR them together); wider orders
        fall back to the per-basis fused loop.  Element ``i`` equals
        :meth:`parity_of_basis` of ``bases[i]``.

        ``backend`` optionally names an accelerated
        :class:`~repro.core.backends.CodecBackend` (the decoder passes its
        transform's); large batches it supports then fold through ndarray
        gathers instead of the byte-lane loop, bit-identically.
        """
        if backend is not None:
            backend = batch_backend(backend, len(bases), backend.supports_parity, self)
            if backend.accelerated:
                return backend.parities_of_bases(self, bases)
        if self._parity_lanes is None:
            fast = self.parity_of_basis_fast
            return [fast(basis) for basis in bases]
        length = self._parity_bytes
        m = self._m
        buffer = b"".join((basis << m).to_bytes(length, "big") for basis in bases)
        return lane_remainders(self._parity_lanes, buffer)

    def __repr__(self) -> str:
        return (
            f"HammingCode(n={self._n}, k={self._k}, m={self._m}, "
            f"polynomial=0x{self._full_polynomial:X})"
        )

    # -- syndromes ----------------------------------------------------------

    def syndrome(self, chunk: int) -> int:
        """Syndrome of an ``n``-bit chunk (step ➋ of Figure 1)."""
        self._check_chunk(chunk)
        return self._crc.compute(chunk, self._n)

    def syndrome_of_error_position(self, position: int) -> int:
        """Syndrome produced by a single-bit error at ``position``."""
        if not 0 <= position < self._n:
            raise CodingError(
                f"error position {position} out of range for n={self._n}"
            )
        return self._crc.compute(1 << position, self._n)

    # -- GD transformation (basis / deviation split) -------------------------

    def chunk_to_basis(self, chunk: int) -> Tuple[int, int]:
        """Split an ``n``-bit chunk into ``(basis, syndrome)``.

        This is the encoding workflow of Figure 1: compute the syndrome,
        flip the deviated bit to land on a codeword, keep the ``k`` message
        bits of that codeword as the basis and the syndrome as the deviation.
        """
        self._check_chunk(chunk)
        syndrome = self._crc.compute(chunk, self._n)
        codeword = chunk ^ self._syndrome_table.mask_for(syndrome)
        basis = codeword >> self._m
        return basis, syndrome

    def basis_to_chunk(self, basis: int, syndrome: int) -> int:
        """Rebuild the original ``n``-bit chunk from ``(basis, syndrome)``.

        This is the decoding workflow of Figure 2: recompute the parity bits
        of the basis with the same CRC, concatenate, and flip the deviated
        bit back.
        """
        self._check_basis(basis)
        self._check_syndrome(syndrome)
        parity = self.parity_of_basis(basis)
        codeword = (basis << self._m) | parity
        return codeword ^ self._syndrome_table.mask_for(syndrome)

    def parity_of_basis(self, basis: int) -> int:
        """Parity bits of a ``k``-bit basis (step ➍ of Figure 2).

        Equals the augmented CRC of the basis — i.e. the remainder of
        ``basis(x) * x**m`` — which is what feeding the zero-padded basis
        through the switch CRC unit computes.  Uses the shared byte loop
        (this is the decode-direction hot path, a 247-bit division per
        chunk for the paper's parameters).
        """
        self._check_basis(basis)
        return self.parity_of_basis_fast(basis)

    # -- classic codeword operations ------------------------------------------

    def encode(self, message: int) -> int:
        """Systematically encode a ``k``-bit message into an ``n``-bit codeword."""
        self._check_basis(message)
        return (message << self._m) | self.parity_of_basis(message)

    # -- validation helpers --------------------------------------------------

    def _check_chunk(self, chunk: int) -> None:
        if chunk < 0:
            raise CodingError(f"chunk must be non-negative, got {chunk}")
        if chunk >> self._n:
            raise CodingError(f"chunk {chunk:#x} does not fit in n={self._n} bits")

    def _check_basis(self, basis: int) -> None:
        if basis < 0:
            raise CodingError(f"basis must be non-negative, got {basis}")
        if basis >> self._k:
            raise CodingError(f"basis {basis:#x} does not fit in k={self._k} bits")

    def _check_syndrome(self, syndrome: int) -> None:
        if syndrome < 0:
            raise CodingError(f"syndrome must be non-negative, got {syndrome}")
        if syndrome >> self._m:
            raise CodingError(
                f"syndrome {syndrome:#x} does not fit in m={self._m} bits"
            )


@lru_cache(maxsize=32)
def hamming_code(m: int, polynomial: Optional[int] = None) -> HammingCode:
    """The one :class:`HammingCode` of order ``m`` and generator
    ``polynomial`` per process.

    A code is immutable after construction, and building one builds its
    syndrome and byte-lane tables, so every transform that names the same
    code — workloads, switches, the engine — shares one instance.  The
    cache keeps the 32 codes used last: a run names one or two.
    """
    return HammingCode(m, polynomial)
