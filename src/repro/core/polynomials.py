"""Registry of Hamming-code generator polynomials (Table 1 of the paper).

Table 1 of the ZipLine paper lists, for every Hamming code from (7, 4) up to
(32767, 32752), a generator polynomial and the equivalent parameter to
program into a Tofino CRC-m extern (the polynomial with its leading
``x**m`` term stripped).

This module reproduces that table as :data:`TABLE_1`, provides lookup
helpers keyed by ``m``, and records the two entries whose
printed CRC parameter in the paper does not match the printed polynomial
(the two (511, 502) rows) — see :data:`PAPER_ERRATA`.  The *polynomial*
column is treated as authoritative; the CRC parameter is derived from it and
each polynomial is checked for primitivity by the test suite (a primitive
degree-``m`` polynomial is exactly what a (2^m - 1, 2^m - m - 1) Hamming
code requires).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.crc import is_primitive_polynomial, polynomial_str
from repro.exceptions import CodingError

__all__ = [
    "HammingPolynomial",
    "TABLE_1",
    "PAPER_ERRATA",
    "polynomial_for_order",
    "polynomials_for_order",
    "supported_orders",
    "crc_parameter",
]


@dataclass(frozen=True)
class HammingPolynomial:
    """One row of Table 1: a Hamming code and its generator polynomial.

    Attributes
    ----------
    n, k, m:
        Code length, message length and parity width (``n = 2**m - 1``,
        ``k = n - m``).
    full_polynomial:
        Generator polynomial in full binary form including the leading
        ``x**m`` term (e.g. ``0b1011`` for ``x^3 + x + 1``).
    paper_crc_parameter:
        The "Parameter for CRC-m" column exactly as printed in the paper.
        Usually equals :attr:`crc_parameter`; differs for the two erratum
        rows.
    """

    n: int
    k: int
    m: int
    full_polynomial: int
    paper_crc_parameter: int

    def __post_init__(self) -> None:
        if self.n != (1 << self.m) - 1:
            raise CodingError(f"n={self.n} is not 2^{self.m} - 1")
        if self.k != self.n - self.m:
            raise CodingError(f"k={self.k} is not n - m for n={self.n}, m={self.m}")
        if self.full_polynomial.bit_length() - 1 != self.m:
            raise CodingError(
                f"polynomial degree {self.full_polynomial.bit_length() - 1} "
                f"does not match m={self.m}"
            )

    @property
    def crc_parameter(self) -> int:
        """CRC-m parameter derived from the polynomial (leading term stripped)."""
        return self.full_polynomial ^ (1 << self.m)

    @property
    def code(self) -> Tuple[int, int]:
        """The ``(n, k)`` pair."""
        return (self.n, self.k)

    @property
    def polynomial_text(self) -> str:
        """Human-readable polynomial, e.g. ``x^3 + x + 1``."""
        return polynomial_str(self.full_polynomial)

    def is_valid_hamming_generator(self) -> bool:
        """True when the polynomial is primitive (usable as a Hamming generator)."""
        return is_primitive_polynomial(self.full_polynomial)


def _row(m: int, full_polynomial: int, paper_parameter: int) -> HammingPolynomial:
    n = (1 << m) - 1
    return HammingPolynomial(
        n=n,
        k=n - m,
        m=m,
        full_polynomial=full_polynomial,
        paper_crc_parameter=paper_parameter,
    )


#: Table 1 of the paper, in row order.  Polynomials are written in full
#: binary form; e.g. ``0b1011`` is ``x^3 + x + 1``.
TABLE_1: List[HammingPolynomial] = [
    _row(3, 0b1011, 0x3),                       # (7, 4)        x^3+x+1
    _row(4, 0b10011, 0x3),                      # (15, 11)      x^4+x+1
    _row(5, 0b100101, 0x05),                    # (31, 26)      x^5+x^2+1
    _row(5, 0b110111, 0x17),                    # (31, 26)      x^5+x^4+x^2+x+1
    _row(6, 0b1000011, 0x03),                   # (63, 57)      x^6+x+1
    _row(7, 0b10001001, 0x09),                  # (127, 120)    x^7+x^3+1
    _row(8, 0b100011101, 0x1D),                 # (255, 247)    x^8+x^4+x^3+x^2+1
    _row(9, 0b1000010001, 0x00D),               # (511, 502)    x^9+x^4+1
    _row(9, 0b1111100011, 0x0F3),               # (511, 502)    x^9+x^8+x^7+x^6+x^5+x+1
    _row(10, 0b10000001001, 0x009),             # (1023, 1013)  x^10+x^3+1
    _row(11, 0b100000000101, 0x005),            # (2047, 2036)  x^11+x^2+1
    _row(12, 0b1000001010011, 0x053),           # (4095, 4083)  x^12+x^6+x^4+x+1
    _row(13, 0b10000000011011, 0x01B),          # (8191, 8178)  x^13+x^4+x^3+x+1
    _row(14, 0b100000101000011, 0x143),         # (16383, 16369) x^14+x^8+x^6+x+1
    _row(15, 0b1000000000000011, 0x003),        # (32767, 32752) x^15+x+1
]

#: Rows whose printed CRC parameter in the paper does not equal the printed
#: polynomial with its leading term stripped.  Maps row index (0-based within
#: :data:`TABLE_1`) to a short explanation.  The reproduction derives the CRC
#: parameter from the polynomial, which is the internally consistent choice.
PAPER_ERRATA: Dict[int, str] = {
    7: (
        "Paper prints parameter 0x00D for x^9 + x^4 + 1; stripping the "
        "leading term gives 0x011.  The polynomial is the standard primitive "
        "trinomial, so the parameter column appears to be a typo."
    ),
    8: (
        "Paper prints parameter 0x0F3 for x^9 + x^8 + x^7 + x^6 + x^5 + x + 1; "
        "stripping the leading term gives 0x1E3."
    ),
}

_BY_ORDER: Dict[int, List[HammingPolynomial]] = {}
for _entry in TABLE_1:
    _BY_ORDER.setdefault(_entry.m, []).append(_entry)


def supported_orders() -> List[int]:
    """Sorted list of Hamming orders ``m`` present in Table 1."""
    return sorted(_BY_ORDER)


def polynomials_for_order(m: int) -> List[HammingPolynomial]:
    """All Table 1 rows with parity width ``m`` (some orders list two)."""
    try:
        return list(_BY_ORDER[m])
    except KeyError:
        raise CodingError(
            f"no generator polynomial registered for m={m}; "
            f"supported orders: {supported_orders()}"
        ) from None


def polynomial_for_order(m: int, index: int = 0) -> HammingPolynomial:
    """The ``index``-th Table 1 row for parity width ``m`` (default: first)."""
    rows = polynomials_for_order(m)
    if not 0 <= index < len(rows):
        raise CodingError(
            f"m={m} has {len(rows)} registered polynomial(s); index {index} is invalid"
        )
    return rows[index]


def crc_parameter(m: int, index: int = 0) -> int:
    """CRC-m extern parameter for the given order (leading term stripped)."""
    return polynomial_for_order(m, index).crc_parameter
