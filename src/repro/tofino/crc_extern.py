"""The Tofino CRC/hash extern, modelled in software.

P4-16 on TNA exposes a ``Hash`` extern that can be configured with a
``CRCPolynomial``; ZipLine programs it with the Hamming generator
polynomial (Table 1) and feeds it the chunk to obtain the syndrome in a
single pipeline pass.  :class:`CrcExtern` reproduces that interface:
construction takes the polynomial's coefficients and width, :meth:`get`
takes the fields to hash (as ``(value, width)`` pairs, concatenated
most-significant first, exactly like the P4 tuple argument).
"""

from __future__ import annotations

import operator
from typing import Sequence, Tuple

from repro.core.crc import syndrome_crc
from repro.exceptions import CodingError

__all__ = ["CrcExtern"]

#: One hashed field: ``(value, width)``, most-significant bit first.
Field = Tuple[int, int]


class CrcExtern:
    """The TNA ``Hash`` extern configured with a CRC polynomial.

    ZipLine programs it as ``CRCPolynomial<bit<m>>(coeff, reversed=false,
    msb, extended, init=0, xor=0)``, so the CRC is the plain polynomial
    remainder of the input — the mode in which it equals a Hamming
    syndrome (Table 2).  ``coeff`` omits the implicit leading ``x**width``
    term.

    :meth:`get` concatenates its input fields most-significant first and
    returns the CRC, ``width`` bits wide — the same semantics as
    ``hash.get({hdr.f1, hdr.f2})`` in P4.
    """

    def __init__(self, coeff: int, width: int):
        self._engine = syndrome_crc(coeff, width, name=f"TNA-CRC-{width}")
        #: How many times the extern has been invoked (pipeline accounting).
        #: The compiled ZipLine programs compute the same CRC through the
        #: fused byte loop and count each pass here themselves, which keeps
        #: the accounting identical to the interpreted pipeline's.
        self.invocations = 0

    def get(self, fields: "Field | Sequence[Field]") -> int:
        """Compute the CRC of the concatenation of ``fields``.

        ``fields`` is one ``(value, width)`` pair or a sequence of pairs,
        concatenated most-significant first.
        """
        if isinstance(fields, tuple) and fields and type(fields[0]) not in (tuple, list):
            fields = (fields,)  # one pair
        value = 0
        total_width = 0
        for field in fields:
            try:
                field_value, field_width = map(operator.index, field)
            except (TypeError, ValueError):
                raise CodingError(
                    f"hash fields must be (value, width) int pairs, got {field!r}"
                ) from None
            if field_width <= 0:
                raise CodingError(f"field width must be positive, got {field_width}")
            if field_value < 0 or field_value >> field_width:
                raise CodingError(
                    f"field value {field_value:#x} does not fit in {field_width} bits"
                )
            value = (value << field_width) | field_value
            total_width += field_width
        if not total_width:
            raise CodingError("hash extern invoked with no fields")
        self.invocations += 1
        return self._engine.compute(value, total_width)
