"""The Tofino CRC/hash extern, modelled in software.

P4-16 on TNA exposes a ``Hash`` extern that can be configured with a
``CRCPolynomial``; ZipLine programs it with the Hamming generator
polynomial (Table 1) and feeds it the chunk to obtain the syndrome in a
single pipeline pass.  :class:`CrcExtern` reproduces that interface:
construction takes the polynomial parameters, :meth:`get` takes the fields
to hash (as ``(value, width)`` pairs, concatenated most-significant first,
exactly like the P4 tuple argument).
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple, Union

from repro.core.bits import BitVector
from repro.core.crc import CrcEngine, CrcParameters
from repro.exceptions import CodingError

__all__ = ["CrcPolynomial", "CrcExtern"]

FieldLike = Union[Tuple[int, int], BitVector]


class CrcPolynomial:
    """The TNA ``CRCPolynomial`` extern: coefficients plus variant options.

    Mirrors the P4 constructor
    ``CRCPolynomial<bit<m>>(coeff, reversed, msb, extended, init, xor)``.
    ZipLine instantiates it with ``reversed=false``, ``init=0``, ``xor=0``.
    """

    def __init__(
        self,
        coeff: int,
        width: int,
        reversed_: bool = False,
        init: int = 0,
        xor: int = 0,
    ):
        self._parameters = CrcParameters(
            polynomial=coeff,
            width=width,
            init=init,
            reflect_in=reversed_,
            reflect_out=reversed_,
            xor_out=xor,
            augment=False if (init == 0 and xor == 0 and not reversed_) else True,
            name=f"TNA-CRC-{width}",
        )

    @property
    def parameters(self) -> CrcParameters:
        """The underlying CRC parameter set."""
        return self._parameters

    @property
    def width(self) -> int:
        """CRC width in bits."""
        return self._parameters.width


class CrcExtern:
    """The TNA ``Hash`` extern configured with a CRC polynomial.

    :meth:`get` concatenates its input fields most-significant first and
    returns the CRC, truncated to the extern's output width — the same
    semantics as ``hash.get({hdr.f1, hdr.f2})`` in P4.
    """

    def __init__(self, polynomial: CrcPolynomial):
        self._polynomial = polynomial
        self._engine = CrcEngine(polynomial.parameters)
        self._invocations = 0

    @property
    def width(self) -> int:
        """Output width in bits."""
        return self._polynomial.width

    @property
    def invocations(self) -> int:
        """How many times the extern has been invoked (for pipeline accounting)."""
        return self._invocations

    def record_invocation(self) -> None:
        """Count one invocation performed by a compiled program.

        The compiled ZipLine programs compute the same CRC through the
        fused byte loop; calling this keeps the extern's accounting
        identical to the interpreted pipeline.
        """
        self._invocations += 1

    def get(self, fields: "FieldLike | Sequence[FieldLike]") -> int:
        """Compute the CRC of the concatenation of ``fields``.

        ``fields`` may be a single ``(value, width)`` pair, a single
        :class:`BitVector`, or a sequence of either (concatenated
        most-significant first).
        """
        if (
            type(fields) is tuple
            and len(fields) == 2
            and type(fields[0]) is int
            and type(fields[1]) is int
        ):
            # Hot path: a single (value, width) pair — the shape the ZipLine
            # programs invoke the extern with on every chunk.
            value, width = fields
            if width <= 0:
                raise CodingError(f"field width must be positive, got {width}")
            if value < 0 or value >> width:
                raise CodingError(
                    f"field value {value:#x} does not fit in {width} bits"
                )
            self._invocations += 1
            return self._engine.compute(value, width)
        normalised = self._normalise(fields)
        value = 0
        total_width = 0
        for field_value, field_width in normalised:
            if field_width <= 0:
                raise CodingError(f"field width must be positive, got {field_width}")
            if field_value < 0 or field_value >> field_width:
                raise CodingError(
                    f"field value {field_value:#x} does not fit in {field_width} bits"
                )
            value = (value << field_width) | field_value
            total_width += field_width
        self._invocations += 1
        return self._engine.compute(value, total_width)

    @staticmethod
    def _normalise(
        fields: "FieldLike | Sequence[FieldLike]",
    ) -> Iterable[Tuple[int, int]]:
        if isinstance(fields, BitVector):
            return [(fields.value, fields.width)]
        if isinstance(fields, tuple) and len(fields) == 2 and all(
            isinstance(part, int) for part in fields
        ):
            return [fields]  # a single (value, width) pair
        normalised = []
        for item in fields:  # type: ignore[union-attr]
            if isinstance(item, BitVector):
                normalised.append((item.value, item.width))
            elif isinstance(item, tuple) and len(item) == 2:
                normalised.append((int(item[0]), int(item[1])))
            else:
                raise CodingError(
                    "hash fields must be BitVector or (value, width) tuples, "
                    f"got {item!r}"
                )
        if not normalised:
            raise CodingError("hash extern invoked with no fields")
        return normalised
