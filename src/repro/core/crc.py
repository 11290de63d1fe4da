"""Parameterised cyclic-redundancy-check (CRC) engine.

ZipLine computes Hamming syndromes with the CRC unit built into the Tofino
chip: when the CRC generator polynomial equals the Hamming generator
polynomial, the CRC of an ``n``-bit chunk *is* the Hamming syndrome
(Section 2 of the paper, Table 2).  The equivalence holds for the *plain
polynomial remainder*: ``CRC(B) = B(x) mod g(x)`` with no pre-multiplication
by ``x**m``, zero initial value, no reflection and no final XOR.

This module provides:

* :class:`CrcParameters` — the full parameter set of a CRC (polynomial,
  width, init, reflect-in/out, xor-out, augmentation), mirroring what the
  Tofino CRC extern exposes to P4 programs;
* :class:`CrcEngine` — the bit-serial Rocksoft-model reference
  (``compute_bits_reference``), one record through the byte loop
  (``compute``) and a whole buffer of records (``compute_batch``);
* :func:`remainder_table` — the one derivation every lookup table is read
  from, cached process-wide; the byte table, the per-position
  :func:`record_tables` and the byte lanes of :func:`lane_remainders` are
  that function at different distances;
* :func:`syndrome_crc` — the convenience constructor used by the GD code
  (plain remainder mode).

The table-driven paths are cross-checked in the test suite against the
bit-serial reference and :func:`poly_mod`, neither of which touches the
table derivation, across random polynomials, non-byte-aligned message
widths and the full Rocksoft variant space.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.bits import mask
from repro.exceptions import CodingError

__all__ = [
    "CrcParameters",
    "CrcEngine",
    "syndrome_crc",
    "reflect_bits",
    "polynomial_degree",
    "polynomial_str",
    "poly_mod",
    "poly_mul",
    "poly_mulmod",
    "is_primitive_polynomial",
    "remainder_table",
    "record_tables",
    "lane_remainders",
    "byte_remainder_function",
    "CRC32_ETHERNET",
    "CRC16_CCITT",
    "CRC8_ATM",
]


def reflect_bits(value: int, width: int) -> int:
    """Reverse the bit order of ``value`` over ``width`` bits."""
    if value >> width:
        raise CodingError(f"value {value:#x} does not fit in {width} bits")
    result = 0
    for _ in range(width):
        result = (result << 1) | (value & 1)
        value >>= 1
    return result


def polynomial_degree(polynomial: int) -> int:
    """Degree of a polynomial given in full binary form (MSB = highest term)."""
    if polynomial <= 0:
        raise CodingError(f"polynomial must be positive, got {polynomial}")
    return polynomial.bit_length() - 1


def polynomial_str(polynomial: int) -> str:
    """Human-readable form of a binary polynomial, e.g. ``x^3 + x + 1``."""
    if polynomial <= 0:
        raise CodingError(f"polynomial must be positive, got {polynomial}")
    terms: List[str] = []
    for power in range(polynomial.bit_length() - 1, -1, -1):
        if (polynomial >> power) & 1:
            if power == 0:
                terms.append("1")
            elif power == 1:
                terms.append("x")
            else:
                terms.append(f"x^{power}")
    return " + ".join(terms)


def poly_mod(dividend: int, divisor: int) -> int:
    """Remainder of GF(2) polynomial division ``dividend mod divisor``."""
    if divisor <= 0:
        raise CodingError(f"divisor must be positive, got {divisor}")
    if dividend < 0:
        raise CodingError(f"dividend must be non-negative, got {dividend}")
    divisor_degree = polynomial_degree(divisor)
    while dividend and dividend.bit_length() - 1 >= divisor_degree:
        shift = dividend.bit_length() - 1 - divisor_degree
        dividend ^= divisor << shift
    return dividend


def poly_mul(left: int, right: int) -> int:
    """Carry-less (GF(2)) polynomial multiplication."""
    if left < 0 or right < 0:
        raise CodingError("polynomials must be non-negative")
    result = 0
    while right:
        if right & 1:
            result ^= left
        left <<= 1
        right >>= 1
    return result


def poly_mulmod(left: int, right: int, modulus: int) -> int:
    """GF(2) polynomial multiplication reduced modulo ``modulus``."""
    return poly_mod(poly_mul(left, right), modulus)


def is_primitive_polynomial(full_polynomial: int) -> bool:
    """True when ``full_polynomial`` (with leading term) is primitive over GF(2).

    A degree-``m`` polynomial is primitive iff ``x`` generates the full
    multiplicative group of GF(2^m), i.e. the order of ``x`` modulo the
    polynomial is ``2**m - 1``.  Primitive polynomials are exactly the ones
    usable as Hamming-code generators with ``n = 2**m - 1``: every non-zero
    syndrome then corresponds to a distinct single-bit error position.
    """
    degree = polynomial_degree(full_polynomial)
    if degree == 0:
        return False
    order = (1 << degree) - 1
    # x^order must be 1, and x^(order/p) != 1 for every prime divisor p.
    if _poly_pow_x(order, full_polynomial) != 1:
        return False
    for prime in _prime_factors(order):
        if _poly_pow_x(order // prime, full_polynomial) == 1:
            return False
    return True


def _poly_pow_x(exponent: int, modulus: int) -> int:
    """Compute ``x**exponent mod modulus`` by square-and-multiply."""
    result = 1
    base = 2  # the polynomial "x"
    while exponent:
        if exponent & 1:
            result = poly_mulmod(result, base, modulus)
        base = poly_mulmod(base, base, modulus)
        exponent >>= 1
    return result


def _prime_factors(value: int) -> List[int]:
    """Distinct prime factors of ``value`` (trial division)."""
    factors: List[int] = []
    candidate = 2
    while candidate * candidate <= value:
        if value % candidate == 0:
            factors.append(candidate)
            while value % candidate == 0:
                value //= candidate
        candidate += 1
    if value > 1:
        factors.append(value)
    return factors


# -- table derivation ----------------------------------------------------------
#
# A hardware CRC engine (the Tofino extern, the LiteEth/MiSoC MAC cores)
# unrolls the LFSR across a whole data word: a message bit with ``i`` bits
# following it contributes the constant ``x**i mod g`` to the remainder.
# The software form is a 256-entry table per message byte: with ``distance``
# bits following the byte, its bit ``j`` contributes the column
# ``x**(distance + j) mod g`` and entry ``b`` is the XOR of the columns
# ``b`` selects.  Every table in the code base is that one function of
# ``(polynomial, width, distance)``; consumers differ only in the distances
# they read.

#: Bit-reversal of every byte value as a ``bytes.translate`` table, used by
#: the reflected input/output modes.
_BYTE_REFLECT: bytes = bytes(reflect_bits(value, 8) for value in range(256))


def _columns(full_polynomial: int, start: int, count: int):
    """Yield ``x**i mod g`` for ``i = start .. start + count - 1``.

    The first column comes from square-and-multiply, the rest from stepping
    the LFSR: multiply by ``x`` and cancel the leading term with ``g``.
    """
    column = _poly_pow_x(start, full_polynomial)
    top_bit = 1 << polynomial_degree(full_polynomial)
    for _ in range(count):
        yield column
        column <<= 1
        if column & top_bit:
            column ^= full_polynomial


@cache
def remainder_table(polynomial: int, width: int, distance: int) -> Sequence[int]:
    """The shared 256-entry table ``table[b] == (b * x**distance) mod g(x)``.

    ``polynomial`` is given without the implicit leading ``x**width`` term
    (the Table 1 convention).  Entry ``b`` is what a message byte ``b``
    adds to the remainder when ``distance`` more bits follow it:
    ``distance == width`` is the classic byte-at-a-time CRC table,
    ``distance == 8 * d`` the lane of a byte followed by ``d`` whole bytes.
    Built as the XOR-span of eight columns; a ``bytes`` object when
    ``width <= 8``, so it indexes *and* drives ``bytes.translate``.

    This cache is the only table store in the code base: every consumer
    shares one table per key, exactly like the single CRC unit all ZipLine
    pipeline stages share on the ASIC.
    """
    if width <= 0:
        raise CodingError(f"CRC width must be positive, got {width}")
    if polynomial <= 0 or polynomial >> width:
        raise CodingError(
            f"polynomial {polynomial:#x} must be non-zero and fit in "
            f"{width} bits (leading term is implicit)"
        )
    if distance < 0:
        raise CodingError(f"bit distance must be non-negative, got {distance}")
    entries = [0]
    for column in _columns((1 << width) | polynomial, distance, 8):
        entries += [entry ^ column for entry in entries]
    return bytes(entries) if width <= 8 else tuple(entries)


def record_tables(
    polynomial: int, width: int, length: int, shift: int = 0
) -> List[Sequence[int]]:
    """The table of every byte position of a ``length``-byte record.

    Position ``p`` of an ``L``-byte record sits ``8*(L-1-p)`` bits above the
    end of the message; ``shift`` adds the ``x**width`` pre-multiplication of
    augmented CRCs.  The remainder of a whole record is then the XOR of one
    table lookup per byte, exactly how a hardware engine absorbs a whole
    word per clock.
    """
    return [
        remainder_table(polynomial, width, 8 * (length - 1 - position) + shift)
        for position in range(length)
    ]


def lane_remainders(tables: Sequence[bytes], buffer: bytes) -> bytes:
    """Remainder of every ``len(tables)``-byte record in ``buffer``, in bulk.

    ``tables`` are the :func:`record_tables` of a CRC of width ≤ 8 (the
    remainder must fit one byte so it can live in a ``bytes`` lane).  C-speed
    primitives only: slice the buffer into its byte lanes (``buffer[p::L]``),
    ``bytes.translate`` each lane through its table and XOR the mapped lanes
    as big integers; byte ``i`` of the result belongs to record ``i``.
    """
    length = len(tables)
    accumulator = 0
    from_bytes = int.from_bytes
    for position, table in enumerate(tables):
        accumulator ^= from_bytes(buffer[position::length].translate(table), "big")
    return accumulator.to_bytes(len(buffer) // length, "big")


def byte_remainder_function(polynomial: int, width: int):
    """A fused ``remainder(data) -> int`` closure over raw message bytes.

    The returned callable computes the plain GF(2) remainder of a
    bytes-like message (``bytes``/``bytearray``/``memoryview``) modulo
    ``(1 << width) | polynomial`` — the Hamming-syndrome mode — with the
    shared byte table (:func:`remainder_table` at ``distance == width``)
    bound into the closure, so per-call cost is one tight loop with zero
    attribute lookups or integer re-serialisation.  This is the only byte
    loop: :meth:`CrcEngine.compute` and the fused GD fast path (transform
    batch split, switch models) reduce through it.

    Leading zero bytes contribute nothing to a remainder, so feeding whole
    byte-aligned buffers of non-aligned messages (a 255-bit chunk in 32
    bytes) is exact.
    """
    # A tuple even when the cached table is ``bytes``: CPython specialises
    # ``tuple[int]`` subscripts, ``bytes[int]`` costs ~40 % more per byte.
    table = tuple(remainder_table(polynomial, width, width))
    if width == 8:
        # The GD hot path (order-8 syndromes): one lookup + XOR per byte.
        def remainder8(data) -> int:
            register = 0
            for byte in data:
                register = table[register] ^ byte
            return register

        return remainder8

    reg_mask = mask(width)

    def remainder(data) -> int:
        register = 0
        for byte in data:
            shifted = (register << 8) ^ byte
            register = table[shifted >> width] ^ (shifted & reg_mask)
        return register

    return remainder


@dataclass(frozen=True)
class CrcParameters:
    """Complete description of a CRC variant.

    Attributes
    ----------
    polynomial:
        Generator polynomial *without* the implicit leading ``x**width``
        term, as conventionally specified (e.g. ``0x04C11DB7`` for CRC-32).
        This matches the "Parameter for CRC-m" column of Table 1 in the
        paper and the value programmed into the Tofino CRC extern.
    width:
        CRC width ``m`` in bits.
    init:
        Initial shift-register value.
    reflect_in / reflect_out:
        Input-byte / output reflection, as in the Rocksoft model.
    xor_out:
        Final XOR applied to the register.
    augment:
        When ``True`` the message is multiplied by ``x**width`` before the
        division (the classic "append m zero bits" CRC).  When ``False`` the
        plain polynomial remainder is computed — the mode that makes the CRC
        equal to a Hamming syndrome (Table 2 of the paper).
    """

    polynomial: int
    width: int
    init: int = 0
    reflect_in: bool = False
    reflect_out: bool = False
    xor_out: int = 0
    augment: bool = True
    name: str = ""

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise CodingError(f"CRC width must be positive, got {self.width}")
        if self.polynomial >> self.width:
            raise CodingError(
                f"polynomial {self.polynomial:#x} does not fit in "
                f"{self.width} bits (leading term is implicit)"
            )
        if self.polynomial == 0:
            raise CodingError("polynomial must be non-zero")
        if self.init >> self.width:
            raise CodingError(f"init {self.init:#x} does not fit in {self.width} bits")
        if self.xor_out >> self.width:
            raise CodingError(
                f"xor_out {self.xor_out:#x} does not fit in {self.width} bits"
            )
        if not self.augment and (
            self.init or self.xor_out or self.reflect_in or self.reflect_out
        ):
            raise CodingError(
                "plain-remainder (non-augmented) CRCs only support "
                "init=0, xor_out=0 and no reflection"
            )

    @property
    def full_polynomial(self) -> int:
        """Polynomial including the implicit leading ``x**width`` term."""
        return (1 << self.width) | self.polynomial


# Well-known parameter sets, used in tests and by the Ethernet FCS model.
CRC32_ETHERNET = CrcParameters(
    polynomial=0x04C11DB7,
    width=32,
    init=0xFFFFFFFF,
    reflect_in=True,
    reflect_out=True,
    xor_out=0xFFFFFFFF,
    augment=True,
    name="CRC-32/ETHERNET",
)

CRC16_CCITT = CrcParameters(
    polynomial=0x1021,
    width=16,
    init=0xFFFF,
    reflect_in=False,
    reflect_out=False,
    xor_out=0x0000,
    augment=True,
    name="CRC-16/CCITT-FALSE",
)

CRC8_ATM = CrcParameters(
    polynomial=0x07,
    width=8,
    init=0x00,
    reflect_in=False,
    reflect_out=False,
    xor_out=0x00,
    augment=True,
    name="CRC-8/ATM",
)


def _check_message(value: int, width: int) -> None:
    """Reject a message that is not a non-negative ``width``-bit integer."""
    if width < 0:
        raise CodingError(f"message width must be non-negative, got {width}")
    if value < 0:
        raise CodingError(f"value must be non-negative, got {value}")
    if value >> width:
        raise CodingError(f"value {value:#x} does not fit in {width} bits")


class CrcEngine:
    """CRC computation engine for arbitrary-width messages.

    Three entry points, cross-validated by the test suite:

    * :meth:`compute_bits_reference` — the bit-serial Rocksoft model, kept
      free of every table so tests can use it as the oracle;
    * :meth:`compute` — one record (integer + width, or bytes) through
      the shared byte loop; handles arbitrary, non byte-aligned
      widths (255/511-bit chunks) and the full Rocksoft parameter model;
    * :meth:`compute_batch` — every fixed-size record of a buffer in one
      call, one table lookup per byte, on the selected codec backend.
    """

    def __init__(self, parameters: CrcParameters):
        self._parameters = parameters
        self._remainder = byte_remainder_function(
            parameters.polynomial, parameters.width
        )
        self._batch_states: Dict[int, Tuple[int, List[Sequence[int]], int, int]] = {}

    @property
    def parameters(self) -> CrcParameters:
        """The CRC parameter set this engine was built with."""
        return self._parameters

    @property
    def width(self) -> int:
        """CRC width in bits."""
        return self._parameters.width

    # -- reference path (Rocksoft model, bit serial) -------------------------

    def compute_bits_reference(self, value: int, width: int) -> int:
        """Bit-serial CRC of a ``width``-bit message ``value`` (MSB first).

        Implements the augmented ("append m zeros") semantics with the full
        Rocksoft parameter model.  Plain-remainder parameter sets are also
        accepted (they then use direct polynomial division, since the
        constructor guarantees they have no init/reflect/xorout).
        """
        params = self._parameters
        _check_message(value, width)

        if not params.augment:
            return poly_mod(value, params.full_polynomial)

        if params.reflect_in:
            value = self._reflect_bytes(value, width)

        register = params.init
        reg_mask = mask(params.width)
        top_bit = 1 << (params.width - 1)
        for position in range(width - 1, -1, -1):
            incoming = (value >> position) & 1
            feedback = 1 if (register & top_bit) else 0
            feedback ^= incoming
            register = (register << 1) & reg_mask
            if feedback:
                register ^= params.polynomial
        if params.reflect_out:
            register = reflect_bits(register, params.width)
        return (register ^ params.xor_out) & reg_mask

    @staticmethod
    def _reflect_bytes(value: int, width: int) -> int:
        """Reflect each byte of a byte-aligned message independently."""
        if width % 8:
            raise CodingError(
                f"reflect_in requires byte-aligned input (got width {width})"
            )
        data = value.to_bytes(width // 8, "big")
        return int.from_bytes(data.translate(_BYTE_REFLECT), "big")

    # -- one record -----------------------------------------------------------

    def compute(self, message: "bytes | int", width: Optional[int] = None) -> int:
        """CRC of one record: an int + ``width``, or a bytes-like.

        This is the path the GD transformation uses (e.g. 255-bit chunks).
        Bit-identical to :meth:`compute_bits_reference` for every parameter
        set.  The Rocksoft register model reduces to one plain polynomial
        remainder: running the LFSR with initial register ``I`` over a
        ``W``-bit message ``M`` computes ``(M * x**m  ^  I * x**W) mod g``,
        so the init term is folded into the message before a single pass of
        the byte loop, and reflection/xorout are cheap pre/post steps.
        Non-byte-aligned widths need no special casing because leading zero
        bits do not change a remainder.
        """
        if isinstance(message, int):
            if width is None:
                raise CodingError("width is required when message is an int")
        elif isinstance(message, (bytes, bytearray, memoryview)):
            message, width = int.from_bytes(message, "big"), len(message) * 8
        else:
            raise CodingError(f"unsupported message type {type(message).__name__}")
        params = self._parameters
        _check_message(message, width)
        value = self._reflect_bytes(message, width) if params.reflect_in else message
        if params.augment:
            value = (value << params.width) ^ (params.init << width)
        register = self._remainder(value.to_bytes((value.bit_length() + 7) // 8, "big"))
        if params.reflect_out:
            register = reflect_bits(register, params.width)
        return register ^ params.xor_out

    # -- batch path -----------------------------------------------------------

    def _batch_state(self, record_bits: int):
        """Validated per-record-width batch state (tables, init term, bounds)."""
        state = self._batch_states.get(record_bits)
        if state is None:
            params = self._parameters
            if record_bits <= 0:
                raise CodingError(
                    f"record width must be positive, got {record_bits}"
                )
            if params.reflect_in and record_bits % 8:
                raise CodingError(
                    f"reflect_in requires byte-aligned input (got width {record_bits})"
                )
            record_bytes = (record_bits + 7) // 8
            shift = params.width if params.augment else 0
            tables = record_tables(params.polynomial, params.width, record_bytes, shift)
            tables = [tuple(table) for table in tables]  # see byte_remainder_function
            init_term = (
                poly_mod(params.init << record_bits, params.full_polynomial)
                if params.init
                else 0
            )
            extra = record_bytes * 8 - record_bits
            head_limit = (1 << (8 - extra)) if extra else 256
            state = (record_bytes, tables, init_term, head_limit)
            self._batch_states[record_bits] = state
        return state

    def compute_batch(self, data, record_bits: int, backend=None) -> List[int]:
        """CRC of every consecutive ``record_bits``-wide record in ``data``.

        ``data`` is a contiguous bytes-like buffer of fixed-size records,
        each occupying ``(record_bits + 7) // 8`` bytes with the value in
        the low ``record_bits`` bits (big-endian, leading pad bits zero) —
        the layout of a chunk buffer or a sliced frame batch.  Returns one
        CRC per record, bit-identical to ``compute(value, record_bits)``
        for every parameter set and non-byte-aligned widths.

        Dispatch goes through the codec backend registry: an accelerated
        backend that reports :meth:`~repro.core.backends.CodecBackend.
        supports_crc_batch` folds the whole buffer with table-gather XORs
        over a single ``frombuffer`` view; otherwise (``backend="pure"``)
        each record costs one :func:`record_tables` lookup and XOR per byte
        with no shifting register — the software shape of the
        ``LiteEthMACCRCEngine`` parallel next-state network.  A named
        ``backend`` is honoured for any batch size; automatic selection
        requires ``MIN_BATCH_CHUNKS`` records, like the transform paths.
        """
        from repro.core import backends  # deferred: the backends import this module

        params = self._parameters
        record_bytes, tables, init_term, head_limit = self._batch_state(record_bits)
        total = len(data)
        if total % record_bytes:
            raise CodingError(
                f"buffer of {total} bytes is not a whole number of "
                f"{record_bytes}-byte records"
            )
        count = total // record_bytes
        if count == 0:
            return []
        resolved = backends.resolve_backend(backend)
        chosen = backends.batch_backend(
            resolved,
            count,
            resolved.supports_crc_batch,
            params,
            forced=backend is not None,
        )
        if chosen.accelerated:
            return chosen.crc_batch(self, data, record_bits)
        buf = bytes(data)
        if params.reflect_in:
            buf = buf.translate(_BYTE_REFLECT)
        reflect_out = params.reflect_out
        xor_out = params.xor_out
        width = params.width
        results: List[int] = []
        append = results.append
        offset = 0
        for index in range(count):
            record = buf[offset : offset + record_bytes]
            if record[0] >= head_limit:
                raise CodingError(
                    f"record {index} does not fit in {record_bits} bits"
                )
            register = init_term
            for table, byte in zip(tables, record):
                register ^= table[byte]
            if reflect_out:
                register = reflect_bits(register, width)
            append(register ^ xor_out)
            offset += record_bytes
        return results


def syndrome_crc(polynomial: int, width: int, name: str = "") -> CrcEngine:
    """CRC engine configured as a Hamming-syndrome computer.

    ``polynomial`` is given without the leading term (the Table 1 "Parameter
    for CRC-m" value).  The returned engine computes the plain polynomial
    remainder — exactly the syndrome of the corresponding Hamming code when
    fed ``n = 2**width - 1`` message bits.
    """
    parameters = CrcParameters(
        polynomial=polynomial,
        width=width,
        init=0,
        reflect_in=False,
        reflect_out=False,
        xor_out=0,
        augment=False,
        name=name or f"CRC-{width}/SYNDROME",
    )
    return CrcEngine(parameters)
