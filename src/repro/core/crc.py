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
* :class:`CrcEngine` — a table-driven, byte-at-a-time fast path (the
  software analogue of the per-word XOR networks in hardware CRC engines),
  a bit-serial Rocksoft-model reference implementation, and direct GF(2)
  division for short messages;
* :func:`crc_table` / :func:`poly_mod_table` — the process-wide registry of
  256-entry lookup tables, keyed by polynomial parameters and shared between
  every engine instance (including the Tofino CRC extern model);
* :func:`syndrome_crc` — the convenience constructor used by the GD code
  (plain remainder mode).

The different code paths are cross-checked in the test suite, including
property-based tests of CRC linearity (``crc(a ^ b) == crc(a) ^ crc(b)`` in
the linear modes) and table-vs-bitwise equivalence across random
polynomials and non-byte-aligned message widths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.bits import BitVector, mask
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
    "poly_gcd",
    "is_primitive_polynomial",
    "crc_table",
    "poly_mod_table",
    "byte_remainder_function",
    "lane_tables",
    "slice_table",
    "slice_tables",
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


def poly_gcd(left: int, right: int) -> int:
    """Greatest common divisor of two GF(2) polynomials."""
    while right:
        left, right = right, poly_mod(left, right)
    return left


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


# -- table-driven fast path ---------------------------------------------------
#
# A hardware CRC engine (the Tofino extern, the LiteEth/MiSoC MAC cores)
# reduces a full data word per clock through a precomputed XOR network.  The
# software equivalent is byte-at-a-time reduction through a 256-entry lookup
# table: entry ``i`` holds ``(i * x**width) mod g(x)``, so absorbing one
# message byte costs one table lookup instead of eight shift/XOR steps.
# Tables are cached process-wide, keyed by the polynomial parameters, and
# shared by every consumer (Hamming codes, the codec, the Tofino extern
# model) — building one costs 256 polynomial divisions, using it is O(1).

#: Process-wide table registry: (polynomial-without-leading-term, width) ->
#: 256-entry tuple.
_TABLE_REGISTRY: Dict[Tuple[int, int], Tuple[int, ...]] = {}

#: Bit-reversal of every byte value, used by the reflected input/output modes.
_BYTE_REFLECT: Tuple[int, ...] = tuple(
    sum(((i >> bit) & 1) << (7 - bit) for bit in range(8)) for i in range(256)
)

#: The same reversal as a ``bytes.translate`` table (whole-buffer reflection).
_BYTE_REFLECT_BYTES: bytes = bytes(_BYTE_REFLECT)

#: Lazily-imported backend registry module (importing it eagerly would be a
#: cycle: the backends import this module for the shared tables).
_BACKENDS_MODULE = None


def _backends():
    global _BACKENDS_MODULE
    if _BACKENDS_MODULE is None:
        from repro.core import backends

        _BACKENDS_MODULE = backends
    return _BACKENDS_MODULE

#: Messages shorter than this stay on the direct-division path: for a couple
#: of bytes the table set-up (``int.to_bytes`` plus loop overhead) costs more
#: than it saves.
_TABLE_MIN_BITS = 16


def crc_table(polynomial: int, width: int) -> Tuple[int, ...]:
    """The shared 256-entry lookup table for a CRC polynomial.

    ``polynomial`` is given without the implicit leading ``x**width`` term
    (the Table 1 convention).  Entry ``i`` equals
    ``(i << width) mod full_polynomial`` — the remainder contributed by a
    message byte ``i`` that still has ``width`` bits following it.  Tables
    are built once per parameter pair and shared process-wide, exactly like
    the single CRC unit that all ZipLine pipeline stages share on the ASIC.
    """
    key = (polynomial, width)
    table = _TABLE_REGISTRY.get(key)
    if table is None:
        if width <= 0:
            raise CodingError(f"CRC width must be positive, got {width}")
        if polynomial <= 0 or polynomial >> width:
            raise CodingError(
                f"polynomial {polynomial:#x} must be non-zero and fit in "
                f"{width} bits (leading term is implicit)"
            )
        full = (1 << width) | polynomial
        table = tuple(poly_mod(index << width, full) for index in range(256))
        _TABLE_REGISTRY[key] = table
    return table


def _table_remainder(value: int, table: Sequence[int], width: int) -> int:
    """GF(2) remainder of ``value`` via byte-wise table reduction.

    Equivalent to ``poly_mod(value, (1 << width) | polynomial)`` for the
    table built by :func:`crc_table`.  Handles non-byte-aligned messages for
    free: leading zero bits contribute nothing to the remainder, so the
    integer is simply serialised from its own most significant byte (a
    255-bit chunk becomes 32 bytes whose top bit is zero).
    """
    if value <= 0:
        if value == 0:
            return 0
        raise CodingError(f"value must be non-negative, got {value}")
    data = value.to_bytes((value.bit_length() + 7) // 8, "big")
    register = 0
    if width == 8:
        # The GD hot path (order-8 Hamming syndromes): the generic recurrence
        # collapses to a single lookup per byte.
        for byte in data:
            register = table[register] ^ byte
        return register
    reg_mask = mask(width)
    for byte in data:
        shifted = (register << 8) ^ byte
        register = table[shifted >> width] ^ (shifted & reg_mask)
    return register


def poly_mod_table(value: int, polynomial: int, width: int) -> int:
    """Table-accelerated GF(2) remainder modulo ``(1 << width) | polynomial``.

    Drop-in replacement for ``poly_mod(value, full_polynomial)`` on hot
    paths; the Hamming decode direction uses it to recover parity bits from
    a 247-bit basis in 31 table lookups instead of ~250 shift/XOR rounds.
    """
    return _table_remainder(value, crc_table(polynomial, width), width)


#: Widened slice-by-N tables: (polynomial, width) -> {bit distance -> 256-entry
#: tuple}.  Entry ``b`` of the distance-``D`` table is ``(b * x**D) mod g(x)``:
#: the remainder contribution of a message byte with ``D`` bits following it.
#: This generalises the classic table (distance = ``width``) and the byte
#: lanes (distance = ``8*d``) into one registry, so the batch CRC engine, the
#: Hamming lane path and the Tofino CRC extern model all share one build per
#: polynomial.  The distance-``width`` entry *is* the :func:`crc_table` tuple.
_SLICE_REGISTRY: Dict[Tuple[int, int], Dict[int, Tuple[int, ...]]] = {}


def slice_table(polynomial: int, width: int, distance: int) -> Tuple[int, ...]:
    """The shared 256-entry contribution table at a given bit ``distance``.

    ``table[b] == (b * x**distance) mod g(x)`` — what a message byte ``b``
    adds to the remainder when ``distance`` more bits follow it.  This is
    the LiteEthMACCRCEngine construction in table form: the parallel
    next-state network for a whole word is the XOR of one such table per
    byte lane.  Tables are derived incrementally (one byte-table step per
    8 bits of distance) and cached process-wide; ``distance == width``
    aliases the exact :func:`crc_table` tuple, so no consumer ever builds
    a duplicate table for the same polynomial.
    """
    if distance < 0:
        raise CodingError(f"bit distance must be non-negative, got {distance}")
    key = (polynomial, width)
    tables = _SLICE_REGISTRY.get(key)
    if tables is None:
        tables = _SLICE_REGISTRY[key] = {}
    table = tables.get(distance)
    if table is not None:
        return table
    if distance == width:
        table = crc_table(polynomial, width)
        tables[distance] = table
        return table
    byte_table = crc_table(polynomial, width)  # validates the parameters
    full = (1 << width) | polynomial
    if distance < 8:
        table = tuple(poly_mod(byte << distance, full) for byte in range(256))
        tables[distance] = table
        return table
    # Walk down the distance ladder to the nearest cached ancestor (same
    # residue class mod 8), then step back up: multiplying a residue by
    # x**8 is one round of the shared byte table.
    start = distance
    while start >= 8 and start not in tables:
        start -= 8
    if start not in tables:
        if start == width:
            tables[start] = crc_table(polynomial, width)
        else:
            tables[start] = tuple(
                poly_mod(byte << start, full) for byte in range(256)
            )
    reg_mask = mask(width)
    current = tables[start]
    while start < distance:
        start += 8
        step = tables.get(start)
        if step is None:
            step = tuple(
                byte_table[(residue << 8) >> width] ^ ((residue << 8) & reg_mask)
                for residue in current
            )
            tables[start] = step
        current = step
    return current


def slice_tables(
    polynomial: int, width: int, length: int, shift: int = 0
) -> List[Tuple[int, ...]]:
    """Per-position slice tables for ``length``-byte records.

    Position ``p`` of an ``L``-byte record sits ``8*(L-1-p)`` bits above the
    end of the message; ``shift`` adds the ``x**width`` pre-multiplication of
    augmented CRCs.  The remainder of a whole record is then the XOR of one
    table lookup per byte — the slice-by-8/16 fold widened to the full
    record, exactly how a hardware engine absorbs a whole word per clock.
    """
    if length <= 0:
        raise CodingError(f"record length must be positive, got {length}")
    return [
        slice_table(polynomial, width, 8 * (length - 1 - position) + shift)
        for position in range(length)
    ]


#: Per-byte-lane contribution tables: (polynomial, width) -> list where entry
#: ``d`` is a 256-byte translation table mapping a message byte to its
#: remainder contribution when ``d`` whole bytes follow it in the message.
#: Grown lazily as longer messages are seen; the *values* come from the
#: shared :func:`slice_table` registry (re-packed as ``bytes`` so they can
#: drive ``bytes.translate``), so both registries build each table once.
_LANE_REGISTRY: Dict[Tuple[int, int], List[bytes]] = {}


def lane_tables(polynomial: int, width: int, length: int) -> Sequence[bytes]:
    """Per-position byte→remainder translation tables for bulk reduction.

    For a CRC of ``width`` ≤ 8 bits, the remainder of every fixed-size
    record in a large buffer can be computed with C-speed primitives only:
    slice the buffer into its byte lanes (``buf[p::record_len]``), map each
    lane through the matching translation table (``bytes.translate``), and
    XOR the mapped lanes together as big integers.  Lane ``p`` of an
    ``L``-byte record uses table ``lane_tables(poly, width, L)[p]`` — entry
    ``d = L - 1 - p`` of the registry, the contribution of a byte followed
    by ``d`` more bytes:  ``table_d[b] = (b * x**(8*d)) mod g(x)``.

    This is the software shape of the per-lane XOR networks hardware CRC
    engines reduce whole words with; the GD batch fast path uses it to
    compute the syndromes of every chunk in a buffer in one pass.  Only
    widths up to 8 are supported (the remainder must fit one byte so it can
    live in a ``bytes`` lane); wider CRCs stay on
    :func:`byte_remainder_function`.
    """
    if not 1 <= width <= 8:
        raise CodingError(
            f"lane tables require a CRC width in 1..8, got {width}"
        )
    if length <= 0:
        raise CodingError(f"message length must be positive, got {length}")
    key = (polynomial, width)
    tables = _LANE_REGISTRY.get(key)
    if tables is None:
        tables = _LANE_REGISTRY[key] = []
    while len(tables) < length:
        # One byte table per 8 bits of distance, from the shared widened
        # slice registry (a width ≤ 8 remainder always fits one byte).
        tables.append(bytes(slice_table(polynomial, width, 8 * len(tables))))
    return [tables[length - 1 - position] for position in range(length)]


def byte_remainder_function(polynomial: int, width: int):
    """A fused ``remainder(data) -> int`` closure over raw message bytes.

    The returned callable computes the plain GF(2) remainder of a
    bytes-like message (``bytes``/``bytearray``/``memoryview``) modulo
    ``(1 << width) | polynomial`` — the Hamming-syndrome mode — with the
    shared 256-entry table bound into the closure, so per-call cost is one
    tight loop with zero attribute lookups or integer re-serialisation.
    This is the entry point the fused GD fast path (transform batch split,
    switch models) reduces chunks through; equivalence with
    :func:`poly_mod_table` over the serialised integer is property-tested.

    Leading zero bytes contribute nothing to a remainder, so feeding whole
    byte-aligned buffers of non-aligned messages (a 255-bit chunk in 32
    bytes) is exact.
    """
    table = crc_table(polynomial, width)
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

    @property
    def is_linear(self) -> bool:
        """True when ``crc(a ^ b) == crc(a) ^ crc(b)`` holds for this variant."""
        return self.init == 0 and self.xor_out == 0

    def describe(self) -> str:
        """One-line human-readable description of the parameter set."""
        label = self.name or f"CRC-{self.width}"
        return (
            f"{label}: poly={polynomial_str(self.full_polynomial)} "
            f"(0x{self.polynomial:X}), init=0x{self.init:X}, "
            f"refin={self.reflect_in}, refout={self.reflect_out}, "
            f"xorout=0x{self.xor_out:X}, augment={self.augment}"
        )


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


class CrcEngine:
    """CRC computation engine for arbitrary-width messages.

    Three code paths, cross-validated by the test suite:

    * the **table fast path** (:meth:`compute_bits_table`) reduces the
      message byte-at-a-time through the shared 256-entry table registry —
      it handles arbitrary, non byte-aligned widths (255/511-bit chunks) and
      the full Rocksoft parameter model, and is what :meth:`compute_bits`
      dispatches to for anything longer than a couple of bytes;
    * short messages use direct GF(2) polynomial division over Python
      integers, where table set-up overhead would dominate;
    * the bit-serial Rocksoft reference (:meth:`compute_bits_reference`)
      exists purely for cross-validation.
    """

    def __init__(self, parameters: CrcParameters):
        self._parameters = parameters
        self._table: Optional[Tuple[int, ...]] = None
        self._batch_states: Dict[int, Tuple[int, List[Tuple[int, ...]], int, int]] = {}

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
        if value < 0:
            raise CodingError(f"value must be non-negative, got {value}")
        if value >> width:
            raise CodingError(f"value {value:#x} does not fit in {width} bits")

        if not params.augment:
            return poly_mod(value, params.full_polynomial)

        if params.reflect_in:
            if width % 8:
                raise CodingError(
                    f"reflect_in requires byte-aligned input (got width {width})"
                )
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
        data = value.to_bytes(width // 8, "big")
        reflected = bytes(_BYTE_REFLECT[byte] for byte in data)
        return int.from_bytes(reflected, "big")

    # -- fast paths -----------------------------------------------------------

    @property
    def lookup_table(self) -> Tuple[int, ...]:
        """The shared 256-entry table for this engine's polynomial.

        Comes from the process-wide registry, so every engine (and the
        Tofino CRC extern model) built with the same polynomial parameters
        sees the exact same tuple.
        """
        if self._table is None:
            self._table = crc_table(self._parameters.polynomial, self._parameters.width)
        return self._table

    def compute_bits(self, value: int, width: int) -> int:
        """CRC of a ``width``-bit message given as an integer (MSB first).

        This is the path the GD transformation uses (e.g. 255-bit chunks);
        it supports arbitrary, non byte-aligned widths.  Messages of
        ``_TABLE_MIN_BITS`` bits or more go through the byte-wise lookup
        table; shorter ones use direct division or the bit-serial reference.
        """
        params = self._parameters
        if value < 0:
            raise CodingError(f"value must be non-negative, got {value}")
        if value >> width:
            raise CodingError(f"value {value:#x} does not fit in {width} bits")

        if width >= _TABLE_MIN_BITS and not (params.reflect_in and width % 8):
            return self.compute_bits_table(value, width)

        if params.reflect_in or params.reflect_out or params.init or params.xor_out:
            return self.compute_bits_reference(value, width)

        if params.augment:
            return poly_mod(value << params.width, params.full_polynomial)
        return poly_mod(value, params.full_polynomial)

    def compute_bits_table(self, value: int, width: int) -> int:
        """Table-driven CRC of a ``width``-bit message (full parameter model).

        Bit-identical to :meth:`compute_bits_reference` for every parameter
        set.  The Rocksoft register model reduces to one plain polynomial
        remainder: running the LFSR with initial register ``I`` over a
        ``W``-bit message ``M`` computes ``(M * x**m  ^  I * x**W) mod g``,
        so the init term is folded into the message before a single
        table-driven division, and reflection/xorout are cheap pre/post
        steps.  Non-byte-aligned widths need no special casing because
        leading zero bits do not change a remainder.
        """
        params = self._parameters
        if value < 0:
            raise CodingError(f"value must be non-negative, got {value}")
        if value >> width:
            raise CodingError(f"value {value:#x} does not fit in {width} bits")
        if params.reflect_in:
            if width % 8:
                raise CodingError(
                    f"reflect_in requires byte-aligned input (got width {width})"
                )
            value = self._reflect_bytes(value, width)
        if params.augment:
            value = (value << params.width) ^ (params.init << width)
        register = _table_remainder(value, self.lookup_table, params.width)
        if params.reflect_out:
            register = reflect_bits(register, params.width)
        return register ^ params.xor_out

    def compute_bytes(self, data: bytes) -> int:
        """CRC of a byte string (message width = ``len(data) * 8``).

        Always table-driven: byte strings are byte aligned by construction,
        so every parameter variant (including the reflected Ethernet FCS)
        takes the fast path.
        """
        if not isinstance(data, bytes):
            data = bytes(data)
        return self.compute_bits_table(int.from_bytes(data, "big"), len(data) * 8)

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
            tables = slice_tables(
                params.polynomial,
                params.width,
                record_bytes,
                shift=params.width if params.augment else 0,
            )
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
        CRC per record, bit-identical to ``compute_bits(value, record_bits)``
        for every record, for every parameter set (augmented, reflected,
        init/xorout, non-byte-aligned widths).

        Dispatch goes through the codec backend registry: an accelerated
        backend that reports :meth:`~repro.core.backends.CodecBackend.
        supports_crc_batch` folds the whole buffer with table-gather XORs
        over a single ``frombuffer`` view; otherwise the pure slice-by-N
        fold of :meth:`compute_batch_pure` runs.  An explicitly named
        ``backend`` is honoured for any batch size; automatic selection
        requires ``MIN_BATCH_CHUNKS`` records, like the transform paths.
        """
        record_bytes, _tables, _init_term, _head_limit = self._batch_state(
            record_bits
        )
        total = len(data)
        if total % record_bytes:
            raise CodingError(
                f"buffer of {total} bytes is not a whole number of "
                f"{record_bytes}-byte records"
            )
        count = total // record_bytes
        if count == 0:
            return []
        registry = _backends()
        resolved = registry.resolve_backend(backend)
        chosen = registry.batch_backend(
            resolved,
            count,
            resolved.supports_crc_batch,
            self._parameters,
            forced=backend is not None,
        )
        if chosen.accelerated:
            return chosen.crc_batch(self, data, record_bits)
        return self.compute_batch_pure(data, record_bits)

    def compute_batch_pure(self, data, record_bits: int) -> List[int]:
        """Pure-Python batch CRC: the slice-by-N fold, one table per lane.

        Widens the classic slice-by-8/16 folding to the whole record: byte
        lane ``p`` is absorbed through the shared
        :func:`slice_table` at its bit distance, so each record costs one
        XOR per byte with no shifting register — the software shape of the
        ``LiteEthMACCRCEngine`` parallel next-state network.
        """
        params = self._parameters
        record_bytes, tables, init_term, head_limit = self._batch_state(record_bits)
        buf = bytes(data)
        total = len(buf)
        if total % record_bytes:
            raise CodingError(
                f"buffer of {total} bytes is not a whole number of "
                f"{record_bytes}-byte records"
            )
        if params.reflect_in:
            buf = buf.translate(_BYTE_REFLECT_BYTES)
        reflect_out = params.reflect_out
        xor_out = params.xor_out
        width = params.width
        results: List[int] = []
        append = results.append
        offset = 0
        for index in range(total // record_bytes):
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

    def compute(
        self, message: "BitVector | bytes | int", width: Optional[int] = None
    ) -> int:
        """Polymorphic entry point accepting BitVector, bytes, or int."""
        if isinstance(message, BitVector):
            return self.compute_bits(message.value, message.width)
        if isinstance(message, (bytes, bytearray, memoryview)):
            return self.compute_bits(
                int.from_bytes(bytes(message), "big"), len(message) * 8
            )
        if isinstance(message, int):
            if width is None:
                raise CodingError("width is required when message is an int")
            return self.compute_bits(message, width)
        raise CodingError(f"unsupported message type {type(message).__name__}")

    # -- linearity helpers ------------------------------------------------------

    def unit_crcs(self, width: int) -> List[int]:
        """CRC of every single-bit message of length ``width``.

        Index ``i`` of the returned list holds ``CRC(x**i)`` — the columns of
        the parity-check matrix ``H`` in the paper's notation, and the raw
        material of Table 2b.
        """
        return [self.compute_bits(1 << position, width) for position in range(width)]

    def verify_linearity(self, samples: Sequence[int], width: int) -> bool:
        """Check ``crc(a ^ b) == crc(a) ^ crc(b)`` over the given samples.

        Only guaranteed for linear parameter sets (``is_linear``); used in
        tests and sanity checks.
        """
        for left in samples:
            for right in samples:
                combined = self.compute_bits(left ^ right, width)
                split = self.compute_bits(left, width) ^ self.compute_bits(right, width)
                if combined != split:
                    return False
        return True


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
