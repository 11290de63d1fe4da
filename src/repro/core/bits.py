"""Bit-field helpers used throughout the GD/Hamming/CRC implementation.

The coding-theory parts of ZipLine operate on bit sequences that are *not*
byte aligned (a Hamming(255, 247) basis is 247 bits long).  Python integers
are arbitrary precision, so the library represents every bit field as a
pair ``(value: int, width: int)`` with the most significant bit first
(``value`` bit ``width - 1`` is the coefficient of ``x**(width - 1)`` in the
polynomial view used by CRCs and Hamming codes).  There is no bit-vector
type: a field is its integer value, and its width travels beside it
(``GDParts`` fields, ``CrcEngine.compute(value, width)``, the P4 header
layouts).

This module holds the width arithmetic those pairs need: masks, byte
lengths, alignment, and serialisation of a field to big-endian bytes.
"""

from __future__ import annotations

from repro.exceptions import CodingError

__all__ = ["mask", "bits_to_bytes_len", "align_up", "int_to_bytes"]


def mask(width: int) -> int:
    """Return an integer with the ``width`` least significant bits set."""
    if width < 0:
        raise CodingError(f"mask width must be non-negative, got {width}")
    return (1 << width) - 1


def bits_to_bytes_len(n_bits: int) -> int:
    """Number of bytes needed to hold ``n_bits`` bits (ceiling division)."""
    if n_bits < 0:
        raise CodingError(f"bit count must be non-negative, got {n_bits}")
    return (n_bits + 7) // 8


def align_up(value: int, alignment: int) -> int:
    """Round ``value`` up to the next multiple of ``alignment``."""
    if alignment <= 0:
        raise CodingError(f"alignment must be positive, got {alignment}")
    if value < 0:
        raise CodingError(f"value must be non-negative, got {value}")
    remainder = value % alignment
    if remainder == 0:
        return value
    return value + alignment - remainder


def int_to_bytes(value: int, n_bits: int) -> bytes:
    """Serialise ``value`` as big-endian bytes covering ``n_bits`` bits.

    The output has ``ceil(n_bits / 8)`` bytes.  Raises :class:`CodingError`
    if ``value`` does not fit in ``n_bits`` bits.
    """
    if value < 0:
        raise CodingError(f"value must be non-negative, got {value}")
    if value >> n_bits:
        raise CodingError(f"value {value:#x} does not fit in {n_bits} bits")
    return value.to_bytes(bits_to_bytes_len(n_bits), "big")
