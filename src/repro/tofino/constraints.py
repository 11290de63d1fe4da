"""Tofino resource and alignment constraints.

The paper's "Lessons learned" section describes the constraints that shaped
ZipLine's implementation: header fields must be byte aligned (padding bits
are inserted otherwise), every data-plane action must run in constant time,
the pipeline has a fixed number of match-action stages, and tables consume
per-stage SRAM.  This module models those constraints so the P4-equivalent
programs in :mod:`repro.zipline` can be *checked* against them: a program
that would not fit the hardware raises
:class:`~repro.exceptions.ConstraintViolation` instead of silently
pretending to run at line rate.

The default budget numbers follow the public Tofino 1 documentation
(12 match-action stages per pipeline, exact-match SRAM measured in units of
80-bit × 1024-entry blocks); they are intentionally conservative — the goal
is to reproduce the *kind* of limits the authors worked around, not the
confidential die floor plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.bits import align_up
from repro.exceptions import ConstraintViolation

__all__ = [
    "ALIGNMENT_BITS",
    "TofinoResourceProfile",
    "ResourceUsage",
    "ResourceTracker",
    "header_field_padding",
    "check_header_alignment",
    "containers_for_field",
]

#: Header fields must start and end on byte boundaries on the Tofino target.
ALIGNMENT_BITS = 8

#: PHV container sizes available on Tofino (bits).
_CONTAINER_SIZES = (8, 16, 32)


def header_field_padding(field_bits: int, alignment: int = ALIGNMENT_BITS) -> int:
    """Padding bits required to round a header field up to the alignment.

    This is the source of the paper's "useless padding bits": a 247-bit
    basis field needs 1 bit of padding, a 15-bit identifier needs 1, etc.
    """
    if field_bits < 0:
        raise ConstraintViolation(f"field width must be non-negative, got {field_bits}")
    return align_up(field_bits, alignment) - field_bits


def check_header_alignment(field_bits: List[int]) -> int:
    """Validate that a header made of ``field_bits`` is byte aligned.

    Returns the total header width.  Raises :class:`ConstraintViolation`
    when the sum of the field widths is not a multiple of 8 — exactly the
    condition under which the Tofino compiler rejects a header declaration
    and the programmer must add explicit padding fields.
    """
    total = sum(field_bits)
    if any(width <= 0 for width in field_bits):
        raise ConstraintViolation("header fields must have positive widths")
    if total % ALIGNMENT_BITS:
        raise ConstraintViolation(
            f"header of {total} bits is not byte aligned; add "
            f"{header_field_padding(total)} padding bits"
        )
    return total


def containers_for_field(field_bits: int) -> List[int]:
    """Greedy PHV container allocation for a field of ``field_bits`` bits.

    Returns the list of container sizes used.  Mirrors (coarsely) how the
    compiler slices wide fields such as the 247-bit basis across 32-bit
    containers, which is what makes very wide headers expensive.
    """
    if field_bits <= 0:
        raise ConstraintViolation(f"field width must be positive, got {field_bits}")
    remaining = field_bits
    containers: List[int] = []
    while remaining > 0:
        for size in reversed(_CONTAINER_SIZES):
            if remaining >= size or size == _CONTAINER_SIZES[0]:
                containers.append(size)
                remaining -= size
                break
    return containers


@dataclass(frozen=True)
class TofinoResourceProfile:
    """Per-pipeline resource budget of the modelled switch.

    Attributes reflect a single Tofino 1 pipeline as used by the paper's
    Wedge100BF-32X (the paper's program fits one pipeline).
    """

    match_action_stages: int = 12
    #: One block: 1024 entries of 80 bits.  Every ZipLine table is
    #: exact-match, so the model keeps no TCAM budget.
    sram_blocks_per_stage: int = 80


@dataclass
class ResourceUsage:
    """Resources consumed by one logical table or register."""

    name: str
    stage: int
    sram_blocks: int = 0
    entries: int = 0

    def __post_init__(self) -> None:
        if self.stage < 0:
            raise ConstraintViolation(f"stage must be non-negative, got {self.stage}")
        if self.sram_blocks < 0 or self.entries < 0:
            raise ConstraintViolation("resource usage values must be non-negative")


class ResourceTracker:
    """Aggregate resource accounting for one pipeline.

    The pipeline registers every table and register array it instantiates;
    the tracker checks stage counts and per-stage SRAM budgets against the
    default :class:`TofinoResourceProfile`.
    """

    def __init__(self) -> None:
        self._profile = TofinoResourceProfile()
        self._usages: List[ResourceUsage] = []

    @property
    def profile(self) -> TofinoResourceProfile:
        """The budget this tracker validates against."""
        return self._profile

    def register(self, usage: ResourceUsage) -> None:
        """Register a resource usage and validate the budget."""
        if usage.stage >= self._profile.match_action_stages:
            raise ConstraintViolation(
                f"{usage.name}: stage {usage.stage} exceeds the "
                f"{self._profile.match_action_stages}-stage pipeline"
            )
        self._usages.append(usage)
        self._validate_stage(usage.stage)

    def _validate_stage(self, stage: int) -> None:
        sram = sum(u.sram_blocks for u in self._usages if u.stage == stage)
        if sram > self._profile.sram_blocks_per_stage:
            raise ConstraintViolation(
                f"stage {stage} uses {sram} SRAM blocks, budget is "
                f"{self._profile.sram_blocks_per_stage}"
            )

    def sram_blocks_for_table(self, entries: int, key_bits: int, action_bits: int = 32) -> int:
        """Estimate SRAM blocks needed by an exact-match table.

        A deliberately simple model: each entry consumes the key plus action
        data rounded to the 80-bit memory word, packed into
        1024-entry × 80-bit blocks.
        """
        if entries <= 0:
            return 0
        word_bits = 80
        words_per_entry = max(1, -(-(key_bits + action_bits) // word_bits))
        total_words = entries * words_per_entry
        block_words = 1024
        return max(1, -(-total_words // block_words))
