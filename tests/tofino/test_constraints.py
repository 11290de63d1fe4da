"""Tests for the Tofino resource/alignment constraint model."""

import pytest

from repro.exceptions import ConstraintViolation
from repro.tofino.constraints import (
    ResourceTracker,
    ResourceUsage,
    check_header_alignment,
    containers_for_field,
    header_field_padding,
)


class TestAlignment:
    def test_paper_padding_values(self):
        # The non byte-aligned field widths of the paper's configuration.
        assert header_field_padding(247) == 1
        assert header_field_padding(255) == 1
        assert header_field_padding(15) == 1
        assert header_field_padding(8) == 0
        assert header_field_padding(0) == 0

    def test_negative_width_rejected(self):
        with pytest.raises(ConstraintViolation):
            header_field_padding(-1)

    def test_header_alignment_accepts_byte_multiples(self):
        # prefix(1) + basis(247) + syndrome(8) + pad(8) = 264 bits.
        assert check_header_alignment([1, 247, 8, 8]) == 264
        assert check_header_alignment([48, 48, 16]) == 112

    def test_header_alignment_rejects_unaligned(self):
        # The bare paper fields without padding (1 + 15 + 3 = 19 bits) would
        # be rejected by the compiler; so would a lone 247-bit basis field.
        with pytest.raises(ConstraintViolation):
            check_header_alignment([1, 15, 3])
        with pytest.raises(ConstraintViolation):
            check_header_alignment([247])

    def test_header_alignment_rejects_zero_width_fields(self):
        with pytest.raises(ConstraintViolation):
            check_header_alignment([8, 0])

    def test_container_allocation(self):
        assert containers_for_field(8) == [8]
        assert containers_for_field(32) == [32]
        assert sum(containers_for_field(247)) >= 247
        assert all(size in (8, 16, 32) for size in containers_for_field(247))
        with pytest.raises(ConstraintViolation):
            containers_for_field(0)


class TestResourceTracker:
    def test_register_within_budget(self):
        # Stage budgets are per stage: 80 blocks fit in each of two stages.
        tracker = ResourceTracker()
        tracker.register(ResourceUsage(name="t1", stage=0, sram_blocks=30, entries=1024))
        tracker.register(ResourceUsage(name="t2", stage=0, sram_blocks=50, entries=2048))
        tracker.register(ResourceUsage(name="t3", stage=11, sram_blocks=80))

    def test_stage_out_of_range(self):
        tracker = ResourceTracker()
        with pytest.raises(ConstraintViolation):
            tracker.register(ResourceUsage(name="t", stage=12))

    def test_sram_budget_exceeded(self):
        tracker = ResourceTracker()
        tracker.register(ResourceUsage(name="big", stage=1, sram_blocks=80))
        with pytest.raises(ConstraintViolation):
            tracker.register(ResourceUsage(name="more", stage=1, sram_blocks=1))

    def test_negative_usage_rejected(self):
        with pytest.raises(ConstraintViolation):
            ResourceUsage(name="bad", stage=0, sram_blocks=-1)
        with pytest.raises(ConstraintViolation):
            ResourceUsage(name="bad", stage=-1)

    def test_sram_estimate_monotonic(self):
        tracker = ResourceTracker()
        small = tracker.sram_blocks_for_table(entries=1024, key_bits=16)
        large = tracker.sram_blocks_for_table(entries=32768, key_bits=247)
        assert large > small
        assert tracker.sram_blocks_for_table(entries=0, key_bits=16) == 0

    def test_paper_tables_fit_the_budget(self):
        # The ZipLine tables: a 256-entry syndrome table with a 255-bit
        # action parameter and a 32k-entry basis table with a 247-bit key.
        tracker = ResourceTracker()
        syndrome_blocks = tracker.sram_blocks_for_table(
            entries=256, key_bits=8, action_bits=255
        )
        basis_blocks = tracker.sram_blocks_for_table(
            entries=32768, key_bits=247, action_bits=15
        )
        assert syndrome_blocks <= tracker.profile.sram_blocks_per_stage
        # The basis table spans multiple stages on real hardware; here we
        # only assert the estimate is sane and positive.
        assert basis_blocks > 0
