"""Tests for the CRC/hash extern model."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hamming import HammingCode
from repro.exceptions import CodingError
from repro.tofino.crc_extern import CrcExtern

#: Arguments ``CrcExtern.get`` refuses with a ``CodingError``.
BAD_FIELDS = {
    "value-too-wide": (8, 3),
    "zero-width": [(1, 0)],
    "negative-width": (1, -3),
    "negative-value": [(-1, 3)],
    "no-fields": [],
    "str": ["bad"],
    "one-int": [(1,)],
    "triple": (1, 2, 3),
    "float-value": (1.0, 3),
    "float-width": [(1, 3.0)],
    "bare-int": [(1, 3), 5],
    "three-list": [[1, 3, 0]],
}


class TestCrcExtern:
    def test_zipline_configuration_is_plain_remainder(self):
        """``init = 0``, no reflection, no final XOR: the CRC is linear."""
        extern = CrcExtern(coeff=0x1D, width=8)
        assert extern.get((0x1234 ^ 0x0F0F, 16)) == (
            extern.get((0x1234, 16)) ^ extern.get((0x0F0F, 16))
        )
        # A plain remainder leaves a message shorter than the polynomial as is.
        assert extern.get((0xA5, 8)) == 0xA5

    def test_matches_hamming_syndrome(self, paper_code, rng):
        extern = CrcExtern(coeff=paper_code.crc_parameter, width=8)
        for _ in range(50):
            chunk = rng.getrandbits(paper_code.n)
            assert extern.get((chunk, paper_code.n)) == paper_code.syndrome(chunk)

    @pytest.mark.parametrize("order", range(3, 13))
    def test_each_table_1_order_hashes_to_the_syndrome_and_the_parity(self, order):
        """Programmed as ZipLine programs it for order ``m`` — the Table 1
        coefficients, ``width = m`` — the extern gives a chunk's syndrome
        (encoder) and, fed ``{basis, m zero bits}``, the basis's parity
        (decoder)."""
        code = HammingCode(order)
        extern = CrcExtern(coeff=code.crc_parameter, width=order)
        rng = random.Random(order)
        for _ in range(20):
            chunk = rng.getrandbits(code.n)
            assert extern.get((chunk, code.n)) == code.syndrome(chunk)
            basis = rng.getrandbits(code.k)
            assert extern.get([(basis, code.k), (0, order)]) == code.parity_of_basis(basis)
        assert extern.invocations == 40

    def test_field_concatenation_matches_single_field(self, hamming_7_4):
        extern = CrcExtern(coeff=hamming_7_4.crc_parameter, width=3)
        # {3-bit 0b101, 4-bit 0b0110} concatenated is the 7-bit 0b1010110.
        combined = extern.get([(0b101, 3), (0b0110, 4)])
        single = extern.get((0b1010110, 7))
        assert combined == single

    def test_decoder_parity_computation(self, hamming_7_4, rng):
        # Feeding {basis, m zero bits} reproduces the parity of the basis —
        # the Figure 2 zero-padding step.
        extern = CrcExtern(coeff=hamming_7_4.crc_parameter, width=3)
        for basis in range(1 << hamming_7_4.k):
            parity = extern.get([(basis, hamming_7_4.k), (0, hamming_7_4.m)])
            assert parity == hamming_7_4.parity_of_basis(basis)

    @pytest.mark.parametrize(
        "fields",
        [
            (0b0001000, 7),
            [(0b0001000, 7)],
            ((0b000, 3), (0b1000, 4)),
            [(0b000, 3), (0b1000, 4)],
            [(0b0, 1), (0b00, 2), (0b1000, 4)],
        ],
        ids=["pair", "list-of-one", "tuple-of-pairs", "list-of-pairs", "three-fields"],
    )
    def test_one_pair_or_a_sequence_of_pairs(self, hamming_7_4, fields):
        extern = CrcExtern(coeff=hamming_7_4.crc_parameter, width=3)
        assert extern.get(fields) == 0b011
        assert extern.invocations == 1

    @given(st.integers(0, (1 << 255) - 1), st.lists(st.integers(1, 254), max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_any_cut_of_a_chunk_hashes_like_the_chunk(self, paper_code, chunk, cuts):
        """P4 ``hash.get({a, b, ...})`` is the CRC of ``a ++ b ++ ...``."""
        extern = CrcExtern(coeff=paper_code.crc_parameter, width=8)
        edges = [255, *sorted(set(cuts), reverse=True), 0]
        fields = [
            ((chunk >> low) & ((1 << (high - low)) - 1), high - low)
            for high, low in zip(edges, edges[1:])
        ]
        assert extern.get(fields) == paper_code.syndrome(chunk)

    def test_invocation_counter(self, hamming_7_4):
        extern = CrcExtern(coeff=hamming_7_4.crc_parameter, width=3)
        extern.get((1, 7))
        extern.get((2, 7))
        assert extern.invocations == 2

    @pytest.mark.parametrize("fields", BAD_FIELDS.values(), ids=BAD_FIELDS.keys())
    def test_field_validation(self, hamming_7_4, fields):
        extern = CrcExtern(coeff=hamming_7_4.crc_parameter, width=3)
        with pytest.raises(CodingError):
            extern.get(fields)
        assert extern.invocations == 0
