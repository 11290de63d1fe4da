"""The CRC kernel: one table derivation under three engine entry points.

Every lookup table in the code base is ``remainder_table(polynomial, width,
distance)`` read at some distance: the byte table at ``distance == width``,
record position ``p`` of ``L`` bytes at ``8 * (L - 1 - p) + shift``, byte
lane ``d`` at ``8 * d``.  The oracles here — ``poly_mod`` and
``CrcEngine.compute_bits_reference`` — never touch that derivation.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.backends import available_backend_names, get_backend
from repro.core.crc import (
    CrcEngine,
    CrcParameters,
    poly_mod,
    record_tables,
    remainder_table,
)
from repro.core.hamming import HammingCode
from repro.core.transform import GDTransform

BACKENDS = available_backend_names()


@st.composite
def polynomials(draw):
    """A ``(width, polynomial)`` pair: widths 1-64, any non-zero polynomial."""
    width = draw(st.integers(min_value=1, max_value=64))
    return width, draw(st.integers(min_value=1, max_value=(1 << width) - 1))


@st.composite
def parameters_and_records(draw):
    """Random CRC parameters plus a batch of records of one random width.

    Plain-remainder (non-augmented) CRCs forbid init/xor_out/reflection, so
    those knobs are only drawn for augmented sets; reflection is byte
    oriented, so reflected sets draw byte-aligned record widths.
    """
    width, polynomial = draw(polynomials())
    augment = draw(st.booleans())
    value = st.integers(min_value=0, max_value=(1 << width) - 1)
    reflect = augment and draw(st.booleans())
    parameters = CrcParameters(
        polynomial=polynomial,
        width=width,
        init=draw(value) if augment else 0,
        xor_out=draw(value) if augment else 0,
        reflect_in=reflect,
        reflect_out=augment and draw(st.booleans()),
        augment=augment,
    )
    if reflect:
        record_bits = 8 * draw(st.integers(min_value=1, max_value=16))
    else:
        record_bits = draw(st.integers(min_value=1, max_value=130))
    records = draw(
        st.lists(
            st.integers(min_value=0, max_value=(1 << record_bits) - 1), max_size=20
        )
    )
    return parameters, record_bits, records


class TestTableDerivation:
    @given(
        case=polynomials(),
        distance=st.integers(min_value=0, max_value=4096),
        sample=st.lists(st.integers(min_value=0, max_value=255), max_size=6),
    )
    @settings(max_examples=120, deadline=None)
    def test_entries_are_shifted_byte_remainders(self, case, distance, sample):
        width, polynomial = case
        full = (1 << width) | polynomial
        table = remainder_table(polynomial, width, distance)
        assert len(table) == 256
        assert isinstance(table, bytes if width <= 8 else tuple)
        units = [1 << bit for bit in range(8)]
        for byte in [0, 255, *units, *sample]:
            assert table[byte] == poly_mod(byte << distance, full)
        # Every other entry is the XOR-span of the unit entries just checked.
        for byte in range(256):
            expected = 0
            for unit in units:
                if byte & unit:
                    expected ^= table[unit]
            assert table[byte] == expected

    def test_record_tables_read_one_distance_per_position(self):
        tables = record_tables(0x1021, 16, 4, shift=16)
        assert [table[1] for table in tables] == [
            poly_mod(1 << distance, 0x11021) for distance in (40, 32, 24, 16)
        ]
        assert tables[3] is remainder_table(0x1021, 16, 16)


@pytest.mark.parametrize("backend", BACKENDS)
class TestEntryPointsMatchReference:
    @given(case=parameters_and_records())
    @settings(max_examples=120, deadline=None)
    def test_compute_and_compute_batch(self, backend, case):
        parameters, record_bits, records = case
        engine = CrcEngine(parameters)
        expected = [
            engine.compute_bits_reference(value, record_bits) for value in records
        ]
        assert [engine.compute(value, record_bits) for value in records] == expected
        record_bytes = (record_bits + 7) // 8
        buffer = b"".join(value.to_bytes(record_bytes, "big") for value in records)
        assert engine.compute_batch(buffer, record_bits, backend=backend) == expected


class TestOneBuildPerDistance:
    def test_every_consumer_reads_the_same_cache_entries(self):
        """Byte, lane and record tables of one polynomial: one build each.

        A 32-byte order-8 chunk has 32 byte positions, so the Hamming code
        (whose byte loop is the switch programs' CRC extern), both batch
        splits, the bulk parity pass and the batch CRC together need exactly
        the distances ``0, 8, .. 248`` — the byte table (distance 8) being
        one of them.
        """
        remainder_table.cache_clear()
        code = HammingCode(8)
        code.byte_remainder(bytes(32))
        data = bytes(range(256)) * 8
        for name in BACKENDS:
            transform = GDTransform(order=8, backend=name)
            _, bases, _ = transform.split_batch_columns(data).columns()
            transform.code.parities_of_bases(bases, backend=get_backend(name))
            transform.code.crc_engine.compute_batch(data, 256, backend=name)
        assert remainder_table.cache_info().misses == 32
        for lane in range(32):  # ... and they are exactly these 32
            remainder_table(0x1D, 8, 8 * lane)
        assert remainder_table.cache_info().misses == 32

        # An augmented CRC over the same polynomial reads the same tables
        # one position up: only the topmost distance is new.
        augmented = CrcEngine(CrcParameters(polynomial=0x1D, width=8))
        augmented.compute_batch(data, 256, backend="pure")
        assert remainder_table.cache_info().misses == 33
        assert remainder_table.cache_info().currsize == 33
