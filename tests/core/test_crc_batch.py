"""Batch CRC equivalence: whole-buffer folds vs the bit-serial reference.

`CrcEngine.compute_batch` must be bit-identical to the bit-serial Rocksoft
reference for every record, for arbitrary polynomials, non-byte-aligned
record widths and batch sizes (including empty and single-record buffers),
on every available backend.  These are the seeded matrix tests that pin
that contract; the table derivation the batch path reads from has its own
property tests in ``test_crc_kernel.py``.
"""

import random

import pytest

from repro.core.backends import (
    MIN_BATCH_CHUNKS,
    available_backend_names,
    backend_status,
    get_backend,
)
from repro.core.crc import (
    CRC8_ATM,
    CRC16_CCITT,
    CRC32_ETHERNET,
    CrcEngine,
    CrcParameters,
)
from repro.exceptions import CodingError

BACKENDS = available_backend_names()


def _random_parameters(rng):
    """A random CRC parameter set; Rocksoft knobs only where they are legal.

    Plain-remainder (non-augmented) CRCs forbid init/xor_out/reflection, so
    those knobs are only rolled for augmented parameter sets.
    """
    width = rng.randrange(1, 33)
    polynomial = rng.getrandbits(width) | 1
    augment = rng.random() < 0.5
    init = rng.getrandbits(width) if augment and rng.random() < 0.5 else 0
    xor_out = rng.getrandbits(width) if augment and rng.random() < 0.5 else 0
    reflect = bool(augment and rng.random() < 0.3)
    return CrcParameters(
        polynomial=polynomial,
        width=width,
        init=init,
        xor_out=xor_out,
        reflect_in=reflect,
        reflect_out=reflect,
        augment=augment,
    )


def _record_buffer(rng, record_bits, count):
    record_bytes = (record_bits + 7) // 8
    values = [rng.getrandbits(record_bits) for _ in range(count)]
    buffer = b"".join(value.to_bytes(record_bytes, "big") for value in values)
    return buffer, values


@pytest.mark.parametrize("backend", BACKENDS)
class TestBatchMatchesReference:
    def test_random_parameter_matrix(self, backend):
        rng = random.Random(0xC0DEC + len(backend))
        for _ in range(30):
            params = _random_parameters(rng)
            engine = CrcEngine(params)
            record_bits = rng.randrange(1, 101)
            if params.reflect_in and record_bits % 8:
                record_bits = max(8, record_bits - record_bits % 8)
            count = rng.choice([0, 1, 2, 17, 33])
            buffer, values = _record_buffer(rng, record_bits, count)
            got = engine.compute_batch(buffer, record_bits, backend=backend)
            expected = [
                engine.compute_bits_reference(value, record_bits)
                for value in values
            ]
            assert got == expected, (params, record_bits, count)

    def test_non_byte_aligned_widths(self, backend):
        rng = random.Random(7)
        for params in (CRC8_ATM, CRC16_CCITT, CRC32_ETHERNET):
            engine = CrcEngine(params)
            for record_bits in (1, 3, 7, 9, 15, 17, 23, 33, 63, 65):
                if params.reflect_in and record_bits % 8:
                    continue  # reflection is byte-oriented by definition
                buffer, values = _record_buffer(rng, record_bits, 21)
                got = engine.compute_batch(buffer, record_bits, backend=backend)
                assert got == [
                    engine.compute(value, record_bits) for value in values
                ]

    def test_empty_and_single_record(self, backend):
        engine = CrcEngine(CRC16_CCITT)
        assert engine.compute_batch(b"", 12, backend=backend) == []
        assert engine.compute_batch(b"\x0f\xa5", 12, backend=backend) == [
            engine.compute(0xFA5, 12)
        ]

    def test_overlong_record_named_in_error(self, backend):
        engine = CrcEngine(CRC8_ATM)
        buffer = (0x5).to_bytes(2, "big") + (0x1FFF).to_bytes(2, "big")
        with pytest.raises(CodingError, match="record 1 does not fit in 12 bits"):
            engine.compute_batch(buffer, 12, backend=backend)

    def test_ragged_buffer_rejected(self, backend):
        engine = CrcEngine(CRC8_ATM)
        with pytest.raises(CodingError, match="whole number of 2-byte records"):
            engine.compute_batch(b"\x00\x01\x02", 12, backend=backend)


class TestBatchValidation:
    def test_record_width_must_be_positive(self):
        engine = CrcEngine(CRC8_ATM)
        with pytest.raises(CodingError, match="record width must be positive"):
            engine.compute_batch(b"", 0)

    def test_reflect_in_requires_byte_alignment(self):
        params = CrcParameters(
            polynomial=CRC16_CCITT.polynomial,
            width=16,
            reflect_in=True,
            reflect_out=True,
            augment=True,
        )
        engine = CrcEngine(params)
        with pytest.raises(CodingError, match="byte-aligned"):
            engine.compute_batch(b"\x00\x00", 12)

    def test_small_batches_stay_on_the_pure_fold(self, monkeypatch):
        """Automatic selection needs MIN_BATCH_CHUNKS records; below that the
        pure fold runs even when an accelerated backend is available."""
        engine = CrcEngine(CRC8_ATM)
        for name in BACKENDS:
            backend = get_backend(name)
            if backend.accelerated:
                monkeypatch.setattr(
                    type(backend),
                    "crc_batch",
                    lambda *args, **kwargs: pytest.fail(
                        "accelerated batch used below the count gate"
                    ),
                )
        buffer, values = _record_buffer(random.Random(1), 8, MIN_BATCH_CHUNKS - 1)
        assert engine.compute_batch(buffer, 8) == [
            engine.compute(value, 8) for value in values
        ]


class TestBackendStatus:
    def test_backend_status_reports_crc_batch(self):
        rows = backend_status()
        assert rows, "backend registry is empty"
        for row in rows:
            assert "crc_batch" in row
        by_name = {row["name"]: row for row in rows}
        assert by_name["pure"]["crc_batch"] is False
        if "numpy" in by_name and by_name["numpy"]["available"]:
            assert by_name["numpy"]["crc_batch"] is True
