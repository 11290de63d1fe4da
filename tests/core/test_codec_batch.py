"""Batched codec pipeline equivalence: the columnar path vs the oracle.

`GDCodec.compress` returns a lazily materialised `EncodedBatch`; the records
it describes, the container it serialises, the dictionary state it leaves
behind and the stats it accumulates must all be byte-for-byte /
field-for-field identical to the bit-serial oracle (`gd_oracle`).  Likewise
`decompress_container`'s columnar decode must return the same bytes — and
the same decoder stats and dictionary — as the oracle decoding the records
one by one.
"""

import random

import pytest

from repro.core.codec import GDCodec
from repro.core.encoder import EncodedBatch

from gd_oracle import OracleCodec


def clustered_data(codec, bases, count, rng):
    """Data whose chunks share the given bases (codeword ± one bit)."""
    code = codec.transform.code
    chunks = []
    for index in range(count):
        codeword = code.encode(bases[index % len(bases)])
        position = rng.randrange(code.n + 1)
        body = codeword if position == code.n else codeword ^ (1 << position)
        chunks.append(body.to_bytes(codec.chunk_bytes, "big"))
    return b"".join(chunks)

CONFIGS = {
    "default": dict(),
    "order4": dict(order=4, identifier_bits=6),
    "no_table": dict(mode="no_table"),
    "padded": dict(alignment_padding_bits=8),
    "learning_delay": dict(learning_delay_chunks=3),
    "pure_backend": dict(backend="pure"),
}


def _sample(codec, count=120, seed=11):
    rng = random.Random(seed)
    bases = [rng.getrandbits(codec.transform.code.k) for _ in range(8)]
    return clustered_data(codec, bases, count, rng)


@pytest.mark.parametrize("config", sorted(CONFIGS))
class TestCompressBatchEquivalence:
    def test_records_stats_and_container_match_oracle(self, config):
        codec = GDCodec(**CONFIGS[config])
        oracle = OracleCodec(**CONFIGS[config])
        data = _sample(codec)

        result = codec.compress(data)
        expected = oracle.encode(data)

        assert isinstance(result.records, EncodedBatch)
        assert list(result.records) == expected
        assert codec.encoder.stats.as_dict() == oracle.stats.as_dict()
        assert result.payload_bytes == sum(r.payload_bytes for r in expected)
        assert codec.to_container(result) == oracle.container(expected, len(data))
        assert result.container_bytes == len(codec.to_container(result))

    def test_batches_compose_with_dictionary_state(self, config):
        """Back-to-back compress calls see the dictionary the previous batch
        left behind, exactly like the oracle's chunk-at-a-time walk."""
        codec = GDCodec(**CONFIGS[config])
        oracle = OracleCodec(**CONFIGS[config])
        rng = random.Random(3)
        for count in (40, 40, 40):
            data = _sample(codec, count=count, seed=rng.randrange(1 << 30))
            assert list(codec.compress(data).records) == oracle.encode(data)

    def test_container_roundtrip(self, config):
        codec = GDCodec(**CONFIGS[config])
        data = _sample(codec)
        blob = codec.to_container(codec.compress(data))
        assert codec.clone().decompress_container(blob) == data


class TestColumnarDecompress:
    def test_container_decodes_to_the_oracle_bytes(self):
        codec = GDCodec()
        data = _sample(codec, count=200)
        result = codec.compress(data)
        assert codec.decompress_container(codec.to_container(result)) == (
            OracleCodec().decode(result.records)
        )

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    def test_decode_columns_matches_oracle_bytes_stats_and_dictionary(self, config):
        codec = GDCodec(**CONFIGS[config])
        oracle = OracleCodec(**CONFIGS[config])
        data = _sample(codec, count=150)
        records = oracle.encode(data)

        tags = bytearray()
        prefixes, keys, deviations = [], [], []
        for record in records:
            tags.append(int(record.record_type))
            prefixes.append(record.prefix)
            keys.append(
                record.identifier if int(record.record_type) == 3 else record.basis
            )
            deviations.append(record.deviation)
        decoder = codec.decoder
        assert decoder.decode_columns_to_bytes(
            bytes(tags), prefixes, keys, deviations
        ) == oracle.decode(records)
        stats = decoder.stats
        assert stats.records == len(records)
        assert stats.compressed_records == oracle.stats.compressed_records
        assert stats.uncompressed_records == oracle.stats.uncompressed_records
        assert stats.output_bits == oracle.stats.input_bits
        if decoder.dictionary is not None:
            assert decoder.dictionary.snapshot() == (
                oracle.decoder_dictionary.snapshot()
            )

    def test_empty_payload_roundtrips(self):
        codec = GDCodec()
        blob = codec.to_container(codec.compress(b""))
        assert codec.clone().decompress_container(blob) == b""


class TestEncodedBatchContainer:
    def test_pack_stream_matches_per_record_serialisation(self):
        codec = GDCodec()
        data = _sample(codec, count=90)
        result = codec.compress(data)
        assert isinstance(result.records, EncodedBatch)
        assert result.records.pack_stream() == OracleCodec().body(result.records)

    def test_parse_record_inverts_the_per_record_serialisation(self):
        codec = GDCodec(alignment_padding_bits=8)
        data = _sample(codec, count=40)
        records = list(codec.compress(data).records)
        blob = OracleCodec().body(records)
        offset = 0
        for record in records:
            parsed, offset = codec.parse_record(blob, offset)
            assert parsed == record
        assert offset == len(blob)

    def test_sequence_protocol(self):
        codec = GDCodec()
        data = _sample(codec, count=30)
        records = codec.compress(data).records
        assert isinstance(records, EncodedBatch)
        assert len(records) == 30
        assert records[0] == list(records)[0]
        assert records[-1] == list(records)[-1]
        assert records == tuple(records)
