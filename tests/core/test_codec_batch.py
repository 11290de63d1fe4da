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

from repro import obs
from repro.core.codec import GDCodec
from repro.core.encoder import EncodedBatch
from repro.core.records import CompressedRecord
from repro.exceptions import DictionaryError

from gd_oracle import OracleCodec, resolve_loop


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
    "pure_backend": dict(backend="pure"),
    # Four slots for the sample's eight bases, visited round robin: LRU
    # evicts on every chunk and never hits; random eviction hits now and then.
    "lru_pressure": dict(identifier_bits=2),
    "random_pressure": dict(identifier_bits=2, eviction_policy="random", eviction_seed=9),
}


def _sample(codec, count=120, seed=11):
    rng = random.Random(seed)
    bases = [rng.getrandbits(codec.transform.code.k) for _ in range(8)]
    return clustered_data(codec, bases, count, rng)


def _row(record):
    """A type-2 record's basis as the decoder keys it: its byte row."""
    return record.basis.to_bytes((record.basis_bits + 7) // 8, "big")


def _record_columns(records):
    """Record objects → the decoder's ``(tags, prefixes, keys, deviations)``."""
    tags = bytearray()
    prefixes, keys, deviations = [], [], []
    for record in records:
        tags.append(int(record.record_type))
        prefixes.append(record.prefix)
        keys.append(record.identifier if tags[-1] == 3 else _row(record))
        deviations.append(record.deviation)
    return bytes(tags), prefixes, keys, deviations


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

        decoder = codec.decoder
        assert decoder.decode_columns_to_bytes(
            *_record_columns(records)
        ) == oracle.decode(records)
        stats = decoder.stats
        assert stats.records == len(records)
        assert stats.compressed_records == oracle.stats.compressed_records
        assert stats.uncompressed_records == oracle.stats.uncompressed_records
        assert stats.output_bits == oracle.stats.input_bits
        if decoder.dictionary is not None:
            assert decoder.snapshot_state()["dictionary"] == (
                oracle.decoder_dictionary.snapshot_state()
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

    def test_parse_records_inverts_the_per_record_serialisation(self):
        codec = GDCodec(alignment_padding_bits=8)
        data = _sample(codec, count=40)
        records = list(codec.compress(data).records)
        blob = OracleCodec().body(records)
        tags, prefixes, keys, deviations, offset = codec.parse_records(blob, 0)
        assert offset == len(blob)
        assert list(zip(tags, prefixes, keys, deviations)) == [
            (
                int(record.record_type),
                record.prefix,
                record.identifier if record.record_type == 3 else _row(record),
                record.deviation,
            )
            for record in records
        ]

    def test_sequence_protocol(self):
        codec = GDCodec()
        data = _sample(codec, count=30)
        records = codec.compress(data).records
        assert isinstance(records, EncodedBatch)
        assert len(records) == 30
        assert records[0] == list(records)[0]
        assert records[-1] == list(records)[-1]
        assert records == tuple(records)


#: Small dictionaries on purpose: every policy evicts inside the sample.
#: Alignment padding widens every type-2 record on the wire.
CUT_CONFIGS = {
    "lru": dict(identifier_bits=2),
    "fifo": dict(identifier_bits=2, eviction_policy="fifo"),
    "random": dict(identifier_bits=2, eviction_policy="random", eviction_seed=9),
    "static": dict(identifier_bits=3, mode="static", static_bases=[3, 5, 7]),
    "padded": dict(identifier_bits=2, alignment_padding_bits=3),
    "no_table": dict(mode="no_table"),
}


@pytest.mark.parametrize("config", sorted(CUT_CONFIGS))
class TestBatchCuts:
    """The dictionary verbs see one batch per call; where a stream is cut
    into batches must not show in any byte or any state."""

    def _data(self, codec):
        rng = random.Random(21)
        return clustered_data(codec, [3, 5, 7, 11, 13, 17], 90, rng)

    def _encode_cut(self, config, size):
        codec = GDCodec(order=4, **CUT_CONFIGS[config])
        data = self._data(codec)
        step = size * codec.chunk_bytes
        body = b"".join(
            codec.encoder.encode_buffer_batch(data[offset : offset + step]).pack_stream()
            for offset in range(0, len(data), step)
        )
        return codec, data, body

    def test_encoder_cut_into_1_7_and_all_at_once(self, config):
        whole, data, body = self._encode_cut(config, 90)
        oracle = OracleCodec(order=4, **CUT_CONFIGS[config])
        assert body == oracle.body(oracle.encode(data))
        for size in (1, 7):
            cut, _data, cut_body = self._encode_cut(config, size)
            assert cut_body == body
            assert cut.encoder.snapshot_state() == whole.encoder.snapshot_state()

    def test_decoder_cut_into_1_7_and_all_at_once(self, config):
        whole, data, _body = self._encode_cut(config, 90)
        records = list(whole.clone().compress(data).records)
        snapshots = []
        for size in (1, 7, 90):
            decoder = whole.clone().decoder
            restored = b"".join(
                decoder.decode_columns_to_bytes(
                    *_record_columns(records[offset : offset + size])
                )
                for offset in range(0, len(records), size)
            )
            assert restored == data
            snapshots.append(decoder.snapshot_state())
        assert snapshots[0] == snapshots[1] == snapshots[2]


class TestUnmappedIdentifierMidBatch:
    def _records(self):
        codec = GDCodec(order=4, identifier_bits=4)
        rng = random.Random(4)
        data = clustered_data(codec, [3, 5], 6, rng)  # miss miss hit hit hit hit
        records = list(codec.compress(data).records)
        assert [int(r.record_type) for r in records] == [2, 2, 3, 3, 3, 3]
        # Identifier 9 was never learned: the fifth record cannot resolve.
        records[4] = CompressedRecord(
            prefix=0, identifier=9, deviation=0,
            prefix_bits=records[4].prefix_bits,
            identifier_bits=4,
            deviation_bits=records[4].deviation_bits,
        )
        return codec, records

    def test_state_stats_instants_and_message_equal_the_loop(self):
        codec, records = self._records()
        decoder = codec.clone().decoder
        tracer = obs.enable()
        try:
            with pytest.raises(DictionaryError) as raised:
                decoder.decode_batch(records)
        finally:
            obs.disable()
        assert str(raised.value) == "identifier 9 is not mapped to any basis"
        assert decoder.stats.unknown_identifiers == 1
        assert decoder.stats.records == 0
        assert [
            event["args"] for event in tracer.sink.events if event["name"] == "gd.decode"
        ] == [
            {"outcome": "uncompressed", "learned_identifier": 0},
            {"outcome": "uncompressed", "learned_identifier": 1},
            {"outcome": "hit", "identifier": 0},
            {"outcome": "hit", "identifier": 1},
            {"outcome": "unknown", "identifier": 9},
        ]
        # The dictionary is where the per-record loop left it: the four
        # records before the unmapped one applied, the one after it did not.
        looped = codec.clone().decoder.dictionary
        tags, _prefixes, keys, _deviations = _record_columns(records)
        assert resolve_loop(looped, tags, keys, True, list(keys))[1] == 4
        assert decoder.dictionary.snapshot_state() == looped.snapshot_state()
