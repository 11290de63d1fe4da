"""Tests for the ZipLine decoder switch program."""

import pytest

from repro.core.records import CompressedRecord, UncompressedRecord
from repro.core.transform import GDTransform
from repro.net.ethernet import EthernetFrame, EtherType
from repro.net.mac import MacAddress
from repro.net.packets import ZipLinePacketCodec
from repro.tofino.counters import CounterSample
from repro.zipline.decoder_switch import ZipLineDecoderSwitch
from repro.zipline.headers import ETHERTYPE_RAW_CHUNK

from packet_oracle import record_frame

DST = MacAddress("02:00:00:00:00:02")
SRC = MacAddress("02:00:00:00:00:01")


@pytest.fixture()
def decoder():
    return ZipLineDecoderSwitch(
        transform=GDTransform(order=8),
        identifier_bits=15,
        forwarding={0: 1},
    )


@pytest.fixture()
def codec():
    return ZipLinePacketCodec(GDTransform(order=8), identifier_bits=15)


def capture(decoder):
    outputs = []
    decoder.switch.attach_port(1, lambda data, time: outputs.append(data))
    return outputs


class TestDecoding:
    def test_type2_restores_the_original_chunk(self, decoder, codec, rng):
        outputs = capture(decoder)
        transform = decoder.transform
        chunk = rng.getrandbits(256).to_bytes(32, "big")
        parts = transform.split(chunk)
        record = UncompressedRecord(
            prefix=parts.prefix, basis=parts.basis, deviation=parts.deviation,
            prefix_bits=parts.prefix_bits, basis_bits=parts.basis_bits,
            deviation_bits=parts.deviation_bits, alignment_padding_bits=8,
        )
        decoder.receive(record_frame(codec, record, DST, SRC).to_bytes(), ingress_port=0)
        frame = EthernetFrame.from_bytes(outputs[0])
        assert frame.ethertype == ETHERTYPE_RAW_CHUNK
        assert frame.payload == chunk
        assert decoder.counters.read("uncompressed_to_raw").packets == 1

    def test_type3_restores_the_original_chunk(self, decoder, codec, rng):
        outputs = capture(decoder)
        transform = decoder.transform
        chunk = rng.getrandbits(256).to_bytes(32, "big")
        parts = transform.split(chunk)
        decoder.install_identifier_mapping(500, parts.basis)
        record = CompressedRecord(
            prefix=parts.prefix, identifier=500, deviation=parts.deviation,
            prefix_bits=parts.prefix_bits, identifier_bits=15,
            deviation_bits=parts.deviation_bits,
        )
        decoder.receive(record_frame(codec, record, DST, SRC).to_bytes(), ingress_port=0)
        frame = EthernetFrame.from_bytes(outputs[0])
        assert frame.ethertype == ETHERTYPE_RAW_CHUNK
        assert frame.payload == chunk
        assert decoder.counters.read("compressed_to_raw").packets == 1

    def test_unknown_identifier_drops_the_packet(self, decoder, codec):
        outputs = capture(decoder)
        record = CompressedRecord(
            prefix=0, identifier=123, deviation=0,
            prefix_bits=1, identifier_bits=15, deviation_bits=8,
        )
        frame = record_frame(codec, record, DST, SRC).to_bytes()
        assert decoder.receive(frame, ingress_port=0) is None
        assert outputs == []
        assert all(
            decoder.switch.port_stats(port).tx_packets == 0
            for port in range(decoder.switch.port_count)
        )
        assert decoder.pipeline.packets_dropped == 1
        assert decoder.counters.read("unknown_identifier") == CounterSample(1, len(frame))

    def test_other_traffic_passes_through(self, decoder):
        outputs = capture(decoder)
        raw = EthernetFrame(DST, SRC, EtherType.IPV4, b"hello").to_bytes()
        decoder.receive(raw, ingress_port=0)
        assert outputs == [raw]
        assert decoder.counters.read("passthrough_other").packets == 1

    def test_no_recirculation(self, decoder, codec, rng):
        parts = decoder.transform.split(rng.getrandbits(256).to_bytes(32, "big"))
        record = UncompressedRecord(
            prefix=parts.prefix, basis=parts.basis, deviation=parts.deviation,
            prefix_bits=parts.prefix_bits, basis_bits=parts.basis_bits,
            deviation_bits=parts.deviation_bits, alignment_padding_bits=8,
        )
        for _ in range(10):
            decoder.receive(record_frame(codec, record, DST, SRC).to_bytes(), 0)
        # One pipeline pass per arriving frame, and at most one frame out.
        ports = [decoder.switch.port_stats(port) for port in range(decoder.switch.port_count)]
        assert decoder.pipeline.packets_processed == sum(s.rx_packets for s in ports) == 10
        assert sum(s.tx_packets for s in ports) == 10


class TestControlPlaneInterface:
    def test_install_replace_remove(self, decoder):
        decoder.install_identifier_mapping(1, 0xAAA)
        assert decoder.mapping_table.get_entry(1).params["basis"] == 0xAAA
        decoder.install_identifier_mapping(1, 0xBBB)
        assert decoder.mapping_table.get_entry(1).params["basis"] == 0xBBB
        decoder.remove_identifier_mapping(1)
        assert decoder.mapping_table.get_entry(1) is None
        decoder.remove_identifier_mapping(1)  # idempotent

    def test_forwarding_validation(self, decoder):
        decoder.set_forwarding(5, 6)
        with pytest.raises(Exception):
            decoder.set_forwarding(1, -2)


class TestEncoderDecoderSymmetry:
    def test_every_syndrome_roundtrips_through_both_programs(self, rng):
        """Exhaustively check the syndrome path with a small order."""
        from repro.zipline.encoder_switch import ZipLineEncoderSwitch

        transform = GDTransform(order=4)
        encoder = ZipLineEncoderSwitch(transform=transform, identifier_bits=6)
        decoder = ZipLineDecoderSwitch(transform=transform, identifier_bits=6)
        encoder_out = []
        decoder_out = []
        encoder.switch.attach_port(1, lambda data, time: encoder_out.append(data))
        decoder.switch.attach_port(1, lambda data, time: decoder_out.append(data))

        for value in range(0, 1 << 16, 97):
            chunk = value.to_bytes(2, "big")
            frame = EthernetFrame(DST, SRC, ETHERTYPE_RAW_CHUNK, chunk).to_bytes()
            encoder.receive(frame, ingress_port=0)
            decoder.receive(encoder_out[-1], ingress_port=0)
            restored = EthernetFrame.from_bytes(decoder_out[-1]).payload
            assert restored == chunk
