"""Tests for the ZipLine encoder switch program."""

import pytest

from repro.controlplane.manager import LEARN_DIGEST
from repro.core.transform import GDTransform
from repro.exceptions import ConstraintViolation
from repro.net.ethernet import EthernetFrame, EtherType
from repro.net.mac import MacAddress
from repro.net.packets import ZipLinePacketCodec
from repro.tofino.constraints import ResourceUsage
from repro.zipline.encoder_switch import ZipLineEncoderSwitch
from repro.zipline.headers import ETHERTYPE_RAW_CHUNK

from packet_oracle import record_frame, unpack_compressed

DST = MacAddress("02:00:00:00:00:02")
SRC = MacAddress("02:00:00:00:00:01")


@pytest.fixture()
def encoder():
    return ZipLineEncoderSwitch(
        transform=GDTransform(order=8),
        identifier_bits=15,
        forwarding={0: 1},
    )


def chunk_frame(chunk: bytes) -> bytes:
    return EthernetFrame(DST, SRC, ETHERTYPE_RAW_CHUNK, chunk).to_bytes()


def make_chunk(transform, basis, position=None, prefix=0):
    codeword = transform.code.encode(basis)
    body = codeword if position is None else codeword ^ (1 << position)
    return ((prefix << transform.code.n) | body).to_bytes(transform.chunk_bytes, "big")


class TestEncoding:
    def test_unknown_basis_produces_type2_and_digest(self, encoder, rng):
        basis = rng.getrandbits(247)
        chunk = make_chunk(encoder.transform, basis, position=10)
        outputs = []
        for port in range(encoder.switch.port_count):
            encoder.switch.attach_port(
                port, lambda data, time, port=port: outputs.append((port, data))
            )
        digests = []
        encoder.digest_engine.subscribe(LEARN_DIGEST, digests.append)
        emitted = encoder.receive(chunk_frame(chunk), ingress_port=0)
        assert outputs == [(1, emitted)]
        frame = EthernetFrame.from_bytes(emitted)
        assert frame.ethertype == EtherType.ZIPLINE_UNCOMPRESSED
        assert len(frame.payload) == 33
        assert [(message.digest_type, message.data) for message in digests] == [
            (LEARN_DIGEST, {"basis": basis})
        ]
        assert encoder.counters.read("raw_to_uncompressed").packets == 1

    def test_known_basis_produces_type3(self, encoder, rng):
        basis = rng.getrandbits(247)
        encoder.install_basis_mapping(basis, identifier=77)
        outputs = []
        encoder.switch.attach_port(1, lambda data, time: outputs.append(data))
        chunk = make_chunk(encoder.transform, basis, position=42, prefix=1)
        encoder.receive(chunk_frame(chunk), ingress_port=0)
        frame = EthernetFrame.from_bytes(outputs[0])
        assert frame.ethertype == EtherType.ZIPLINE_COMPRESSED
        assert len(frame.payload) == 3
        codec = ZipLinePacketCodec(encoder.transform, identifier_bits=15)
        record = unpack_compressed(codec, frame.payload)
        assert record.identifier == 77
        assert record.prefix == 1
        assert encoder.counters.read("raw_to_compressed").packets == 1
        assert encoder.digest_engine.emitted == 0

    def test_type2_packet_content_reconstructs_the_chunk(self, encoder, rng):
        chunk = make_chunk(encoder.transform, rng.getrandbits(247), position=3, prefix=1)
        outputs = []
        encoder.switch.attach_port(1, lambda data, time: outputs.append(data))
        encoder.receive(chunk_frame(chunk), ingress_port=0)
        frame = EthernetFrame.from_bytes(outputs[0])
        codec = ZipLinePacketCodec(encoder.transform, identifier_bits=15)
        record = codec.unpack_uncompressed(frame.payload)
        rebuilt = encoder.transform.join_fields(record.prefix, record.basis, record.deviation)
        assert rebuilt.to_bytes(32, "big") == chunk

    def test_same_basis_maps_to_same_identifier_after_install(self, encoder, rng):
        basis = rng.getrandbits(247)
        encoder.install_basis_mapping(basis, identifier=3)
        outputs = []
        encoder.switch.attach_port(1, lambda data, time: outputs.append(data))
        codec = ZipLinePacketCodec(encoder.transform, identifier_bits=15)
        identifiers = set()
        for position in (0, 50, 100, 200, None):
            chunk = make_chunk(encoder.transform, basis, position=position)
            encoder.receive(chunk_frame(chunk), ingress_port=0)
            identifiers.add(unpack_compressed(codec, 
                EthernetFrame.from_bytes(outputs[-1]).payload
            ).identifier)
        assert identifiers == {3}

    def test_non_chunk_traffic_is_forwarded_unchanged(self, encoder):
        outputs = []
        encoder.switch.attach_port(1, lambda data, time: outputs.append(data))
        raw = EthernetFrame(DST, SRC, EtherType.IPV4, b"not a chunk").to_bytes()
        encoder.receive(raw, ingress_port=0)
        assert outputs == [raw]
        assert encoder.counters.read("passthrough_other").packets == 1

    def test_already_processed_traffic_is_forwarded_unchanged(self, encoder, rng):
        outputs = []
        encoder.switch.attach_port(1, lambda data, time: outputs.append(data))
        codec = ZipLinePacketCodec(encoder.transform, identifier_bits=15)
        from repro.core.records import CompressedRecord

        record = CompressedRecord(
            prefix=0, identifier=1, deviation=2,
            prefix_bits=1, identifier_bits=15, deviation_bits=8,
        )
        frame = record_frame(codec, record, DST, SRC).to_bytes()
        encoder.receive(frame, ingress_port=0)
        assert outputs == [frame]
        assert encoder.counters.read("passthrough_processed").packets == 1


class TestControlPlaneInterface:
    def test_install_modify_remove(self, encoder, rng):
        basis = rng.getrandbits(247)
        encoder.install_basis_mapping(basis, identifier=1)
        assert basis in encoder.known_bases()
        encoder.install_basis_mapping(basis, identifier=2)  # modify
        assert encoder.mapping_table.get_entry(basis).params["identifier"] == 2
        encoder.remove_basis_mapping(basis)
        assert basis not in encoder.known_bases()
        encoder.remove_basis_mapping(basis)  # idempotent

    def test_expired_bases(self, rng):
        encoder = ZipLineEncoderSwitch(transform=GDTransform(order=8), entry_ttl=1.0)
        basis = rng.getrandbits(247)
        encoder.install_basis_mapping(basis, identifier=1, ttl=1.0)
        assert encoder.expired_bases(now=0.5) == []
        assert encoder.expired_bases(now=2.0) == [basis]

    def test_forwarding_configuration(self, encoder):
        encoder.set_forwarding(2, 3)
        with pytest.raises(Exception):
            encoder.set_forwarding(-1, 2)


class TestProgramProperties:
    def test_no_recirculation_or_duplication(self, encoder, rng):
        """One pipeline pass per arriving frame, and at most one frame out."""
        for _ in range(20):
            chunk = make_chunk(encoder.transform, rng.getrandbits(247), position=1)
            encoder.receive(chunk_frame(chunk), ingress_port=0)
        ports = [encoder.switch.port_stats(port) for port in range(encoder.switch.port_count)]
        assert encoder.pipeline.packets_processed == sum(s.rx_packets for s in ports) == 20
        assert sum(s.tx_packets for s in ports) == 20

    def test_syndrome_table_row_has_an_entry_per_syndrome(self, encoder):
        # 2^m const entries: one per syndrome, including the zero syndrome.
        # The compiled program reads them as the code's error masks.
        (row,) = [
            usage
            for usage in encoder.pipeline.resources._usages
            if usage.name == "syndrome_mask"
        ]
        assert (row.stage, row.entries) == (1, 256)
        assert len(encoder.transform.code.error_masks) == 256

    def test_resources_registered(self):
        """The syndrome table sits in stage 1 and the 32k-entry mapping
        table fills stage 3: either has no room for a full stage more."""
        tracker = ZipLineEncoderSwitch().pipeline.resources
        for stage, blocks in ((1, 80), (3, 1)):
            with pytest.raises(ConstraintViolation, match=f"stage {stage} uses"):
                tracker.register(ResourceUsage(name="more", stage=stage, sram_blocks=blocks))
        tracker.register(ResourceUsage(name="free", stage=2, sram_blocks=80))

    def test_small_order_switch_roundtrip(self, rng):
        transform = GDTransform(order=4)
        encoder = ZipLineEncoderSwitch(
            transform=transform, identifier_bits=6, forwarding={0: 1}
        )
        outputs = []
        encoder.switch.attach_port(1, lambda data, time: outputs.append(data))
        basis = rng.getrandbits(transform.basis_bits)
        chunk = make_chunk(transform, basis, position=2)
        frame = EthernetFrame(DST, SRC, ETHERTYPE_RAW_CHUNK, chunk).to_bytes()
        encoder.receive(frame, ingress_port=0)
        parsed = EthernetFrame.from_bytes(outputs[0])
        assert parsed.ethertype == EtherType.ZIPLINE_UNCOMPRESSED
