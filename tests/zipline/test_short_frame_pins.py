"""What a frame too short for its header leaves behind, as literals.

A frame shorter than the header its EtherType announces — a 13-byte runt,
or a raw chunk, type-2 or type-3 frame one byte short — is a parser error:
the program counts it at its ingress port, in ``packets_processed``,
``parse_errors`` and ``packets_dropped``, and emits nothing.  The same
frames on a port the chassis lacks raise before anything is counted.  The
whole observable state of each program after both is pinned here as
literals, so a change that moves the short-frame path cannot move it.
"""

import pytest

from repro.exceptions import PipelineError
from repro.net.ethernet import EtherType
from repro.zipline.decoder_switch import ZipLineDecoderSwitch
from repro.zipline.encoder_switch import ZipLineEncoderSwitch
from repro.zipline.headers import ETHERTYPE_RAW_CHUNK

#: Destination and source MAC of every pinned frame.
ADDRESSES = bytes.fromhex("020000000002020000000001")


def _short_frames(program):
    """A 13-byte runt, then a raw chunk, a type-2 and a type-3 frame, each
    one byte short of its header."""
    headers = program.headers
    frames = [ADDRESSES + b"\x08"]
    for ethertype, header in (
        (ETHERTYPE_RAW_CHUNK, headers.chunk),
        (EtherType.ZIPLINE_UNCOMPRESSED, headers.type2),
        (EtherType.ZIPLINE_COMPRESSED, headers.type3),
    ):
        frames.append(
            ADDRESSES
            + int(ethertype).to_bytes(2, "big")
            + bytes(range(1, header.total_bytes))
        )
    return frames


def _encoder():
    program = ZipLineEncoderSwitch(forwarding={0: 1})
    program.install_basis_mapping(5, 7, ttl=2.0)
    return program


def _decoder():
    program = ZipLineDecoderSwitch(forwarding={0: 1})
    program.install_identifier_mapping(7, 5)
    return program


def _state(program):
    chassis = program.switch
    pipeline = program.pipeline
    return {
        "counters": {
            label: (sample.packets, sample.bytes)
            for label, sample in program.counters.as_dict().items()
        },
        "ports": {
            port: (stats.rx_packets, stats.rx_bytes, stats.tx_packets, stats.tx_bytes)
            for port, stats in enumerate(map(chassis.port_stats, range(chassis.port_count)))
            if (stats.rx_packets, stats.rx_bytes, stats.tx_packets, stats.tx_bytes)
            != (0, 0, 0, 0)
        },
        "port_count": chassis.port_count,
        "pipeline": (
            pipeline.packets_processed,
            pipeline.packets_dropped,
            pipeline.parse_errors,
        ),
        "digests": (chassis.digest_engine.emitted, chassis.digest_engine.dropped),
        "crc_invocations": program.crc_invocations,
        "mapping_entries": [
            (
                entry.key,
                entry.action,
                entry.params,
                entry.ttl,
                entry.installed_at,
                entry.last_hit,
                entry.hit_count,
            )
            for entry in program.mapping_table.entries()
        ],
    }


PINS = {
    "encoder": {
        "counters": {
            "raw_to_uncompressed": (0, 0),
            "raw_to_compressed": (0, 0),
            "passthrough_processed": (0, 0),
            "passthrough_other": (0, 0),
        },
        "ports": {0: (4, 120, 0, 0)},
        "port_count": 32,
        "pipeline": (4, 4, 4),
        "digests": (0, 0),
        "crc_invocations": 0,
        "mapping_entries": [
            (5, "set_identifier", {"identifier": 7}, 2.0, 0.0, None, 0)
        ],
    },
    "decoder": {
        "counters": {
            "compressed_to_raw": (0, 0),
            "uncompressed_to_raw": (0, 0),
            "unknown_identifier": (0, 0),
            "passthrough_other": (0, 0),
        },
        "ports": {0: (4, 120, 0, 0)},
        "port_count": 32,
        "pipeline": (4, 4, 4),
        "digests": (0, 0),
        "crc_invocations": 0,
        "mapping_entries": [(7, "set_basis", {"basis": 5}, None, 0.0, None, 0)],
    },
}

PROGRAMS = [
    pytest.param(_encoder, "encoder", "zipline-encoder", id="encoder"),
    pytest.param(_decoder, "decoder", "zipline-decoder", id="decoder"),
]


@pytest.mark.parametrize("make_program, pin, name", PROGRAMS)
def test_short_frames_are_counted_parse_errors(make_program, pin, name):
    program = make_program()
    frames = _short_frames(program)
    assert [len(frame) for frame in frames] == [13, 45, 46, 16]
    assert [program.receive(frame, 0) for frame in frames] == [None] * 4
    assert _state(program) == PINS[pin]


@pytest.mark.parametrize("make_program, pin, name", PROGRAMS)
def test_short_frames_on_a_missing_port_raise_before_counting(
    make_program, pin, name
):
    program = make_program()
    for frame in _short_frames(program):
        program.receive(frame, 0)
    for port in (32, -1, None):
        for frame in _short_frames(program):
            with pytest.raises(PipelineError) as error:
                program.receive(frame, port)
            assert str(error.value) == f"{name}: port {port} out of range [0, 32)"
    assert _state(program) == PINS[pin]
