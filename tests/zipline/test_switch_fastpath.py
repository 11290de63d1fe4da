"""The compiled switch programs are indistinguishable from the interpreted ones.

``receive`` runs the compiled program — the paper's P4 reduced to integer
arithmetic over the frame bytes — and returns only the frame it emitted
(``None`` for a drop).  The interpreted program (parse graph, header
objects, table dispatch, deparser) is the oracle in ``p4_oracle.py``,
reached as ``p4_oracle.receive(program, frame, port)``, which returns the
same frame.  Everything else the compiled pass does not return is read
where it lands: the egress port and the delivery stamp at the port sinks,
the digests at the digest engine.  Every observable — emitted bytes, those
captures, per-type counters, pipeline summaries, CRC extern invocations,
mapping-table hit counters and entry metadata, port statistics — must be
identical after each frame between a switch driven through ``receive`` and
a twin driven through the oracle.  These tests feed both the same
randomized frame mix (raw chunks, type 2/3, foreign EtherTypes, truncated
frames) over every order and prefix width the header set accepts, and
hypothesis-drawn frame bytes over drawn mapping-table contents at the clock
and ahead of it, and diff everything.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controlplane.manager import LEARN_DIGEST
from repro.core.transform import GDTransform
from repro.exceptions import PipelineError
from repro.net.ethernet import EthernetFrame, EtherType
from repro.net.mac import MacAddress
from repro.sim.simulator import Simulator
from repro.topology.control import apply_switch_command
from repro.zipline import encoder_switch
from repro.zipline._program import ETHERNET_BYTES, SPLITS
from repro.zipline.decoder_switch import ZipLineDecoderSwitch
from repro.zipline.encoder_switch import ZipLineEncoderSwitch
from repro.zipline.headers import ETHERTYPE_RAW_CHUNK

import p4_oracle

DST = MacAddress("02:00:00:00:00:02")
SRC = MacAddress("02:00:00:00:00:01")

#: ``n = 2**m - 1`` is 7 mod 8 for every order, so a byte-aligned chunk
#: header carries a prefix of 1, 9, 17, ... bits: narrower than, equal to
#: and wider than the syndrome, and wider than a byte.
CONFIGS = [
    pytest.param(order, prefix_bits, id=f"m{order}-p{prefix_bits}")
    for order in (3, 5, 8)
    for prefix_bits in (1, 9, 17)
]


def _transform(order, prefix_bits):
    return GDTransform(order=order, chunk_bits=(1 << order) - 1 + prefix_bits)


def _frame_mix(transform, headers, rng, count):
    """A randomized mix of every frame shape the programs can see.

    Returns ``(frame, well_formed)`` pairs; a frame is malformed when it is
    too short for the header its EtherType announces.
    """
    code = transform.code
    frames = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.45:  # raw chunk (sometimes clustered for dict hits)
            if rng.random() < 0.5:
                basis = rng.getrandbits(3)
                body = code.encode(basis)
                if rng.random() < 0.8:
                    body ^= 1 << rng.randrange(code.n)
            else:
                body = rng.getrandbits(code.n)
            value = (rng.getrandbits(transform.prefix_bits) << code.n) | body
            payload = value.to_bytes(headers.chunk.total_bytes, "big")
            if rng.random() < 0.2:  # trailing payload after the chunk
                payload += bytes(rng.getrandbits(8) for _ in range(rng.randrange(1, 9)))
            frame = EthernetFrame(DST, SRC, ETHERTYPE_RAW_CHUNK, payload)
        elif roll < 0.6:  # type 2
            value = rng.getrandbits(8 * headers.type2.total_bytes)
            frame = EthernetFrame(
                DST, SRC, EtherType.ZIPLINE_UNCOMPRESSED,
                value.to_bytes(headers.type2.total_bytes, "big"),
            )
        elif roll < 0.75:  # type 3 (identifiers both mapped and unmapped)
            syndrome = rng.getrandbits(code.m)
            identifier = rng.randrange(0, 64)
            prefix = rng.getrandbits(transform.prefix_bits)
            value = (
                ((prefix << headers.identifier_bits) | identifier) << code.m
            ) | syndrome
            value <<= headers.type3_padding_bits
            frame = EthernetFrame(
                DST, SRC, EtherType.ZIPLINE_COMPRESSED,
                value.to_bytes(headers.type3.total_bytes, "big"),
            )
        elif roll < 0.9:  # unrelated traffic
            frame = EthernetFrame(
                DST, SRC, EtherType.IPV4,
                bytes(rng.getrandbits(8) for _ in range(rng.randrange(0, 60))),
            )
        else:  # truncated ZipLine frames (parser error path)
            ethertype, header = rng.choice(
                [
                    (ETHERTYPE_RAW_CHUNK, headers.chunk),
                    (int(EtherType.ZIPLINE_UNCOMPRESSED), headers.type2),
                    (int(EtherType.ZIPLINE_COMPRESSED), headers.type3),
                ]
            )
            frame = EthernetFrame(
                DST, SRC, ethertype, bytes(rng.randrange(0, header.total_bytes))
            )
            frames.append((frame.to_bytes(), False))
            continue
        frames.append((frame.to_bytes(), True))
    return frames


def _oracle(switch):
    """The interpreted twin's receive: ``p4_oracle.receive`` bound to ``switch``."""
    return lambda frame, port: p4_oracle.receive(switch, frame, port)


def _probe(switch, trains=False):
    """Log what ``switch`` hands out, where it lands.

    ``("tx", port, stamp, frame)`` per frame an egress port is handed,
    captured at a sink on every port — one that takes trains as lists
    with ``trains`` (:class:`_TrainSink`); ``("digest", message)`` per
    learn digest, captured at the digest engine.
    """
    log = []
    chassis = switch.switch
    for port in range(chassis.port_count):
        chassis.attach_port(
            port,
            _TrainSink(log, port, switch.simulator)
            if trains
            else lambda frame, stamp, port=port: log.append(("tx", port, stamp, frame)),
        )
    chassis.digest_engine.subscribe(
        LEARN_DIGEST, lambda message: log.append(("digest", message))
    )
    return log


def _table_state(table):
    """Counters plus every field of every entry of a match-action table."""
    return (
        table.lookups,
        table.hits,
        sorted(table.entries(), key=lambda entry: entry.key),
    )


def _state(switch):
    """Every counter, table hit-metadata field and port statistic."""
    chassis = switch.switch
    pipeline = chassis.pipeline
    return (
        switch.counters.as_dict(),
        [chassis.port_stats(port) for port in range(chassis.port_count)],
        (pipeline.packets_processed, pipeline.packets_dropped, pipeline.parse_errors),
        (chassis.digest_engine.emitted, chassis.digest_engine.dropped),
        switch.crc_invocations,
        _table_state(switch.mapping_table),
    )


def _run_frame(switch, receive, frame, port=0, ahead=0.0, early=False):
    """``receive(frame, port)`` ``ahead`` seconds plus a microsecond after
    the previous frame's transmit and digest events ran, then run this
    one's; its return value.

    ``early`` makes the call ``ahead`` seconds before that instant instead,
    passing the instant as the frame's ``time`` — the way an edge hands a
    program a frame its lookahead admitted.
    """
    simulator = switch.simulator
    instant = simulator.now + 1e-6 + ahead
    returned = []
    if early:
        simulator.schedule_at(
            instant - ahead, lambda: returned.append(receive(frame, port, instant))
        )
    else:
        simulator.schedule_at(instant, lambda: returned.append(receive(frame, port)))
    simulator.run()
    # A dropped frame taken early leaves the clock short of its instant.
    simulator.run(until=instant)
    return returned[0]


def _drive_twins(compiled, interpreted, frames, ahead=0.0):
    """Feed ``frames`` to both twins and diff every observable per frame.

    ``compiled`` goes through ``receive`` — ``ahead`` seconds before each
    frame's instant, with that instant as its ``time``, when ``ahead`` is
    set; ``interpreted`` through the oracle, at the instant.  Also asserts
    that exactly the malformed frames were counted as parse errors.
    """
    compiled_log, interpreted_log = _probe(compiled), _probe(interpreted)
    oracle = _oracle(interpreted)
    for frame, _well_formed in frames:
        got = _run_frame(
            compiled, compiled.receive, frame, ahead=ahead, early=bool(ahead)
        )
        want = _run_frame(interpreted, oracle, frame, ahead=ahead)
        assert got == want
        assert compiled_log == interpreted_log
        assert _state(compiled) == _state(interpreted)
        compiled_log.clear()
        interpreted_log.clear()
    # A frame too short for its announced header is a parse error; no
    # well-formed frame is.
    malformed = [frame for frame, well_formed in frames if not well_formed]
    assert malformed and len(malformed) < len(frames)
    assert compiled.pipeline.parse_errors == len(malformed)


def _encoder(transform=None, simulator=None):
    switch = ZipLineEncoderSwitch(
        transform=transform or GDTransform(order=8),
        forwarding={0: 1},
        simulator=simulator,
    )
    # install a few mappings so the compressed branch runs too
    mapping_rng = random.Random(1)
    for identifier in range(12):
        switch.install_basis_mapping(mapping_rng.getrandbits(3), identifier)
    return switch


def _decoder(transform=None, simulator=None):
    switch = ZipLineDecoderSwitch(
        transform=transform or GDTransform(order=8),
        forwarding={0: 1},
        simulator=simulator,
    )
    mapping_rng = random.Random(8)
    for identifier in range(40):
        switch.install_identifier_mapping(
            identifier, mapping_rng.getrandbits(switch.transform.code.k)
        )
    return switch


#: How far ahead of the clock the compiled twin is handed each frame: not
#: at all, and by more than a pipeline latency.
AHEAD = [pytest.param(0.0, id="at-clock"), pytest.param(5e-6, id="ahead")]


class TestEncoderSwitchFastPath:
    @pytest.mark.parametrize("ahead", AHEAD)
    @pytest.mark.parametrize("order, prefix_bits", CONFIGS)
    def test_equivalent_over_randomized_frame_mix(self, order, prefix_bits, ahead):
        compiled = _encoder(_transform(order, prefix_bits), Simulator())
        interpreted = _encoder(_transform(order, prefix_bits), Simulator())
        frames = _frame_mix(
            compiled.transform, compiled.headers, random.Random(2020), 500
        )
        _drive_twins(compiled, interpreted, frames, ahead)

    @pytest.mark.parametrize("order, prefix_bits", CONFIGS)
    def test_primed_syndromes_change_nothing(self, order, prefix_bits, monkeypatch):
        """A train's syndromes come from one bulk pass: primed with half of
        the mix (the other half, foreign and truncated frames take the byte
        loop), the compiled switch still diffs clean against the
        interpreted one."""
        passes = []
        bulk = encoder_switch.lane_remainders
        monkeypatch.setattr(
            encoder_switch,
            "lane_remainders",
            lambda tables, buffer: passes.append(len(buffer)) or bulk(tables, buffer),
        )
        compiled = _encoder(_transform(order, prefix_bits), Simulator())
        interpreted = _encoder(_transform(order, prefix_bits), Simulator())
        frames = _frame_mix(
            compiled.transform, compiled.headers, random.Random(2020), 500
        )
        compiled.prime_syndromes(frame for frame, _well_formed in frames[::2])
        assert len(passes) == 1
        _drive_twins(compiled, interpreted, frames)

    def test_too_few_chunks_keep_the_byte_loop(self, monkeypatch):
        """Below ``PRIME_THRESHOLD`` raw chunks, or with a syndrome wider
        than a byte lane, priming makes no bulk pass."""
        passes = []
        monkeypatch.setattr(
            encoder_switch, "lane_remainders", lambda *args: passes.append(args)
        )
        switch = _encoder()
        chunk = EthernetFrame(DST, SRC, ETHERTYPE_RAW_CHUNK, bytes(32)).to_bytes()
        switch.prime_syndromes([chunk] * (encoder_switch.PRIME_THRESHOLD - 1))
        wide = ZipLineEncoderSwitch(transform=GDTransform(order=9))
        wide_chunk = EthernetFrame(
            DST, SRC, ETHERTYPE_RAW_CHUNK, bytes(wide.headers.chunk.total_bytes)
        ).to_bytes()
        wide.prime_syndromes([wide_chunk] * encoder_switch.PRIME_THRESHOLD)
        assert passes == []

    def test_basis_table_entry_metadata_matches(self):
        compiled = _encoder()
        interpreted = _encoder()
        code = compiled.transform.code
        basis = 5
        compiled.install_basis_mapping(basis, 0)
        interpreted.install_basis_mapping(basis, 0)
        body = code.encode(basis)
        frame = EthernetFrame(
            DST, SRC, ETHERTYPE_RAW_CHUNK, body.to_bytes(32, "big")
        ).to_bytes()
        for _ in range(3):
            compiled.receive(frame, 0)
            p4_oracle.receive(interpreted, frame, 0)
        compiled_entry = compiled.mapping_table.get_entry(basis)
        interpreted_entry = interpreted.mapping_table.get_entry(basis)
        assert compiled_entry.hit_count == interpreted_entry.hit_count == 3
        assert compiled_entry.last_hit == interpreted_entry.last_hit

    def test_unknown_ingress_port_raises_before_anything_is_counted(self):
        compiled = _encoder()
        interpreted = _encoder()
        frame = _frame_mix(
            compiled.transform, compiled.headers, random.Random(4), 1
        )[0][0]
        for port in (32, -1, None):
            with pytest.raises(PipelineError, match="port .* out of range") as compiled_error:
                compiled.receive(frame, port)
            with pytest.raises(PipelineError) as interpreted_error:
                p4_oracle.receive(interpreted, frame, port)
            assert str(compiled_error.value) == str(interpreted_error.value)
        assert _state(compiled) == _state(interpreted)
        assert compiled.pipeline.packets_processed == 0
        assert all(stats.rx_packets == 0 for stats in _state(compiled)[1])

    @pytest.mark.parametrize(
        "basis, identifier",
        [(3, 999), (3, "i"), ("x", 1), (3, -1), (-3, 1), (1 << 300, 1), (3, 1.0)],
    )
    def test_install_rejects_what_the_wire_cannot_carry(self, basis, identifier):
        switch = ZipLineEncoderSwitch(identifier_bits=6)
        with pytest.raises(PipelineError):
            switch.install_basis_mapping(basis, identifier)
        assert switch.known_bases() == []
        switch.install_basis_mapping(3, 63)
        assert switch.known_bases() == [3]


class TestDecoderSwitchFastPath:
    @pytest.mark.parametrize("ahead", AHEAD)
    @pytest.mark.parametrize("order, prefix_bits", CONFIGS)
    def test_equivalent_over_randomized_frame_mix(self, order, prefix_bits, ahead):
        compiled = _decoder(_transform(order, prefix_bits), Simulator())
        interpreted = _decoder(_transform(order, prefix_bits), Simulator())
        frames = _frame_mix(compiled.transform, compiled.headers, random.Random(7), 500)
        _drive_twins(compiled, interpreted, frames, ahead)

    @pytest.mark.parametrize(
        "identifier, basis",
        [(1, "x"), (1, -5), (1, 1 << 300), (999, 3), (-1, 3), ("i", 3), (1, 2.0)],
    )
    def test_install_rejects_what_the_wire_cannot_carry(self, identifier, basis):
        """Table writes are validated once at install, not per packet."""
        switch = ZipLineDecoderSwitch(identifier_bits=6)
        with pytest.raises(PipelineError):
            switch.install_identifier_mapping(identifier, basis)
        assert list(switch.mapping_table.entries()) == []
        switch.install_identifier_mapping(63, (1 << switch.transform.code.k) - 1)
        assert switch.mapping_table.get_entry(63) is not None

    @pytest.mark.parametrize(
        "make_switch, command",
        [
            (
                ZipLineDecoderSwitch,
                {"op": "install_identifier", "identifier": 1, "basis": "not-an-int"},
            ),
            (
                ZipLineDecoderSwitch,
                {"op": "install_identifier", "identifier": 1 << 15, "basis": 3},
            ),
            (
                ZipLineEncoderSwitch,
                {"op": "install_basis", "basis": 3, "identifier": 1 << 15},
            ),
            (
                ZipLineEncoderSwitch,
                {"op": "install_basis", "basis": None, "identifier": 3},
            ),
        ],
    )
    def test_malformed_control_command_is_rejected_on_arrival(
        self, make_switch, command
    ):
        switch = make_switch()
        with pytest.raises(PipelineError):
            apply_switch_command(switch, command)
        assert list(switch.mapping_table.entries()) == []

    @pytest.mark.parametrize("chunk_bits", [256, 264, 272])
    def test_encode_then_decode_restores_chunks_on_both_paths(self, chunk_bits):
        """Full loop: encoder output through the decoder, compiled vs interpreted.

        A prefix wider than a byte (264, 272) runs the compiled programs
        like any other: no frame of the loop is a parse error.
        """
        rng = random.Random(99)
        transform = GDTransform(order=8, chunk_bits=chunk_bits)
        code = transform.code
        chunks = []
        for _ in range(60):
            basis = rng.getrandbits(4)
            body = code.encode(basis) ^ (1 << rng.randrange(code.n))
            chunks.append(
                ((rng.getrandbits(transform.prefix_bits) << code.n) | body).to_bytes(
                    transform.chunk_bytes, "big"
                )
            )
        wires = []
        for compiled in (True, False):
            encoder = ZipLineEncoderSwitch(transform=transform, forwarding={0: 1})
            decoder = ZipLineDecoderSwitch(transform=transform, forwarding={0: 1})
            encode = encoder.receive if compiled else _oracle(encoder)
            decode = decoder.receive if compiled else _oracle(decoder)
            wire = []
            encoder.switch.attach_port(1, lambda frame, _t: wire.append(frame))
            restored = []
            decoder.switch.attach_port(1, lambda frame, _t: restored.append(frame))
            # mirror encoder learning into the decoder's identifier table,
            # as the control plane would
            seen = {}
            for chunk in chunks:
                frame = EthernetFrame(DST, SRC, ETHERTYPE_RAW_CHUNK, chunk).to_bytes()
                _prefix, basis, _dev = transform.split_fields(chunk)
                if basis not in seen:
                    identifier = len(seen)
                    seen[basis] = identifier
                    encoder.install_basis_mapping(basis, identifier)
                    decoder.install_identifier_mapping(identifier, basis)
                encode(frame, 0)
            for frame in wire:
                decode(frame, 0)
            payloads = [frame[14 : 14 + transform.chunk_bytes] for frame in restored]
            assert payloads == chunks, f"compiled={compiled}"
            assert encoder.pipeline.parse_errors == decoder.pipeline.parse_errors == 0
            wires.append(wire)
        assert wires[0] == wires[1]


class TestForwardingValidation:
    """A bad egress port is a configuration error, not a first-packet error."""

    @pytest.mark.parametrize("make_switch", [ZipLineEncoderSwitch, ZipLineDecoderSwitch])
    def test_out_of_range_ports_are_rejected_when_configured(self, make_switch):
        with pytest.raises(PipelineError):
            make_switch(forwarding={0: 999})
        with pytest.raises(PipelineError):
            make_switch(forwarding={0: 4}, port_count=4)
        with pytest.raises(PipelineError):
            make_switch(default_egress_port=32)
        switch = make_switch(forwarding={0: 1})
        for ingress, egress in [(0, 999), (0, -1), (999, 1), (0, "1")]:
            with pytest.raises(PipelineError):
                switch.set_forwarding(ingress, egress)
        assert switch.pipeline.packets_processed == 0
        assert switch.switch.digest_engine.emitted == 0

    def test_rejected_reconfiguration_leaves_forwarding_intact(self):
        frame = EthernetFrame(DST, SRC, ETHERTYPE_RAW_CHUNK, bytes(32)).to_bytes()
        twins = []
        for compiled in (True, False):
            switch = ZipLineEncoderSwitch(forwarding={0: 1}, simulator=Simulator())
            log = _probe(switch)
            receive = switch.receive if compiled else _oracle(switch)
            with pytest.raises(PipelineError):
                switch.set_forwarding(0, 999)
            _run_frame(switch, receive, frame)
            switch.set_forwarding(0, 2)
            _run_frame(switch, receive, frame)
            assert [entry[1] for entry in log if entry[0] == "tx"] == [1, 2]
            assert [entry[0] for entry in log].count("digest") == 2
            assert switch.switch.port_stats(2).tx_packets == 1
            twins.append((log, _state(switch)))
        assert twins[0] == twins[1]

    @pytest.mark.parametrize("make_switch", [ZipLineEncoderSwitch, ZipLineDecoderSwitch])
    def test_rewiring_after_the_first_packet_applies_to_the_next(self, make_switch):
        """What ``receive`` resolved at construction never includes the
        forwarding entry or the egress sink: both are read per frame."""
        frame = EthernetFrame(DST, SRC, ETHERTYPE_RAW_CHUNK, bytes(32)).to_bytes()
        twins = []
        for compiled in (True, False):
            switch = make_switch(forwarding={0: 1}, simulator=Simulator())
            log = _probe(switch)
            receive = switch.receive if compiled else _oracle(switch)
            _run_frame(switch, receive, frame)
            switch.set_forwarding(0, 2)
            _run_frame(switch, receive, frame)
            third = []
            switch.switch.attach_port(2, lambda data, stamp: third.append((stamp, data)))
            _run_frame(switch, receive, frame)
            assert [entry[1] for entry in log if entry[0] == "tx"] == [1, 2]
            assert len(third) == 1
            assert switch.switch.port_stats(1).tx_packets == 1
            assert switch.switch.port_stats(2).tx_packets == 2
            assert switch.switch.port_stats(0).rx_packets == 3
            twins.append((log, third, _state(switch)))
        assert twins[0] == twins[1]


class TestDecoderCodewordMemo:
    """The decoder's ``basis -> codeword`` memo against the interpreted twin.

    The memo keeps at least ``SPLITS`` entries; the tests below bound it at
    four (``_codeword_limit``), so that seven distinct bases over an
    ``identifier_bits=2`` table overflow it again and again while the
    identifier table is
    installed into, replaced, removed from, written directly (the way the
    fault plan's decoder restart does) and cleared between frames.  A memo
    keyed by anything but the basis value would hand a recycled identifier
    its previous basis's codeword somewhere in here.
    """

    TRANSFORM = GDTransform(order=8)
    BASES = [random.Random(index).getrandbits(247) for index in range(7)]

    identifiers = st.integers(0, 3)
    bases = st.integers(0, len(BASES) - 1)
    syndromes = st.integers(0, 255)
    operations = st.lists(
        st.one_of(
            st.tuples(st.just("install"), identifiers, bases),
            st.tuples(st.just("remove"), identifiers),
            st.tuples(st.just("write"), identifiers, bases),
            st.tuples(st.just("clear")),
            st.tuples(st.just("type3"), identifiers, syndromes, st.integers(0, 1)),
            st.tuples(st.just("type2"), bases, syndromes, st.integers(0, 1)),
        ),
        max_size=80,
    )

    def _frame(self, ethertype, fields, padding_bits, total_bytes):
        value = 0
        for field_value, width in fields:
            value = (value << width) | field_value
        return EthernetFrame(
            DST, SRC, ethertype, (value << padding_bits).to_bytes(total_bytes, "big")
        ).to_bytes()

    def _apply(self, switch, receive, operation):
        table = switch.mapping_table
        kind = operation[0]
        if kind == "install":
            switch.install_identifier_mapping(operation[1], self.BASES[operation[2]])
        elif kind == "remove":
            switch.remove_identifier_mapping(operation[1])
        elif kind == "write":
            params = {"basis": self.BASES[operation[2]]}
            if table.get_entry(operation[1]) is None:
                table.add_entry(operation[1], "set_basis", params)
            else:
                table.modify_entry(operation[1], "set_basis", params)
        elif kind == "clear":
            table.clear()
        else:
            headers = switch.headers
            code = switch.transform.code
            if kind == "type3":
                frame = self._frame(
                    EtherType.ZIPLINE_COMPRESSED,
                    [(operation[3], 1), (operation[1], 2), (operation[2], code.m)],
                    headers.type3_padding_bits, headers.type3.total_bytes,
                )
            else:
                frame = self._frame(
                    EtherType.ZIPLINE_UNCOMPRESSED,
                    [(operation[3], 1), (self.BASES[operation[1]], code.k),
                     (operation[2], code.m)],
                    headers.type2_padding_bits, headers.type2.total_bytes,
                )
            return receive(frame, 0)
        return None

    @settings(max_examples=60, deadline=None)
    @given(operations=operations)
    def test_memo_never_outlives_what_it_was_computed_from(self, operations):
        twins = []
        for _ in range(2):
            switch = ZipLineDecoderSwitch(
                transform=self.TRANSFORM, identifier_bits=2, forwarding={0: 1}
            )
            sink = []
            switch.switch.attach_port(1, lambda frame, _t, sink=sink: sink.append(frame))
            twins.append((switch, sink))
        (compiled, compiled_sink), (interpreted, interpreted_sink) = twins
        compiled._codeword_limit = 4
        oracle = _oracle(interpreted)
        for operation in operations:
            got = self._apply(compiled, compiled.receive, operation)
            want = self._apply(interpreted, oracle, operation)
            assert got == want
            assert compiled_sink == interpreted_sink
            assert _state(compiled) == _state(interpreted)
            assert len(compiled._codewords) <= 4
        assert compiled.pipeline.parse_errors == 0

    def test_memo_overflow_and_recycled_identifier(self):
        """The deterministic core of the property above, spelled out."""
        compiled = ZipLineDecoderSwitch(
            transform=self.TRANSFORM, identifier_bits=2, forwarding={0: 1}
        )
        compiled._codeword_limit = 4
        out = []
        compiled.switch.attach_port(1, lambda frame, _t: out.append(frame))
        code = self.TRANSFORM.code

        def type3(identifier):
            headers = compiled.headers
            return self._frame(
                EtherType.ZIPLINE_COMPRESSED,
                [(0, 1), (identifier, 2), (0, code.m)],
                headers.type3_padding_bits, headers.type3.total_bytes,
            )

        for round_index, basis in enumerate(self.BASES):
            # One identifier, recycled through seven bases: more than the
            # memo holds, so it is dropped on the way.
            compiled.install_identifier_mapping(1, basis)
            compiled.receive(type3(1), 0)
            assert out[-1][14:46] == code.encode(basis).to_bytes(32, "big")
            assert len(compiled._codewords) <= 4
            assert compiled.crc_invocations == round_index + 1
        compiled.mapping_table.clear()
        assert compiled.receive(type3(1), 0) is None
        assert compiled.counters.read("unknown_identifier").packets == 1

    def test_a_small_table_keeps_splits_codewords(self):
        """A table of four identifiers recycled through seven bases (a
        working set that thrashes it) still finds every basis's codeword:
        the memo holds ``SPLITS`` entries, or one per identifier when the
        table is larger."""
        small = ZipLineDecoderSwitch(transform=self.TRANSFORM, identifier_bits=2)
        large = ZipLineDecoderSwitch(transform=self.TRANSFORM, identifier_bits=11)
        assert small._codeword_limit == SPLITS
        assert large._codeword_limit == 2**11 > SPLITS
        code = self.TRANSFORM.code
        headers = small.headers
        for _ in range(3):
            for basis in self.BASES:
                small.receive(self._frame(
                    EtherType.ZIPLINE_UNCOMPRESSED,
                    [(0, 1), (basis, code.k), (0, code.m)],
                    headers.type2_padding_bits, headers.type2.total_bytes,
                ), 0)
        assert sorted(small._codewords) == sorted(self.BASES)
        assert small.crc_invocations == 3 * len(self.BASES)


class TestDrawnFrames:
    """Hypothesis draws the frames, the mapping table and the time.

    Frame bytes are drawn whole: a runt, an EtherType followed by any
    number of bytes up to four past its header (so one byte short, exact
    and with a payload all occur), or a raw chunk one bit off a codeword
    whose basis the encoder's table may hold.  The mapping table holds a
    drawn set of entries, and each frame reaches the compiled twin at the
    clock or ahead of it.  After every frame, everything is diffed against
    the oracle, and the parse errors are exactly the frames too short for
    their header.
    """

    ETHERTYPES = [
        ETHERTYPE_RAW_CHUNK,
        EtherType.ZIPLINE_UNCOMPRESSED,
        EtherType.ZIPLINE_COMPRESSED,
        EtherType.IPV4,
    ]
    HEAD = bytes.fromhex("020000000002020000000001")
    IDENTIFIER_BITS = 4

    @staticmethod
    def _header_bytes(program, ethertype):
        headers = program.headers
        return {
            ETHERTYPE_RAW_CHUNK: headers.chunk.total_bytes,
            EtherType.ZIPLINE_UNCOMPRESSED: headers.type2.total_bytes,
            EtherType.ZIPLINE_COMPRESSED: headers.type3.total_bytes,
        }.get(ethertype, 0)

    def _frame(self, data, program):
        kind = data.draw(st.sampled_from(["bytes", "codeword", "runt"]))
        if kind == "runt":
            return data.draw(st.binary(max_size=13))
        if kind == "codeword":
            transform = program.transform
            code = transform.code
            body = code.encode(data.draw(st.integers(0, 7)))
            body ^= data.draw(st.sampled_from([0, *(1 << bit for bit in range(code.n))]))
            prefix = data.draw(st.integers(0, (1 << transform.prefix_bits) - 1))
            chunk = ((prefix << code.n) | body).to_bytes(transform.chunk_bytes, "big")
            head = self.HEAD + int(ETHERTYPE_RAW_CHUNK).to_bytes(2, "big")
            return head + chunk + data.draw(st.binary(max_size=4))
        ethertype = data.draw(st.sampled_from(self.ETHERTYPES))
        size = self._header_bytes(program, ethertype)
        return (
            self.HEAD
            + int(ethertype).to_bytes(2, "big")
            + data.draw(st.binary(max_size=size + 4))
        )

    def _programs(self, data, encoder):
        order, prefix_bits = data.draw(
            st.sampled_from([(3, 1), (3, 9), (5, 17), (8, 1), (8, 9)])
        )
        transform = _transform(order, prefix_bits)
        if encoder:
            entries = data.draw(
                st.dictionaries(st.integers(0, 7), st.integers(0, 15), max_size=6)
            )
        else:
            bases = st.one_of(
                st.integers(0, 7), st.integers(0, (1 << transform.code.k) - 1)
            )
            entries = data.draw(
                st.dictionaries(st.integers(0, 15), bases, max_size=12)
            )
        twins = []
        for _ in range(2):
            make = ZipLineEncoderSwitch if encoder else ZipLineDecoderSwitch
            program = make(
                transform=transform,
                identifier_bits=self.IDENTIFIER_BITS,
                forwarding={0: 1},
                simulator=Simulator(),
            )
            for key, value in entries.items():
                if encoder:
                    program.install_basis_mapping(key, value)
                else:
                    program.install_identifier_mapping(key, value)
            twins.append(program)
        return twins

    @pytest.mark.parametrize("encoder", [True, False], ids=["encoder", "decoder"])
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_drawn_frames_match_the_oracle(self, encoder, data):
        compiled, interpreted = self._programs(data, encoder)
        compiled_log, interpreted_log = _probe(compiled), _probe(interpreted)
        oracle = _oracle(interpreted)
        short = 0
        for _ in range(data.draw(st.integers(1, 6))):
            frame = self._frame(data, compiled)
            ahead = data.draw(st.sampled_from([0.0, 5e-6]))
            size = self._header_bytes(compiled, int.from_bytes(frame[12:14], "big"))
            short += len(frame) < ETHERNET_BYTES + size
            got = _run_frame(
                compiled, compiled.receive, frame, ahead=ahead, early=bool(ahead)
            )
            want = _run_frame(interpreted, oracle, frame, ahead=ahead)
            assert got == want
            assert compiled_log == interpreted_log
            assert _state(compiled) == _state(interpreted)
            compiled_log.clear()
            interpreted_log.clear()
        assert compiled.pipeline.parse_errors == short


class _TrainSink:
    """A port sink that takes trains as lists (``takes_trains``), logging
    what it is handed as :func:`_probe`'s sinks do.

    A frame handed on alone or in a list is logged in an event at its
    stamp, where an untimed port's transmit event would log it, so a log
    reads the same whichever way its frames left the program."""

    takes_trains = True

    def __init__(self, log, port, simulator):
        self.log, self.port, self.simulator = log, port, simulator

    def __call__(self, frame, stamp):
        self.log.append(("tx", self.port, stamp, frame))

    def cross(self, frames, stamps, keys):
        for frame, stamp in zip(frames, stamps):
            self.simulator.schedule_at(
                stamp, lambda frame=frame, stamp=stamp: self(frame, stamp)
            )


def _batch_twins(make, order, prefix_bits, ahead, count=300):
    """Three twins of one program over one frame mix, run to the end:
    through ``receive_batch``, through ``receive`` frame by frame, and
    through the oracle, each frame in an event at its instant.

    The list arrives in one event at ``T``; frame ``i`` reaches the program
    at ``T + i * 1e-6`` (``ahead``) or at ``T``.  Where the encoder's list
    stops before a miss, that frame runs through ``receive`` and the rest
    of the list through ``receive_batch`` again, as a train's crossing
    leaves a miss to run frame by frame.  What each twin returned, its
    egress hand-offs and digests in the order they landed, and its final
    state."""
    transform = _transform(order, prefix_bits)
    twins = [make(transform, Simulator()) for _ in range(3)]
    logs = [_probe(twin, trains=index == 0) for index, twin in enumerate(twins)]
    frames = [
        frame
        for frame, _ in _frame_mix(transform, twins[0].headers, random.Random(11), count)
    ]
    start = 1e-3
    times = [start + index * 1e-6 if ahead else start for index in range(count)]
    keys = [(time, index, index, None) for index, time in enumerate(times)]
    batched, framed, interpreted = twins
    returned = [[], [], []]

    def run_batch():
        at = 0
        while at < count:
            outs = batched.receive_batch(frames[at:], 0, times[at:], keys[at:])
            returned[0].extend(outs)
            at += len(outs)
            if at < count:
                returned[0].append(batched.receive(frames[at], 0, times[at]))
                at += 1

    def run_framed():
        for frame, time in zip(frames, times):
            returned[1].append(framed.receive(frame, 0, time))

    batched.simulator.schedule_at(start, run_batch)
    framed.simulator.schedule_at(start, run_framed)
    oracle = _oracle(interpreted)
    for frame, time in zip(frames, times):
        interpreted.simulator.schedule_at(
            time, lambda frame=frame: returned[2].append(oracle(frame, 0))
        )
    for twin in twins:
        twin.simulator.run()
    return [
        (returned[index], logs[index], _state(twins[index]))
        for index in range(3)
    ]


class TestReceiveBatch:
    """``receive_batch`` runs the compiled ingress over a list, then hands
    the outputs on as one list: what it returns, what leaves each port
    (stamps included), every digest (emitted and delivered when), the order
    all of them land in, and every counter equal frame-by-frame ``receive``
    and the oracle, over mixed EtherTypes, runts and table misses, at the
    clock and ahead of it."""

    @pytest.mark.parametrize("ahead", [False, True], ids=["at-clock", "ahead"])
    @pytest.mark.parametrize("order, prefix_bits", CONFIGS)
    @pytest.mark.parametrize("make", [_encoder, _decoder], ids=["encoder", "decoder"])
    def test_a_list_is_what_receive_gives_frame_by_frame(
        self, make, order, prefix_bits, ahead
    ):
        batched, framed, interpreted = _batch_twins(make, order, prefix_bits, ahead)
        assert batched == framed == interpreted
        outs, log, state = batched
        assert None in outs and any(out is not None for out in outs)
        assert any(entry[0] == "tx" for entry in log)
        if make is _encoder:
            # Misses, their digests stamped with each frame's own instant.
            digests = [entry[1] for entry in log if entry[0] == "digest"]
            assert digests
            assert len({message.emitted_at for message in digests}) == (
                len(digests) if ahead else 1
            )
        assert state[2][2] > 0  # runts: parse errors

    def test_an_unknown_port_raises_before_anything_is_counted(self):
        switch, twin = _encoder(), _encoder()
        frames = [frame for frame, _ in _frame_mix(switch.transform, switch.headers, random.Random(4), 20)]
        times, keys = [0.0] * len(frames), [(0.0, 0, 0, None)] * len(frames)
        with pytest.raises(PipelineError, match="port .* out of range"):
            switch.receive_batch(frames, 32, times, keys)
        assert _state(switch) == _state(twin)
        assert switch.receive_batch([], 0, [], []) == []
        assert _state(switch) == _state(twin)

    def test_the_splits_leading_hits_judged_are_taken_not_split_again(self):
        """Handed back to the list ingress, what ``leading_hits`` split of
        each chunk is taken as it is: no chunk reaches the CRC byte loop a
        second time, and outputs and state equal a twin's that judged
        nothing ahead."""
        switch, twin = _encoder(), _encoder()
        mix = [frame for frame, _ in _frame_mix(switch.transform, switch.headers, random.Random(6), 300)]
        frames = [frame for frame in mix if switch.leading_hits([frame])]
        judged = switch.leading_hits(frames)
        assert len(judged) == len(frames)
        assert sum(split is not None for split in judged) > 10
        split_again = []
        remainder = switch._remainder
        switch._remainder = lambda chunk: split_again.append(chunk) or remainder(chunk)
        count = len(frames)
        outs = switch.ingress_batch(frames, [0] * count, [0.0] * count, None, judged)
        assert split_again == []
        assert outs == twin.ingress_batch(frames, [0] * count, [0.0] * count)
        assert _state(switch) == _state(twin)

    def test_a_train_stops_before_a_miss(self):
        """The encoder's list ingress runs the frames before the first one
        its table misses, and nothing of that one."""
        switch, twin = _encoder(), _encoder()
        frames = [frame for frame, _ in _frame_mix(switch.transform, switch.headers, random.Random(5), 200)]
        outs = switch.ingress_batch(frames, [0] * len(frames), [0.0] * len(frames))
        assert 0 < len(outs) < len(frames)
        assert len(switch.leading_hits(frames)) == len(outs)
        assert outs == [p4_oracle.receive(twin, frame, 0) for frame in frames[: len(outs)]]
        # Everything but the egress, which the ingress leaves to ``hand_on``.
        got, want = _state(switch), _state(twin)
        assert got[0] == want[0] and got[2:] == want[2:]
        assert [(port.rx_packets, port.rx_bytes) for port in got[1]] == [
            (port.rx_packets, port.rx_bytes) for port in want[1]
        ]
        assert switch.switch.digest_engine.emitted == 0
