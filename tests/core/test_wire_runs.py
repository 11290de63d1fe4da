"""The run-wise GDZ1 reader equals the per-record loop, attacked on purpose.

:func:`repro.core.wire.parse_records` — the loop — is the oracle.  Its two
re-implementations must return the same columns and the same next offset,
or raise the same :class:`CodingError` message, on every input:
:func:`repro.core.wire.scan_records` (stdlib only: runs of type-3 records
found by strided slices, fields left to the caller) and the ``numpy``
backend's ``parse_records`` built on it (one gather per call).  Bodies are
generated at byte level, so payloads freely contain the bytes that look
like structure: ``0x02``, ``0x03`` and ``END_TAG``.
"""

import inspect
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import wire
from repro.core.backends import MIN_BATCH_CHUNKS, get_backend
from repro.core.codec import GDCodec
from repro.core.transform import GDTransform
from repro.core.wire import END_TAG, RecordLayout, pack_trailer, parse_records
from repro.exceptions import CodingError

NUMPY = get_backend("numpy")

#: orders {3, 8} × prefix bits {0, 1, 9} × alignment padding {0, 8}; the
#: identifier width differs per order so type-3 rows are 2..5 bytes wide.
LAYOUTS = [
    RecordLayout(prefix_bits, (1 << order) - 1 - order, identifier_bits, order, padding)
    for order, identifier_bits in ((3, 4), (8, 15))
    for prefix_bits in (0, 1, 9)
    for padding in (0, 8)
]

#: Payload alphabets: bytes that look like tags and the trailer, then noise.
_FILLERS = (b"\x03", b"\x00", b"\x02", b"\x00\x02\x03", bytes(range(256)))


def _sizes(layout):
    return layout.t2_padded // 8, layout.t3_padded // 8


def _body(layout, runs, rng):
    """``runs`` = ``(tag, length, filler)`` → (body bytes, record offsets)."""
    size2, size3 = _sizes(layout)
    parts, offsets, at = [], [], 0
    for tag, length, filler in runs:
        size = size3 if tag == 3 else size2
        for _ in range(length):
            offsets.append(at)
            parts.append(bytes([tag]) + bytes(rng.choices(filler, k=size)))
            at += 1 + size
    return b"".join(parts), offsets


def _via_scan(layout, data, offset, limit, streamed):
    """The loop's five-tuple rebuilt from :func:`wire.scan_records`: one
    type-3 sized row per record, a type-2 record's key from ``bases``."""
    rows, bases, next_offset = wire.scan_records(layout, data, offset, limit, streamed)
    stride = 1 + layout.t3_padded // 8
    assert len(rows) % stride == 0
    type2 = iter(bases)
    tags, prefixes, keys, deviations = bytearray(), [], [], []
    for at in range(0, len(rows), stride):
        tag = rows[at]
        assert tag in (2, 3)
        value = int.from_bytes(rows[at + 1 : at + stride], "big")
        tags.append(tag)
        deviations.append(value & ((1 << layout.deviation_bits) - 1))
        value >>= layout.deviation_bits
        identifier = value & ((1 << layout.identifier_bits) - 1)
        assert tag == 3 or identifier == 0
        keys.append(identifier if tag == 3 else next(type2))
        prefixes.append(
            (value >> layout.identifier_bits) & ((1 << layout.prefix_bits) - 1)
        )
    assert next(type2, None) is None
    return tags, prefixes, keys, deviations, next_offset


def _via_numpy(layout, data, offset, limit, streamed):
    return NUMPY.parse_records(layout, data, offset, limit, streamed)


READERS = [_via_scan] + ([_via_numpy] if NUMPY.available() else [])


def _outcome(reader, layout, data, offset, limit, streamed):
    try:
        tags, prefixes, keys, deviations, next_offset = reader(
            layout, data, offset, limit, streamed
        )
    except CodingError as error:
        return str(error)
    assert type(tags) is bytearray and type(keys) is list
    # An identifier per type-3 record, a basis row per type-2 record.
    width = (layout.basis_bits + 7) // 8
    assert all(
        type(key) is int if tag == 3 else type(key) is bytes and len(key) == width
        for tag, key in zip(tags, keys)
    )
    plain = [
        column if type(column) is list else column.tolist()
        for column in (prefixes, deviations)
    ]
    return bytes(tags), plain[0], keys, plain[1], next_offset


def _assert_readers_agree(layout, data, offset=0, limit=None, streamed=False):
    expected = _outcome(parse_records, layout, data, offset, limit, streamed)
    for reader in READERS:
        assert _outcome(reader, layout, data, offset, limit, streamed) == expected, (
            reader.__name__
        )
    return expected


def _mixed_runs(rng, count=12, longest=40):
    return [
        (rng.choice((2, 3, 3)), rng.randint(1, longest), rng.choice(_FILLERS))
        for _ in range(count)
    ]


@st.composite
def _cases(draw):
    layout = draw(st.sampled_from(LAYOUTS))
    runs = draw(
        st.lists(
            st.tuples(
                st.sampled_from((2, 3, 3)),
                st.integers(1, 70),
                st.sampled_from(_FILLERS),
            ),
            max_size=8,
        )
    )
    rng = random.Random(draw(st.integers(0, 2**32)))
    body, offsets = _body(layout, runs, rng)
    streamed = draw(st.booleans())
    trailer = pack_trailer(rng.randrange(1 << 40))
    tail = draw(
        st.sampled_from((b"", trailer, b"\x00", b"\x01", b"\x03", b"\x02\x02"))
    )
    lead = bytes(rng.choices(b"\x00\x02\x03\xff", k=draw(st.integers(0, 5))))
    count = len(offsets)
    limit = draw(
        st.sampled_from((None, 0, 1, count - 1, count, count + 1))
        | st.integers(0, count + 1)
    )
    wrap = draw(st.sampled_from((bytes, bytearray, memoryview)))
    return layout, wrap(lead + body + tail), len(lead), limit, streamed


class TestEquivalence:
    @given(_cases())
    @settings(max_examples=300, deadline=None)
    def test_any_body_any_stop(self, case):
        _assert_readers_agree(*case)

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("streamed", (False, True))
    def test_every_cut_of_the_last_two_records(self, layout, streamed):
        rng = random.Random(layout.t2_bits * 2 + streamed)
        body, offsets = _body(layout, _mixed_runs(rng), rng)
        for wrap in (bytes, bytearray, memoryview):
            for cut in range(offsets[-2], len(body) + 1):
                expected = _assert_readers_agree(
                    layout, wrap(b"\x03\xff" + body[:cut]), 2, None, streamed
                )
                assert expected[-1] <= cut + 2

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_limits_around_every_run_boundary(self, layout):
        rng = random.Random(layout.t3_bits)
        runs = _mixed_runs(rng, count=6, longest=30)
        body, offsets = _body(layout, runs, rng)
        count = len(offsets)
        boundaries = {0, 1, count, count + 1}
        edge = 0
        for _tag, length, _filler in runs:
            edge += length
            boundaries.update((edge - 1, edge, edge + 1))
        for limit in sorted(boundaries) + [None, -1]:
            for streamed in (False, True):
                expected = _assert_readers_agree(layout, body, 0, limit, streamed)
                if limit is not None:
                    assert len(expected[0]) == max(0, min(limit, count))

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_one_mutated_byte_anywhere(self, layout):
        """Same columns or the same ``CodingError`` message, byte for byte."""
        rng = random.Random(layout.t2_padded)
        body, _offsets = _body(layout, _mixed_runs(rng, count=8, longest=20), rng)
        body += pack_trailer(len(body))
        positions = range(len(body)) if len(body) < 400 else rng.sample(
            range(len(body)), 400
        )
        errors = 0
        for position in positions:
            for value in (0x00, 0x02, 0x03, rng.randrange(256)):
                mutated = bytearray(body)
                mutated[position] = value
                for streamed in (False, True):
                    outcome = _assert_readers_agree(
                        layout, bytes(mutated), 0, None, streamed
                    )
                    errors += isinstance(outcome, str)
        assert errors  # the unstreamed reads all stop at the trailer's tag

    def test_unknown_tag_message_names_tag_and_offset(self):
        layout = LAYOUTS[-1]
        rng = random.Random(1)
        body, offsets = _body(layout, [(3, 40, b"\x03"), (2, 2, b"\x02")], rng)
        data = b"\xff" * 7 + body + b"\x07"
        expected = f"unknown record tag 7 at offset {7 + len(body)}"
        assert _assert_readers_agree(layout, data, 7) == expected
        # …unless the limit stops the reader first.
        assert len(_assert_readers_agree(layout, data, 7, len(offsets))[0]) == 42


class TestLookAlikes:
    """Payload bytes that look like structure are payload."""

    LAYOUT = RecordLayout(1, 247, 15, 8, 0)

    def _agree(self, runs, tail=b"", streamed=True):
        rng = random.Random(0)
        body, offsets = _body(self.LAYOUT, runs, rng)
        tags, *_rest, next_offset = _assert_readers_agree(
            self.LAYOUT, body + tail, 0, None, streamed
        )
        assert len(tags) == len(offsets) and next_offset == len(body)
        return tags

    def test_type2_payload_made_of_type3_tags(self):
        tags = self._agree([(3, 20, b"\x03"), (2, 3, b"\x03"), (3, 20, b"\x02")])
        assert tags == b"\x03" * 20 + b"\x02" * 3 + b"\x03" * 20

    def test_type3_payload_made_of_tag_bytes(self):
        for filler in (b"\x00", b"\x02", b"\x03"):
            self._agree([(3, 50, filler), (2, 1, filler), (3, 1, filler)])

    def test_end_tag_as_a_payload_byte(self):
        for streamed in (False, True):
            self._agree([(2, 2, b"\x00"), (3, 33, b"\x00")], streamed=streamed)

    def test_trailer_directly_after_a_type2_run(self):
        self._agree([(3, 17, b"\x03\x02"), (2, 4, b"\x02")], tail=pack_trailer(21 * 32))
        # The same bytes unstreamed: tag 0 is unknown there.
        rng = random.Random(0)
        body, _ = _body(self.LAYOUT, [(2, 4, b"\x02")], rng)
        outcome = _assert_readers_agree(self.LAYOUT, body + pack_trailer(128))
        assert outcome == f"unknown record tag {END_TAG} at offset {len(body)}"


def _loop_iterations(function, *args):
    """Run ``function`` counting how often ``scan_records``' record loop
    tests its condition, and the C calls made anywhere below it."""
    code = wire.scan_records.__code__
    source, first = inspect.getsourcelines(wire.scan_records)
    header = first + next(
        index for index, line in enumerate(source) if "while offset < total" in line
    )
    counts = {"loop": 0, "c_calls": 0}

    def local(frame, event, _arg):
        if event == "line" and frame.f_lineno == header:
            counts["loop"] += 1
        return local

    def tracer(frame, event, _arg):
        return local if event == "call" and frame.f_code is code else None

    def profiler(_frame, event, _arg):
        counts["c_calls"] += event == "c_call"

    sys.settrace(tracer)
    sys.setprofile(profiler)
    try:
        result = function(*args)
    finally:
        sys.setprofile(None)
        sys.settrace(None)
    return result, counts


@pytest.mark.skipif(not NUMPY.available(), reason="numpy backend not available")
class TestNumpyServedParse:
    LAYOUT = RecordLayout(1, 247, 15, 8, 0)

    def test_no_bytecode_per_type3_record(self):
        """The record loop runs once per run of type-3 records and once per
        type-2 record — 60 + 80 times for 30,120 records — and the C calls
        of the whole parse do not scale with the type-3 records either."""
        rng = random.Random(5)
        runs = []
        for _ in range(20):
            runs += [(3, 1000, bytes(range(256))), (2, 1, b"\x03"), (3, 2, b"\x03")]
            runs += [(2, 2, b"\x02"), (3, 500, b"\x00"), (2, 1, b"\x00")]
        body, offsets = _body(self.LAYOUT, runs, rng)
        expected = parse_records(self.LAYOUT, body, 0)
        result, counts = _loop_iterations(NUMPY.parse_records, self.LAYOUT, body, 0)
        assert bytes(result[0]) == bytes(expected[0]) and result[2] == expected[2]
        type3_runs, type2_records = 60, 80
        assert len(offsets) == 30120
        # One more test of the condition ends the loop.
        assert counts["loop"] == type3_runs + type2_records + 1
        assert counts["c_calls"] < 30 * (type3_runs + type2_records)

    def test_arrays_only_reach_the_join_that_reads_them(self):
        """Below the batch floor the join gate picks ``pure``: lists."""
        rng = random.Random(9)
        for count in range(0, 3 * MIN_BATCH_CHUNKS):
            runs = [(3, count, b"\x03\x07"), (2, 1, b"\x02")]
            body, _ = _body(self.LAYOUT, runs, rng)
            _tags, prefixes, keys, deviations, _end = NUMPY.parse_records(
                self.LAYOUT, body, 0
            )
            served_by_numpy = count + 1 >= MIN_BATCH_CHUNKS
            assert (type(prefixes) is list) is not served_by_numpy
            assert (type(deviations) is list) is not served_by_numpy
            assert type(keys) is list

    @pytest.mark.parametrize("order", (3, 5, 8))
    @pytest.mark.parametrize("extra_bits", (0, 1, 8, 9, 17, 25, 33))
    @pytest.mark.parametrize("identifier_bits", (4, 15, 40, 60))
    def test_supported_layouts_are_joinable(self, order, extra_bits, identifier_bits):
        """``supports_records`` ⇒ ``supports_join``: what parse hands on as
        arrays, the same backend's join accepts."""
        transform = GDTransform(
            order=order, chunk_bits=(1 << order) - 1 + extra_bits, backend="numpy"
        )
        layout = RecordLayout(
            transform.prefix_bits, transform.basis_bits, identifier_bits, order, 0
        )
        if NUMPY.supports_records(layout):
            assert NUMPY.supports_join(transform)
            assert layout.t3_padded <= 64

    @pytest.mark.parametrize("identifier_bits", (1, 7, 8, 15, 16, 31, 39, 40))
    @pytest.mark.parametrize("chunk_bits", (256, 264, 279))
    def test_every_row_width_packs_and_parses_like_the_loop(
        self, identifier_bits, chunk_bits
    ):
        """Type-3 rows of 2..8 payload bytes (8: no spare byte for the tag)."""
        rng = random.Random(identifier_bits * chunk_bits)
        size = (chunk_bits + 7) // 8
        bases = [rng.getrandbits(chunk_bits) for _ in range(5)]
        data = b"".join(
            (rng.choice(bases) ^ (1 << rng.randrange(255))).to_bytes(size, "big")
            for _ in range(120)
        )
        blobs = [
            GDCodec(
                chunk_bits=chunk_bits, identifier_bits=identifier_bits, backend=name
            ).compress_to_container(data)
            for name in ("pure", "numpy")
        ]
        assert blobs[0] == blobs[1]
        for name in ("pure", "numpy"):
            codec = GDCodec(
                chunk_bits=chunk_bits, identifier_bits=identifier_bits, backend=name
            )
            assert codec.decompress_container(blobs[0]) == data
        layout = codec.encoder.layout
        assert NUMPY.supports_records(layout) == (
            layout.t3_padded <= 64 and chunk_bits % 8 == 0
        )
        _assert_readers_agree(layout, blobs[0], 24)

    def test_codec_round_trip_through_the_dispatch(self):
        """Containers whose record count straddles the floor, every reader."""
        rng = random.Random(3)
        for chunks in (1, MIN_BATCH_CHUNKS - 1, MIN_BATCH_CHUNKS, 200):
            data = bytes(rng.choices(b"\x00\x01", k=32 * chunks))
            blobs = {
                name: GDCodec(backend=name).compress_to_container(data)
                for name in ("pure", "numpy")
            }
            assert blobs["pure"] == blobs["numpy"]
            for name in ("pure", "numpy"):
                assert GDCodec(backend=name).decompress_container(blobs[name]) == data
