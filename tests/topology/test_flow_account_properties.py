"""``FlowAccount`` against a reference content-index matcher, over drawn
scripts.

The account keeps its chunks in flight in send order while every arrival
takes the oldest of them, and moves them into its content index at the
first arrival that does not.  The reference below keeps only the content
index: every sent chunk waits under its payload, and an arrival pops the
oldest waiting copy of its own.  A drawn script sends chunks (repeated
payloads among them) and delivers frames — the oldest chunk in flight,
any sent payload again (reordering, duplicates), a payload nobody sent,
a frame that is not a raw chunk — with loss wherever a chunk is never
delivered.  Each run of arrivals is fed one frame at a time, as one list
or as several, as the draw says.  After every step the account and the
reference agree on the verdict and on what is in flight, and at the end
on every latency sample in order (exact) and on the bounded sketch bit
for bit.
"""

import struct
from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.replay.metrics import Distribution
from repro.topology.flows import FlowAccount
from repro.zipline.headers import RAW_CHUNK_ETHERTYPE_BYTES

from recorded_samples import recorded_samples

HEADER = bytes(12) + RAW_CHUNK_ETHERTYPE_BYTES

#: A few payloads, so that a script repeats them.
PAYLOADS = [bytes([value]) * 8 for value in range(4)]

#: A payload no script sends.
UNKNOWN = b"\xee" * 8


def frame(payload: bytes) -> bytes:
    return HEADER + payload


class ReferenceAccount:
    """FIFO content matching with the content index alone."""

    def __init__(self) -> None:
        self.pending = {}
        self.sent = self.received = self.matched = 0
        self.corrupted = self.out_of_order = 0
        self.highest = -1
        self.samples = []

    def send(self, data: bytes, now: float) -> None:
        self.pending.setdefault(data[14:], deque()).append((self.sent, now))
        self.sent += 1

    def arrive(self, data: bytes, time: float) -> None:
        if data[12:14] != RAW_CHUNK_ETHERTYPE_BYTES:
            return
        self.received += 1
        queue = self.pending.get(data[14:])
        if not queue:
            self.corrupted += 1
            return
        index, sent_time = queue.popleft()
        if not queue:
            del self.pending[data[14:]]
        self.matched += 1
        if index < self.highest:
            self.out_of_order += 1
        self.highest = max(self.highest, index)
        self.samples.append(time - sent_time)

    def oldest(self):
        """The payload of the oldest chunk in flight, if any."""
        waiting = [(queue[0][0], payload) for payload, queue in self.pending.items()]
        return min(waiting)[1] if waiting else None

    def verdict(self):
        return (
            self.sent,
            self.received,
            self.matched,
            self.corrupted,
            self.sent - self.matched,
            self.out_of_order,
        )


def verdict(account: FlowAccount):
    return (
        account.sent,
        account.received,
        account.matched,
        account.corrupted,
        account.sent - account.matched,
        account.out_of_order,
    )


def in_flight(account: FlowAccount):
    """The account's chunks in flight as a content index: ``pending``,
    or the in-order chunks keyed by payload (never both)."""
    assert not (account.pending and account.in_order)
    index = {payload: list(queue) for payload, queue in account.pending.items()}
    for data, number, sent_at in account.in_order:
        index.setdefault(data[14:], []).append((number, sent_at))
    return index


#: One step of a script: send a payload, or deliver a run of frames,
#: each run split into the pieces it is fed as (a piece of one frame
#: through ``record_arrival``, a longer one through ``record_arrivals``).
SEND = st.tuples(st.just("send"), st.sampled_from(PAYLOADS))
ARRIVAL = st.one_of(
    st.just(("oldest", None)),
    st.just(("oldest", None)),
    st.tuples(st.just("payload"), st.sampled_from(PAYLOADS)),
    st.just(("payload", UNKNOWN)),
    st.just(("other", None)),
)
DELIVER = st.tuples(
    st.just("deliver"),
    st.lists(ARRIVAL, min_size=1, max_size=8),
    st.lists(st.integers(min_value=0, max_value=8), max_size=3),
    st.booleans(),
)
SCRIPTS = st.lists(st.one_of(SEND, SEND, DELIVER), max_size=40)


def _run(script, bounded):
    account = FlowAccount(Distribution("flow.f.latency", bounded=bounded))
    reference = ReferenceAccount()
    clock = 0.0
    for step in script:
        if step[0] == "send":
            clock += 1.0
            account.record_sent(frame(step[1]), clock)
            reference.send(frame(step[1]), clock)
        else:
            _kind, arrivals, cuts, one_by_one = step
            frames, times = [], []
            for kind, payload in arrivals:
                clock += 0.25
                if kind == "oldest":
                    payload = reference.oldest()
                    if payload is None:
                        continue
                    data = frame(payload)
                elif kind == "payload":
                    data = frame(payload)
                else:
                    data = bytes(12) + b"\x88\xb5" + PAYLOADS[0]
                # The reference decides "oldest" as it goes, so it matches
                # as soon as the frame is drawn.
                reference.arrive(data, clock)
                frames.append(data)
                times.append(clock)
            if one_by_one:
                for data, time in zip(frames, times):
                    account.record_arrival(data, time)
            else:
                bounds = sorted({0, len(frames), *(cut for cut in cuts if cut < len(frames))})
                for start, stop in zip(bounds, bounds[1:]):
                    if stop - start == 1:
                        account.record_arrival(frames[start], times[start])
                    else:
                        account.record_arrivals(list(zip(frames[start:stop], times[start:stop])))
        assert verdict(account) == reference.verdict()
        assert in_flight(account) == {
            payload: list(queue) for payload, queue in reference.pending.items()
        }
        if not account.in_order:
            assert account.pending == reference.pending
    return account, reference


def _bits(value):
    return None if value is None else struct.pack("<d", value)


@given(script=SCRIPTS)
@settings(max_examples=300, deadline=None)
def test_exact_samples_match_the_reference_in_arrival_order(script):
    account, reference = _run(script, bounded=False)
    assert recorded_samples(account.latency) == reference.samples
    if reference.sent:
        integrity = account.integrity()
        assert (
            integrity.sent,
            integrity.received,
            integrity.matched,
            integrity.corrupted,
            integrity.missing,
            integrity.out_of_order,
        ) == reference.verdict()


@given(script=SCRIPTS)
@settings(max_examples=200, deadline=None)
def test_bounded_aggregates_match_the_reference_bit_for_bit(script):
    account, reference = _run(script, bounded=True)
    expected = Distribution("expected", bounded=True)
    for sample in reference.samples:
        expected.add(sample)
    latency = account.latency
    assert (
        latency._count,
        _bits(latency._sum),
        _bits(latency._min),
        _bits(latency._max),
        latency._zero,
        latency._positive,
        latency._negative,
    ) == (
        expected._count,
        _bits(expected._sum),
        _bits(expected._min),
        _bits(expected._max),
        expected._zero,
        expected._positive,
        expected._negative,
    )


def test_in_order_arrivals_never_build_the_content_index():
    """Arrivals that each take the oldest chunk in flight match with one
    comparison: the content index stays empty."""
    account = FlowAccount(Distribution("flow.f.latency"))
    for at, payload in enumerate(PAYLOADS * 2):
        account.record_sent(frame(payload), float(at))
    account.record_arrivals([(frame(payload), 10.0) for payload in PAYLOADS])
    for payload in PAYLOADS:
        account.record_arrival(frame(payload), 11.0)
    assert account.pending == {} and not account.in_order
    assert account.matched == 8 and account.out_of_order == 0
    # One arrival out of order moves what is in flight into the index.
    account.record_sent(frame(PAYLOADS[0]), 12.0)
    account.record_sent(frame(PAYLOADS[1]), 13.0)
    account.record_arrival(frame(PAYLOADS[1]), 14.0)
    assert not account.in_order
    assert account.pending == {PAYLOADS[0]: deque([(8, 12.0)])}
