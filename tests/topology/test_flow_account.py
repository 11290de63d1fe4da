"""The one FIFO content matcher, driven directly.

``FlowAccount`` serves both metrics modes; the only retention choice it
sees is the latency distribution it is handed (exact or bounded).  The
script below feeds it duplicates, loss, reordering and a corrupt payload
and checks the verdict and the latency samples in both settings.
"""

import pytest

from repro.replay.metrics import Distribution, IntegrityResult
from repro.topology.flows import FlowAccount
from repro.zipline.headers import RAW_CHUNK_ETHERTYPE_BYTES

from recorded_samples import recorded_samples

HEADER = bytes(12) + RAW_CHUNK_ETHERTYPE_BYTES


def frame(payload: bytes) -> bytes:
    return HEADER + payload


A, B, C, D = (bytes([value]) * 32 for value in (1, 2, 3, 4))

#: (payload, sent at) — A is sent three times.
SENT = [(A, 0.0), (B, 1.0), (A, 2.0), (C, 3.0), (A, 4.0), (D, 5.0)]

#: (frame, arrived at).  B overtakes the first A (reordering); the second A
#: is lost, so the last arrival of A matches the *second* copy sent (FIFO);
#: one arrival carries a payload nobody sent; one is not a raw chunk.
ARRIVALS = [
    (frame(B), 10.0),
    (frame(A), 11.0),
    (frame(bytes([9]) * 32), 12.0),
    (frame(C), 13.0),
    (bytes(12) + b"\x88\xb5" + C, 13.5),
    (frame(A), 14.0),
    (frame(D), 15.0),
]

#: One latency per match, in arrival order.
LATENCIES = [10.0 - 1.0, 11.0 - 0.0, 13.0 - 3.0, 14.0 - 2.0, 15.0 - 5.0]


def run_script(bounded: bool) -> FlowAccount:
    account = FlowAccount(Distribution("flow.f.latency", bounded=bounded))
    for payload, at in SENT:
        account.record_sent(frame(payload), at)
    for data, at in ARRIVALS:
        account.record_arrival(data, at)
    return account


@pytest.mark.parametrize("bounded", [False, True])
def test_verdict_is_the_same_in_both_retention_settings(bounded):
    account = run_script(bounded)
    assert account.integrity() == IntegrityResult(
        sent=6,
        received=6,  # the non-chunk frame is not a received chunk
        matched=5,
        corrupted=1,
        missing=1,
        # A#0 arrived after B, which was sent later.  The last A to arrive
        # is FIFO-attributed to copy #2 (sent before C) although any copy may
        # have been the lost one: the documented upper bound on lossy runs.
        out_of_order=2,
    )
    # Only the lost copy is still waiting; matched payloads left the table.
    assert set(account.pending) == {A}
    assert [index for index, _sent_at in account.pending[A]] == [4]


def test_exact_retention_keeps_latencies_in_arrival_order():
    assert recorded_samples(run_script(bounded=False).latency) == LATENCIES


def test_bounded_retention_keeps_the_exact_aggregates():
    latency = run_script(bounded=True).latency
    summary = latency.summary()
    assert summary["count"] == len(LATENCIES)
    assert summary["min"] == min(LATENCIES)
    assert summary["max"] == max(LATENCIES)
    # Same values folded in the same order: the mean is bit-identical.
    assert summary["mean"] == sum(LATENCIES) / len(LATENCIES)


def test_no_chunk_sent_means_no_verdict():
    account = FlowAccount(Distribution("flow.f.latency"))
    account.record_arrival(frame(A), 1.0)
    assert account.integrity() is None
    assert account.corrupted == 1
