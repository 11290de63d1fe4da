"""End-to-end runs of the linear chain: a ``linear_topology`` spec through
``TopologyEngine``, with the caller's in-memory source."""

from array import array
from collections import deque

import pytest

from repro.core.transform import GDTransform
from repro.exceptions import TopologyError
from repro.net.ethernet import EthernetFrame
from repro.net.pcap import PcapPacket, write_pcap
from repro.replay import (
    BackToBackPacing,
    ChunkTraceSource,
    FixedRatePacing,
    PcapTraceSource,
    WorkloadTraceSource,
)
from repro.topology import TopologyEngine, linear_topology
from repro.workloads import ChunkTrace, DnsQueryWorkload, SyntheticSensorWorkload
from repro.zipline.headers import ETHERTYPE_RAW_CHUNK

from arrival_capture import capture_arrivals


@pytest.fixture()
def workload():
    # 4000 chunks at the 1 Mpkt/s replay rate give a 4 ms trace — comfortably
    # longer than the ~1.77 ms learning delay, so dynamic runs do compress.
    return SyntheticSensorWorkload(num_chunks=4000, distinct_bases=6, seed=21)


@pytest.fixture()
def trace(workload):
    return workload.trace()


def run(source, pacing=None, **params):
    """Build the chain, run ``source`` through it (1 Mpkt/s unless
    ``pacing`` says otherwise); return the engine and its report."""
    engine, report, _ = run_captured(source, pacing, **params)
    return engine, report


def run_captured(source, pacing=None, shape="encoder-link-decoder",
                 static_bases=None, metrics_mode="exact", **params):
    """:func:`run`, also returning the sink's ``(time, frame)`` deliveries."""
    engine = TopologyEngine(
        linear_topology(shape=shape, **params),
        static_bases=static_bases,
        metrics_mode=metrics_mode,
    )
    arrivals = capture_arrivals(engine)
    report = engine.run(
        sources={"flow0": (source, pacing or FixedRatePacing(packet_rate=1e6))}
    )
    return engine, report, arrivals


def payloads(arrivals):
    """The chunks in ``(time, frame)`` deliveries, in arrival order."""
    return [EthernetFrame.from_bytes(frame).payload for _, frame in arrivals]


class TestLossFreeRoundTrip:
    def test_static_scenario_is_byte_identical_in_order(self, trace):
        _engine, report, arrivals = run_captured(
            ChunkTraceSource(trace),
            scenario="static",
            static_bases=trace.distinct_bases(GDTransform(order=8)),
        )
        assert report.integrity.lossless_in_order
        assert report.chunks_sent == len(trace)
        # Static table: almost everything crosses as 3-byte type-3 packets.
        assert report.compression_ratio < 0.15
        assert payloads(arrivals) == trace.chunks

    def test_dynamic_scenario_learns_then_compresses(self, trace):
        _engine, report = run(ChunkTraceSource(trace), scenario="dynamic")
        assert report.integrity.lossless_in_order
        assert report.learning_time is not None
        assert report.learning_time > 0
        assert report.metrics.counter("encoder.raw_to_compressed") > 0
        assert report.metrics.counter("encoder.raw_to_uncompressed") > 0

    def test_no_table_scenario_never_compresses(self, trace):
        _engine, report = run(ChunkTraceSource(trace), scenario="no_table")
        assert report.integrity.lossless_in_order
        assert report.metrics.counter("wire.compressed_packets") == 0
        assert report.compression_ratio > 1.0

    def test_latency_percentiles_present(self, trace):
        _engine, report = run(ChunkTraceSource(trace), scenario="no_table")
        latency = report.latency_summary()
        assert latency["count"] == len(trace)
        assert 0 < latency["p50"] <= latency["p99"] <= latency["max"]


class TestLossyLink:
    """Dropped type-2 packets must not corrupt later decodes."""

    def test_dropped_misses_do_not_corrupt_subsequent_hits(self, trace):
        _engine, report = run(
            ChunkTraceSource(trace), scenario="dynamic", loss=0.05, link_seed=97
        )
        integrity = report.integrity
        # Loss is a counted failure mode, never silent corruption: every
        # delivered chunk is byte-identical to a sent one.
        assert integrity.corrupted == 0
        assert integrity.intact
        dropped = report.metrics.counter("link0.dropped_loss")
        assert dropped > 0
        # Every loss is accounted: missing chunks == frames the link dropped.
        assert integrity.missing == dropped
        # The learning path is unaffected by wire loss (digests travel from
        # the encoder), so compression still kicks in.
        assert report.metrics.counter("wire.compressed_packets") > 0
        assert integrity.matched == integrity.sent - dropped

    def test_lossy_run_is_deterministic_for_a_seed(self, trace):
        def lossy():
            _engine, report = run(
                ChunkTraceSource(trace), scenario="dynamic", loss=0.08, link_seed=5
            )
            return (
                report.integrity.missing,
                report.metrics.counter("link0.dropped_loss"),
                report.wire_payload_bytes,
            )

        assert lossy() == lossy()

    def test_reordering_is_counted(self, trace):
        # The hold-back delay itself is the link's (tests/replay/test_link.py).
        _engine, report = run(
            ChunkTraceSource(trace),
            scenario="static",
            static_bases=trace.distinct_bases(GDTransform(order=8)),
            reorder=0.2,
            link_seed=13,
        )
        assert report.integrity.corrupted == 0
        assert report.integrity.missing == 0
        assert report.integrity.out_of_order > 0
        assert not report.integrity.lossless_in_order


class TestBoundedQueue:
    def test_back_to_back_overload_drops_at_the_queue(self, trace):
        _engine, report = run(
            ChunkTraceSource(trace),
            BackToBackPacing(),
            scenario="no_table",
            bandwidth_gbps=1.0,
            queue_capacity=16,
        )
        assert report.metrics.counter("link0.dropped_queue") > 0
        assert report.integrity.corrupted == 0
        assert report.integrity.missing == report.metrics.counter(
            "link0.dropped_queue"
        )
        assert report.metrics.counter("link0.max_queue_depth") == 16


class TestShapes:
    def test_multi_hop_stays_lossless(self, trace):
        _engine, report = run(ChunkTraceSource(trace), scenario="dynamic", hops=3)
        assert report.integrity.lossless_in_order
        assert report.metrics.counter("link2.delivered") > 0

    def test_multi_hop_forks_independent_impairment_streams(self, trace):
        _engine, report = run(
            ChunkTraceSource(trace), scenario="no_table", hops=2, loss=0.05,
            link_seed=3,
        )
        first = report.metrics.counter("link0.dropped_loss")
        second = report.metrics.counter("link1.dropped_loss")
        assert first > 0 and second > 0
        # The second hop only sees what survived the first.
        assert report.metrics.counter("link1.offered") == report.metrics.counter(
            "link0.delivered"
        )

    def test_encoder_only_delivers_processed_packets(self, trace):
        _engine, report, arrivals = run_captured(
            ChunkTraceSource(trace), shape="encoder-only", scenario="no_table"
        )
        assert report.integrity is None
        kinds = {EthernetFrame.from_bytes(frame).ethertype for _, frame in arrivals}
        assert ETHERTYPE_RAW_CHUNK not in kinds
        assert len(arrivals) == len(trace)

    def test_decoder_only_passes_raw_chunks_through(self, trace):
        _engine, report = run(
            ChunkTraceSource(trace), shape="decoder-only", scenario="no_table"
        )
        assert report.integrity.lossless_in_order

    def test_unknown_shape_rejected(self):
        with pytest.raises(TopologyError, match="shape"):
            linear_topology(shape="ring")

    def test_static_with_a_callers_source_requires_bases(self, trace):
        engine = TopologyEngine(linear_topology(scenario="static"))
        with pytest.raises(TopologyError, match="explicit static_bases"):
            engine.run(
                sources={"flow0": (ChunkTraceSource(trace), FixedRatePacing(1e6))}
            )

    def test_hops_must_be_positive(self):
        with pytest.raises(TopologyError, match="hops"):
            linear_topology(hops=0)


class TestHopsSeedRegression:
    """`--hops N` output is byte-identical to the pre-refactor behaviour.

    The golden numbers below were captured from the seed implementation
    (ad hoc link-chain construction, commit a368dae) on the exact workload
    and impairment seeds used here; the chain now comes from
    ``repro.topology.build_link_chain`` and must reproduce every counter,
    byte total and integrity field to the last bit.
    """

    GOLDEN = {
        "chunks_sent": 600,
        "payload_bytes_sent": 19200,
        "wire_payload_bytes": 19800,
        "compression_ratio": 1.03125,
        "duration": 0.0020178141691365174,
        "learning_time": None,
        "integrity": {
            "sent": 600, "received": 548, "matched": 548, "corrupted": 0,
            "missing": 52, "out_of_order": 204, "intact": True,
            "lossless_in_order": False,
        },
        "counters": {
            "controlplane.digests_ignored": 595,
            "controlplane.digests_received": 600,
            "controlplane.mappings_expired": 0,
            "controlplane.mappings_learned": 5,
            "controlplane.mappings_recycled": 0,
            "decoder.compressed_to_raw": 0,
            "decoder.compressed_to_raw_bytes": 0,
            "decoder.passthrough_other": 0,
            "decoder.passthrough_other_bytes": 0,
            "decoder.uncompressed_to_raw": 548,
            "decoder.uncompressed_to_raw_bytes": 25756,
            "decoder.unknown_identifier": 0,
            "decoder.unknown_identifier_bytes": 0,
            "encoder.digests_dropped": 0,
            "encoder.digests_emitted": 600,
            "encoder.passthrough_other": 0,
            "encoder.passthrough_other_bytes": 0,
            "encoder.passthrough_processed": 0,
            "encoder.passthrough_processed_bytes": 0,
            "encoder.raw_to_compressed": 0,
            "encoder.raw_to_compressed_bytes": 0,
            "encoder.raw_to_uncompressed": 600,
            "encoder.raw_to_uncompressed_bytes": 27600,
            "link0.busy_time": 3.924479999999999e-06,
            "link0.delivered": 584,
            "link0.delivered_bytes": 27448,
            "link0.dropped_loss": 16,
            "link0.dropped_queue": 0,
            "link0.max_queue_depth": 1,
            "link0.offered": 600,
            "link0.offered_bytes": 28200,
            "link0.reordered": 14,
            "link1.busy_time": 3.7967999999999985e-06,
            "link1.delivered": 565,
            "link1.delivered_bytes": 26555,
            "link1.dropped_loss": 19,
            "link1.dropped_queue": 0,
            "link1.max_queue_depth": 2,
            "link1.offered": 584,
            "link1.offered_bytes": 27448,
            "link1.reordered": 10,
            "link2.busy_time": 3.6825599999999986e-06,
            "link2.delivered": 548,
            "link2.delivered_bytes": 25756,
            "link2.dropped_loss": 17,
            "link2.dropped_queue": 0,
            "link2.max_queue_depth": 2,
            "link2.offered": 565,
            "link2.offered_bytes": 26555,
            "link2.reordered": 11,
            "wire.compressed_packets": 0,
            "wire.compressed_payload_bytes": 0,
            "wire.raw_packets": 0,
            "wire.raw_payload_bytes": 0,
            "wire.uncompressed_packets": 600,
            "wire.uncompressed_payload_bytes": 19800,
        },
    }

    def test_hops_3_output_is_byte_identical_to_seed_behaviour(self):
        trace = SyntheticSensorWorkload(
            num_chunks=600, distinct_bases=5, seed=11
        ).trace()
        _engine, report = run(
            ChunkTraceSource(trace), scenario="dynamic", hops=3, loss=0.03,
            reorder=0.02, link_seed=7,
        )
        observed = report.as_dict()
        for key in (
            "chunks_sent", "payload_bytes_sent", "wire_payload_bytes",
            "compression_ratio", "duration", "learning_time", "integrity",
        ):
            assert observed[key] == self.GOLDEN[key], key
        counters = observed["metrics"]["counters"]
        assert {
            name: value for name, value in counters.items()
            if not name.startswith("flow.")
        } == self.GOLDEN["counters"]


class TestPcapDriven:
    def test_pcap_round_trip(self, trace, tmp_path):
        path = tmp_path / "trace.pcap"
        trace.to_pcap(path, packet_rate=500_000.0)
        _engine, report = run(PcapTraceSource(path), scenario="dynamic")
        assert report.integrity.lossless_in_order
        assert report.chunks_sent == len(trace)
        assert report.flow("flow0").source.startswith("pcap:")

    def test_runt_frames_are_counted_as_parse_errors(self, tmp_path):
        """Malformed frames must not vanish: 22 frames go in, the encoder
        processes 20, and ``encoder.parse_errors`` accounts for the rest —
        whether the pcap is the caller's source or the spec's trace."""
        chunks = SyntheticSensorWorkload(num_chunks=20, distinct_bases=2, seed=4)
        frames = [
            data for _recorded_time, data in ChunkTraceSource(chunks.trace()).frames()
        ]
        frames.insert(5, b"\x01\x02\x03\x04\x05")
        frames.insert(11, b"\xaa" * 13)
        path = tmp_path / "runts.pcap"
        write_pcap(
            path,
            (PcapPacket(index * 1e-6, data) for index, data in enumerate(frames)),
            nanosecond=True,
        )

        caller_built, linear = run(PcapTraceSource(path), scenario="no_table")
        graph = TopologyEngine(
            linear_topology(scenario="no_table", trace=str(path))
        ).run()
        assert caller_built.flow_states[0].frames_sent == 22
        assert graph.flow("flow0").frames_sent == 22
        for report in (linear, graph):
            assert report.chunks_sent == 20
            assert report.metrics.counter("encoder.raw_to_uncompressed") == 20
            assert report.metrics.counter("encoder.parse_errors") == 2
            assert report.integrity.lossless_in_order

    def test_parse_errors_counter_is_absent_from_clean_runs(self, trace):
        _engine, report = run(ChunkTraceSource(trace), scenario="no_table")
        counters = report.as_dict()["metrics"]["counters"]
        assert not [name for name in counters if name.endswith("parse_errors")]


class TestStreamingMode:
    """``metrics_mode="streaming"`` is the bounded-memory mode of the
    in-memory chain too: counters and integrity stay, per-chunk records go."""

    def test_flows_keep_counts_and_integrity_but_no_arrivals(self, trace):
        engine, report = run(
            ChunkTraceSource(trace), scenario="no_table", metrics_mode="streaming"
        )
        assert report.integrity.lossless_in_order
        assert report.chunks_sent == len(trace)
        assert report.payload_bytes_sent == trace.total_bytes
        assert report.compression_ratio > 1.0
        flow = engine.flow_states[0]
        # A fixed-size sketch and counters: no per-chunk container.
        assert flow.latency.bounded
        assert not [
            name for name, value in vars(flow).items()
            if isinstance(value, (list, dict, deque, array))
        ]
        assert flow.delivered == len(trace)
        assert flow.account.pending == {}
        assert not flow.account.in_order

    def test_links_record_no_queueing_delays(self, trace):
        engine, _report = run(
            ChunkTraceSource(trace), scenario="no_table", metrics_mode="streaming"
        )
        assert len(engine.graph.links[0].stats.queueing_delays) == 0
        assert engine.graph.links[0].stats.delivered == len(trace)

    def test_link_tap_keeps_aggregates_not_records(self, trace):
        engine, report = run(
            ChunkTraceSource(trace), scenario="no_table", metrics_mode="streaming"
        )
        assert engine.measured_tap.total_frames() == len(trace)
        assert report.learning_time is None  # first-times still tracked
        assert report.wire_payload_bytes > 0


class TestDnsWorkloadSource:
    def test_dns_workload_streams_through_the_chain(self):
        workload = DnsQueryWorkload(num_queries=300, distinct_names=20, seed=6)
        _engine, report = run(
            WorkloadTraceSource(workload, num_chunks=300), scenario="no_table"
        )
        assert report.chunks_sent == 300
        assert report.integrity.lossless_in_order


class TestStaticBasesContract:
    def test_decoder_only_no_table_preinstalls_mappings(self, trace, tmp_path):
        bases = trace.distinct_bases(GDTransform(order=8))

        # Produce a processed trace with an encoder-only run.
        _encode, _report, encoded = run_captured(
            ChunkTraceSource(trace), shape="encoder-only", scenario="static",
            static_bases=bases,
        )
        processed = tmp_path / "processed.pcap"
        write_pcap(
            processed,
            (PcapPacket(time, frame) for time, frame in encoded),
        )

        # Decode it with a decoder-only topology and preinstalled mappings
        # (same basis order -> same sequential identifier assignment).
        _decode, report, decoded = run_captured(
            PcapTraceSource(processed), shape="decoder-only", scenario="no_table",
            static_bases=bases,
        )
        assert report.metrics.counter("decoder.unknown_identifier") == 0
        assert report.metrics.counter("decoder.compressed_to_raw") == len(trace)
        assert payloads(decoded) == trace.chunks

    def test_decoder_only_processed_trace_reports_na_ratio(self, trace, tmp_path):
        _encode, _report, encoded = run_captured(
            ChunkTraceSource(ChunkTrace(trace[:50])), shape="encoder-only", scenario="no_table"
        )
        processed = tmp_path / "t2.pcap"
        write_pcap(
            processed,
            (PcapPacket(time, frame) for time, frame in encoded),
        )
        _engine, report = run(
            PcapTraceSource(processed), shape="decoder-only", scenario="no_table"
        )
        # No raw chunks were injected: there is no compression ratio.
        assert report.compression_ratio is None
        assert report.savings_percent is None
        assert "n/a" in report.render(include_counters=False)
