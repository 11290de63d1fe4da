"""End-to-end integration tests crossing every package boundary."""

import pytest

from repro import registry
from repro.core.codec import GDCodec
from repro.core.engine import compress_bytes
from repro.net.packets import PacketKind
from repro.replay.sources import PcapTraceSource
from repro.topology import TopologyEngine, paper_testbed_topology
from repro.workloads import SyntheticSensorWorkload


class TestWorkloadThroughTheTestbed:
    """Workload generator → pcap → switch pair → receiver, losslessly."""

    def test_synthetic_trace_through_the_switch_pair(self, tmp_path):
        workload = SyntheticSensorWorkload(num_chunks=400, distinct_bases=20, seed=9)
        trace = workload.trace()

        # persist and reload through pcap, like the paper's tooling does
        pcap_path = tmp_path / "synthetic.pcap"
        trace.to_pcap(pcap_path, packet_rate=1e6)
        reloaded = [data[14:] for _time, data in PcapTraceSource(pcap_path).frames()]
        assert reloaded == trace.chunks

        # The static scenario preloads the capture's own distinct bases.
        spec = paper_testbed_topology(scenario="static", trace=str(pcap_path))
        report = TopologyEngine(spec).run()
        assert report.integrity.lossless_in_order
        assert report.compression_ratio == pytest.approx(3 / 32)
        assert report.metrics.counter("wire.compressed_packets") == len(trace)

    def test_dns_trace_through_the_switch_pair(self):
        spec = paper_testbed_topology(
            workload="dns", chunks=300, names=30, packet_rate=5e4, flow_seed=4
        )
        report = TopologyEngine(spec).run()
        assert report.integrity.lossless_in_order
        assert report.metrics.counter("wire.compressed_packets") > 0
        assert report.compression_ratio < 1.0

    def test_switch_counters_match_link_tap(self):
        spec = paper_testbed_topology(
            scenario="static", chunks=200, bases=10, flow_seed=3
        )
        engine = TopologyEngine(spec)
        engine.run()
        nodes = engine.graph.nodes
        compressed_counter = nodes["encoder"].switch.counters.read("raw_to_compressed")
        assert compressed_counter.packets == 200
        kinds = engine.measured_tap.count_by_kind()
        assert kinds[PacketKind.PROCESSED_COMPRESSED] == 200
        decoded_counter = nodes["decoder"].switch.counters.read("compressed_to_raw")
        assert decoded_counter.packets == 200


class TestCodecAgainstTheTestbed:
    """The pure-software codec and the switch pair must agree."""

    def test_static_ratios_agree(self):
        workload = SyntheticSensorWorkload(num_chunks=300, distinct_bases=15, seed=5)
        codec = GDCodec(
            order=8,
            identifier_bits=15,
            mode="static",
            static_bases=workload.bases(),
            alignment_padding_bits=8,
        )
        codec_ratio = codec.compress(b"".join(workload.chunks())).compression_ratio

        spec = paper_testbed_topology(
            scenario="static", chunks=300, bases=15, flow_seed=5
        )
        testbed_ratio = TopologyEngine(spec).run().compression_ratio

        assert codec_ratio == pytest.approx(testbed_ratio)

    def test_no_table_ratios_agree(self):
        workload = SyntheticSensorWorkload(num_chunks=100, distinct_bases=5, seed=6)
        codec = GDCodec(order=8, mode="no_table", alignment_padding_bits=8)
        codec_ratio = codec.compress(b"".join(workload.chunks())).compression_ratio
        spec = paper_testbed_topology(
            scenario="no_table", chunks=100, bases=5, flow_seed=6
        )
        testbed_ratio = TopologyEngine(spec).run().compression_ratio
        assert codec_ratio == pytest.approx(testbed_ratio)


class TestBaselineComparisons:
    def test_gd_beats_exact_dedup_on_noisy_sensor_data(self):
        workload = SyntheticSensorWorkload(
            num_chunks=1000, distinct_bases=50, deviation_probability=0.9, seed=7
        )
        data = b"".join(workload.chunks())
        gd = GDCodec(
            order=8, mode="static", static_bases=workload.bases(),
            alignment_padding_bits=8,
        ).compress(data)
        dedup = compress_bytes(registry.get("dedup", identifier_bits=15), data)
        assert gd.compression_ratio < len(dedup) / len(data)

    def test_gzip_is_comparable_on_the_synthetic_trace(self):
        workload = SyntheticSensorWorkload(num_chunks=2000, distinct_bases=100, seed=8)
        data = b"".join(workload.chunks())
        gd_ratio = GDCodec(
            order=8, mode="static", static_bases=workload.bases(),
            alignment_padding_bits=8,
        ).compress(data).compression_ratio
        gzip_ratio = len(compress_bytes(registry.get("gzip"), data)) / len(data)
        # the paper reports "circa 20 % difference"; allow a generous band
        assert gzip_ratio == pytest.approx(gd_ratio, rel=0.6)
