"""TopologyEngine: concurrent flows, determinism, in-network control."""

import json

import pytest

from repro.core.hamming import HammingCode, hamming_code
from repro.replay import IntegrityResult
from repro.topology import (
    FlowSpec,
    TopologyEngine,
    TopologyReport,
    TopologySpec,
    fan_in_stress_topology,
    fan_in_topology,
    linear_topology,
    paper_testbed_topology,
)


class TestFanIn:
    def test_four_senders_share_one_encoder_and_stay_intact(self):
        spec = fan_in_topology(senders=4, chunks=800, bases=5, scenario="static")
        engine = TopologyEngine(spec)
        report = engine.run()
        assert len(report.flows) == 4
        assert report.chunks_sent == 4 * 800
        assert report.integrity.intact
        assert report.integrity.missing == 0
        # All traffic crossed the one shared measured link, compressed.
        assert report.compression_ratio < 0.15
        for flow in report.flows:
            assert flow.integrity.lossless_in_order
            assert flow.delivered == 800
            assert flow.latency["count"] == 800

    def test_same_spec_and_seed_is_byte_identical(self):
        def run():
            return TopologyEngine(
                fan_in_topology(senders=4, chunks=500, bases=4, scenario="dynamic")
            ).run().json_text()

        assert run() == run()

    def test_flows_have_distinct_derived_seeds_and_workloads(self):
        spec = fan_in_topology(senders=4, chunks=300, bases=4, scenario="dynamic")
        report = TopologyEngine(spec).run()
        seeds = [flow.seed for flow in report.flows]
        assert len(set(seeds)) == 4
        # Four distinct workload streams learn 4 bases each: genuine
        # dictionary contention the single-flow chain cannot express.
        assert report.metrics.counter("controlplane.mappings_learned") == 16

    def test_fan_in_exercises_every_ingress_port(self):
        spec = fan_in_topology(senders=3, chunks=100, bases=2, scenario="no_table")
        engine = TopologyEngine(spec)
        report = engine.run()
        encoder = engine._encoder_nodes["encoder"].switch
        assert report.metrics.counter("encoder.raw_to_uncompressed") == 300
        assert report.metrics.counter("shared.delivered") == 300

    def test_flow_results_independent_of_declaration_order(self):
        spec = fan_in_topology(senders=4, chunks=400, bases=4, scenario="dynamic")
        reversed_spec = TopologySpec(
            name=spec.name,
            nodes=spec.nodes,
            links=spec.links,
            flows=list(reversed(spec.flows)),
            scenario=spec.scenario,
            order=spec.order,
            identifier_bits=spec.identifier_bits,
            seed=spec.seed,
        )
        forward = TopologyEngine(spec).run()
        backward = TopologyEngine(reversed_spec).run()
        for flow in forward.flows:
            other = backward.flow(flow.name)
            assert other.seed == flow.seed
            assert other.chunks_sent == flow.chunks_sent
            assert other.delivered == flow.delivered
            assert other.integrity.as_dict() == flow.integrity.as_dict()
            assert other.latency == flow.latency
        assert backward.compression_ratio == forward.compression_ratio
        assert backward.duration == forward.duration


class TestLossyFanIn:
    def test_shared_link_loss_is_counted_never_corrupted(self):
        spec = fan_in_topology(
            senders=4, chunks=600, bases=4, scenario="no_table", loss=0.03
        )
        report = TopologyEngine(spec).run()
        assert report.integrity.corrupted == 0
        assert report.integrity.missing > 0
        dropped = report.metrics.counter("shared.dropped_loss")
        assert report.integrity.missing == dropped
        # Per-flow attribution: the sum of per-flow losses is the link loss.
        assert sum(flow.integrity.missing for flow in report.flows) == dropped

    def test_link_seed_is_derived_so_loss_is_reproducible(self):
        def run():
            spec = fan_in_topology(
                senders=2, chunks=400, bases=3, scenario="no_table", loss=0.05
            )
            return TopologyEngine(spec).run().metrics.counter("shared.dropped_loss")

        first = run()
        assert first > 0
        assert run() == first


class TestInNetworkControl:
    def test_installs_travel_as_control_messages(self):
        spec = fan_in_topology(senders=2, chunks=2500, bases=3, scenario="dynamic")
        spec.control = "in-network"
        engine = TopologyEngine(spec)
        report = engine.run()
        channel = engine.control_channels["encoder"]
        # One install message per learned mapping, all applied on arrival.
        learned = report.metrics.counter("controlplane.mappings_learned")
        assert learned == 6
        assert channel.messages_sent == learned
        assert channel.messages_applied == learned
        assert report.metrics.counter("control.encoder.messages_sent") == learned
        assert report.metrics.counter("control.encoder.link.delivered") == learned
        # The decoder still resolved everything: installs arrive before the
        # first compressed packet (control latency << encoder write latency).
        assert report.metrics.counter("decoder.unknown_identifier") == 0
        assert report.integrity.intact
        assert report.compression_ratio < 1.0

    def test_direct_mode_has_no_control_channel(self):
        spec = fan_in_topology(senders=2, chunks=200, bases=2, scenario="dynamic")
        engine = TopologyEngine(spec)
        engine.run()
        assert engine.control_channels == {}

    def test_in_network_run_is_deterministic(self):
        def run():
            spec = fan_in_topology(senders=3, chunks=900, bases=4, scenario="dynamic")
            spec.control = "in-network"
            return TopologyEngine(spec).run().json_text()

        assert run() == run()


class TestPaperTestbedPreset:
    def test_spec_flow_matches_the_same_chunks_given_in_memory(self):
        """The preset's own workload flow and the caller's chunk list (what
        the §7 learning-delay claim feeds it) measure the same run."""
        from repro.replay import ChunkTraceSource, RecordedPacing
        from repro.workloads import SyntheticSensorWorkload

        spec = paper_testbed_topology(
            chunks=4000, bases=6, scenario="dynamic", flow_seed=21
        )
        report = TopologyEngine(spec).run()
        workload = SyntheticSensorWorkload(
            num_chunks=4000, distinct_bases=6, seed=21
        )
        source = (ChunkTraceSource(workload.trace()), RecordedPacing())
        in_memory = TopologyEngine(paper_testbed_topology(scenario="dynamic")).run(
            sources={"flow0": source}
        )
        assert report.integrity.lossless_in_order
        assert report.compression_ratio == pytest.approx(
            in_memory.compression_ratio, rel=1e-12
        )
        assert report.learning_time == pytest.approx(
            in_memory.learning_time, rel=1e-12
        )


class TestDnsFlows:
    def test_dns_workload_flows_run_end_to_end(self):
        spec = fan_in_topology(
            senders=2, chunks=200, workload="dns", names=15, scenario="static"
        )
        report = TopologyEngine(spec).run()
        assert report.integrity.intact
        assert report.integrity.missing == 0
        assert report.compression_ratio < 1.0


class TestTraceDrivenFlows:
    """Trace flows get the flow's own MACs so arrival attribution works."""

    @pytest.fixture()
    def pcap(self, tmp_path):
        from repro.workloads import SyntheticSensorWorkload

        path = tmp_path / "trace.pcap"
        SyntheticSensorWorkload(num_chunks=120, distinct_bases=4, seed=9).trace(
        ).to_pcap(path)
        return path

    def test_pcap_flow_is_attributed_and_verified(self, pcap):
        spec = linear_topology(trace=str(pcap), scenario="no_table")
        report = TopologyEngine(spec).run()
        flow = report.flows[0]
        assert flow.delivered == 120
        assert flow.integrity.lossless_in_order
        assert flow.latency["count"] == 120
        assert report.metrics.counter("flows.unattributed_frames") == 0

    def test_pcap_flow_static_scenario(self, pcap):
        spec = linear_topology(trace=str(pcap), scenario="static")
        report = TopologyEngine(spec).run()
        assert report.flows[0].integrity.lossless_in_order
        assert report.compression_ratio < 0.15


class TestWideFanIn:
    def test_more_senders_than_default_switch_ports(self):
        # 40 ingress ports exceed the Tofino model's 32-port default; the
        # engine sizes the switch for the spec instead of failing mid-build.
        spec = fan_in_topology(senders=40, chunks=20, bases=2, scenario="no_table")
        report = TopologyEngine(spec).run()
        assert len(report.flows) == 40
        assert report.integrity.lossless_in_order
        assert report.chunks_sent == 40 * 20


class TestOneCodePerProcess:
    def test_a_wide_fan_in_builds_one_syndrome_table(self, monkeypatch):
        """Every flow's workload, both switches and the engine name the same
        code: building a 512-sender engine builds its syndrome table once."""
        builds = []
        build = HammingCode._build_syndrome_table
        monkeypatch.setattr(
            HammingCode,
            "_build_syndrome_table",
            lambda code: builds.append(code.m) or build(code),
        )
        hamming_code.cache_clear()
        TopologyEngine(fan_in_stress_topology(senders=512))
        assert builds == [8]


class TestMisdeliveryDetection:
    def _misrouted_spec(self):
        from repro.topology import LinkSpec, NodeSpec

        # The decoder forwards *everything* to sinkA, but flowB declares
        # sinkB: a routing bug that must not look like success.
        return TopologySpec(
            name="misrouted",
            scenario="no_table",
            nodes=[
                NodeSpec(name="senderA", kind="host"),
                NodeSpec(name="senderB", kind="host"),
                NodeSpec(name="encoder", kind="encoder",
                         forwarding={0: 2, 1: 2}, default_egress_port=2,
                         decoder="decoder"),
                NodeSpec(name="decoder", kind="decoder",
                         forwarding={0: 1}, default_egress_port=1),
                NodeSpec(name="sinkA", kind="host"),
                NodeSpec(name="sinkB", kind="host"),
            ],
            links=[
                LinkSpec(name="inA", source=("senderA", 0),
                         target=("encoder", 0), direct=True),
                LinkSpec(name="inB", source=("senderB", 0),
                         target=("encoder", 1), direct=True),
                LinkSpec(name="wire", source=("encoder", 2),
                         target=("decoder", 0), measured=True),
                LinkSpec(name="outA", source=("decoder", 1),
                         target=("sinkA", 0), direct=True),
                LinkSpec(name="outB", source=("decoder", 2),
                         target=("sinkB", 0), direct=True),
            ],
            flows=[
                FlowSpec(name="flowA", source="senderA", sink="sinkA",
                         chunks=50, bases=2),
                FlowSpec(name="flowB", source="senderB", sink="sinkB",
                         chunks=50, bases=2),
            ],
        )

    def test_frames_at_the_wrong_sink_count_as_missing(self):
        report = TopologyEngine(self._misrouted_spec()).run()
        flow_a = report.flow("flowA")
        flow_b = report.flow("flowB")
        assert flow_a.integrity.lossless_in_order
        # flowB's traffic landed at sinkA: missing for the flow, counted
        # as misdelivered, and the aggregate is not lossless.
        assert flow_b.delivered == 0
        assert flow_b.integrity.missing == 50
        assert report.metrics.counter("flows.misdelivered_frames") == 50
        assert not report.integrity.lossless_in_order


class TestMeasuredLinkFallback:
    def test_defaults_to_the_first_emulated_link_not_the_first_link(self):
        spec = linear_topology(chunks=100, bases=2, scenario="static")
        # Strip the explicit measured flag: the direct 'ingress' link is
        # declared first, but the tap must land on the emulated wire.
        from repro.topology import LinkSpec

        spec.links = [
            LinkSpec(name=link.name, source=link.source, target=link.target,
                     bandwidth_gbps=link.bandwidth_gbps,
                     propagation_us=link.propagation_us, hops=link.hops,
                     direct=link.direct, measured=False)
            for link in spec.links
        ]
        assert spec.measured_link.name == "link0"
        report = TopologyEngine(spec).run()
        # Tapping the wire (not the raw ingress) shows the compression.
        assert report.compression_ratio < 0.15


class TestReport:
    """The headline numbers and rows every run prints, on a hand-built report."""

    def make_report(self, **overrides):
        values = dict(
            topology="encoder-link-decoder",
            scenario="static",
            chunks_sent=100,
            payload_bytes_sent=3200,
            wire_payload_bytes=320,
            duration=1e-3,
            integrity=IntegrityResult(
                sent=100, received=100, matched=100, corrupted=0,
                missing=0, out_of_order=0,
            ),
        )
        values.update(overrides)
        return TopologyReport(**values)

    def test_compression_ratio(self):
        report = self.make_report()
        assert report.compression_ratio == pytest.approx(0.1)
        assert report.savings_percent == pytest.approx(90.0)

    def test_nothing_sent_has_no_ratio(self):
        report = self.make_report(chunks_sent=0, payload_bytes_sent=0, integrity=None)
        assert report.compression_ratio is None
        assert report.savings_percent is None
        assert "n/a" in report.render()

    def test_render_contains_headline(self):
        report = self.make_report()
        report.metrics.increment("encoder.raw_to_compressed", 100)
        text = report.render(include_counters=True)
        assert "compression ratio" in text
        assert "lossless" in text
        assert "chunks out of order" in text
        assert "encoder.raw_to_compressed" in text
        assert "encoder.raw_to_compressed" not in report.render()

    def test_latency_summary_from_metrics(self):
        report = self.make_report()
        assert report.latency_summary() == {}
        assert "latency p50" not in report.render()
        report.metrics.distribution("endtoend.latency").extend([1e-6, 2e-6])
        assert report.latency_summary()["count"] == 2
        assert "latency p50" in report.render()

    def test_as_dict_is_json_friendly(self):
        report = self.make_report()
        report.metrics.distribution("endtoend.latency").add(1e-6)
        encoded = json.dumps(report.as_dict())
        assert "compression_ratio" in encoded
        assert json.loads(report.json_text())["latency"]["count"] == 1
