"""Every linear entry point executes through ``TopologyEngine.run``.

Each public way of running the paper's chain — ``repro replay``, ``repro
claims learning-delay``, a linear experiment scenario — builds a spec and makes
exactly one ``TopologyEngine.run`` call per run.  The engine inputs a spec
cannot carry — a pre-built source per flow and explicit static bases — and
the spec-decided ``integrity: None`` rule are covered here too.
"""

import pytest

from repro.cli import main
from repro.exceptions import TopologyError
from repro.experiments import ExperimentSpec, run_scenario
from repro.net.pcap import PcapPacket, write_pcap
from repro.replay import ChunkTraceSource, FixedRatePacing, PcapTraceSource
from repro.topology import TopologyEngine, fan_in_topology, linear_topology
from repro.workloads import SyntheticSensorWorkload

from arrival_capture import capture_arrivals

CHUNKS = 300


def workload():
    return SyntheticSensorWorkload(num_chunks=CHUNKS, distinct_bases=4, seed=9)


@pytest.fixture
def engine_runs(monkeypatch):
    """The list of ``TopologyEngine.run`` calls made while the test runs."""
    calls = []
    original = TopologyEngine.run

    def counted(self, *args, **kwargs):
        calls.append(self.spec.name)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(TopologyEngine, "run", counted)
    return calls


class TestRouting:
    def test_repro_learning_delay(self, engine_runs, capsys):
        assert main(["claims", "learning-delay", "--scale", "2"]) == 0
        capsys.readouterr()
        assert engine_runs == ["paper-testbed", "paper-testbed"]

    def test_linear_run_scenario(self, engine_runs):
        spec = ExperimentSpec.from_dict(
            {
                "name": "routing",
                "base": {"workload": "synthetic", "chunks": CHUNKS, "bases": 4},
                "axes": {"topology": ["encoder-only"]},
            }
        )
        result = run_scenario(spec.expand()[0])
        assert result.axes["topology"] == "encoder-only"
        assert result.report["chunks_sent"] == CHUNKS
        assert len(engine_runs) == 1

    def test_repro_replay(self, engine_runs, tmp_path, capsys):
        path = tmp_path / "trace.pcap"
        workload().trace().to_pcap(path)
        assert main(["replay", str(path), "--scenario", "static"]) == 0
        capsys.readouterr()
        assert len(engine_runs) == 1


class TestPerFlowSource:
    def test_in_memory_source_keeps_mac_attribution(self):
        """A caller-built source frames with its own MACs; the engine
        rewrites them, so every arrival is still attributed to the flow."""
        engine = TopologyEngine(linear_topology(scenario="dynamic", chunks=1))
        report = engine.run(
            sources={
                "flow0": (
                    ChunkTraceSource(workload().trace()),
                    FixedRatePacing(packet_rate=1e6),
                )
            }
        )
        assert report.chunks_sent == CHUNKS
        assert report.flow("flow0").delivered == CHUNKS
        assert report.integrity.lossless_in_order
        assert "flows.unattributed_frames" not in report.as_dict()["metrics"]["counters"]

    def test_one_pacing_may_drive_every_flow(self):
        """A pacing holds no clock of its own: one instance shared by two
        flows paces each as its own instance would."""

        def run(pacings):
            engine = TopologyEngine(
                fan_in_topology(senders=2, chunks=50, bases=4, packet_rate=1e5, seed=1)
            )
            traces = {
                name: SyntheticSensorWorkload(
                    num_chunks=50, distinct_bases=4, seed=seed
                ).trace()
                for name, seed in (("flow0", 3), ("flow1", 4))
            }
            return engine.run(
                sources={
                    name: (ChunkTraceSource(trace), pacings[name])
                    for name, trace in traces.items()
                }
            ).json_text()

        shared = FixedRatePacing(packet_rate=1e5)
        own = {name: FixedRatePacing(packet_rate=1e5) for name in ("flow0", "flow1")}
        assert run({"flow0": shared, "flow1": shared}) == run(own)

    def test_source_for_unknown_flow_is_rejected(self):
        engine = TopologyEngine(linear_topology(chunks=1))
        with pytest.raises(TopologyError, match="unknown flow 'flow9'"):
            engine.run(
                sources={
                    "flow9": (
                        ChunkTraceSource(workload().trace()),
                        FixedRatePacing(packet_rate=1e6),
                    )
                }
            )


class TestExplicitStaticBases:
    def test_decoder_only_decodes_with_the_callers_bases(self, tmp_path):
        bases = workload().bases()
        encode = TopologyEngine(
            linear_topology(shape="encoder-only", scenario="static"),
            static_bases=bases,
        )
        source = (ChunkTraceSource(workload().trace()), FixedRatePacing(1e6))
        encoded = capture_arrivals(encode)
        encode.run(sources={"flow0": source})
        processed = tmp_path / "processed.pcap"
        write_pcap(
            processed,
            (PcapPacket(t, frame) for t, frame in encoded),
            nanosecond=True,
        )
        decode = TopologyEngine(
            linear_topology(shape="decoder-only", scenario="no_table"),
            static_bases=bases,
        )
        decoded = capture_arrivals(decode)
        report = decode.run(
            sources={"flow0": (PcapTraceSource(processed), FixedRatePacing(1e6))}
        )
        assert report.metrics.counter("decoder.compressed_to_raw") == CHUNKS
        assert report.metrics.counter("decoder.unknown_identifier") == 0
        restored = [frame[14:] for _t, frame in decoded]
        assert restored == workload().chunks()

    def test_no_table_with_an_encoder_rejects_bases(self):
        with pytest.raises(TopologyError, match="conflicts with the no_table"):
            TopologyEngine(linear_topology(scenario="no_table"), static_bases=[1, 2])


class TestIntegrityNeedsADecoder:
    def test_encoder_only_reports_no_integrity(self):
        """Decided from the spec: no decoder restores the chunks, so there
        is nothing to verify — with verification left on."""
        report = TopologyEngine(
            linear_topology(shape="encoder-only", scenario="dynamic", chunks=CHUNKS)
        ).run()
        assert report.integrity is None
        assert report.flow("flow0").integrity is None
        assert report.flow("flow0").delivered == CHUNKS

    def test_the_full_chain_still_verifies(self):
        report = TopologyEngine(linear_topology(chunks=CHUNKS)).run()
        assert report.integrity.lossless_in_order
