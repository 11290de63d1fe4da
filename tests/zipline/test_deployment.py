"""Tests for the end-to-end ZipLine deployment."""

import pytest

from repro.core.transform import GDTransform
from repro.exceptions import ReproError
from repro.net.packets import PacketKind
from repro.zipline.deployment import DeploymentScenario, ZipLineDeployment


@pytest.fixture(scope="module")
def shared_chunks(clustered_chunk_factory):
    transform = GDTransform(order=8)
    bases = [  # deterministic bases
        int.from_bytes(bytes([i + 1] * 31), "big") for i in range(4)
    ]
    chunks = clustered_chunk_factory(transform, bases, 600, seed=11)
    return bases, chunks


class TestScenarios:
    def test_scenario_parsing(self):
        assert DeploymentScenario.from_name("static") is DeploymentScenario.STATIC
        assert (
            DeploymentScenario.from_name(DeploymentScenario.DYNAMIC)
            is DeploymentScenario.DYNAMIC
        )
        with pytest.raises(ReproError):
            DeploymentScenario.from_name("bogus")

    def test_static_requires_bases(self):
        with pytest.raises(ReproError):
            ZipLineDeployment(scenario="static")

    def test_no_table_scenario(self, shared_chunks):
        _, chunks = shared_chunks
        deployment = ZipLineDeployment(scenario="no_table")
        summary = deployment.replay_and_run(chunks[:200], packet_rate=1e6)
        assert summary.compressed_packets == 0
        assert summary.uncompressed_packets == 200
        # 33-byte type-2 payloads over 32-byte chunks: the paper's 1.03.
        assert summary.compression_ratio == pytest.approx(33 / 32)
        assert deployment.verify_lossless(chunks[:200])

    def test_static_scenario_matches_paper_ratio(self, shared_chunks):
        bases, chunks = shared_chunks
        deployment = ZipLineDeployment(scenario="static", static_bases=bases)
        summary = deployment.replay_and_run(chunks[:200], packet_rate=1e6)
        assert summary.uncompressed_packets == 0
        assert summary.compressed_packets == 200
        assert summary.compression_ratio == pytest.approx(3 / 32)
        assert deployment.verify_lossless(chunks[:200])

    def test_dynamic_scenario_learns_and_stays_lossless(self, shared_chunks):
        _, chunks = shared_chunks
        deployment = ZipLineDeployment(scenario="dynamic")
        # Replay slowly enough (6 ms for 600 chunks) that the ~1.77 ms
        # learning delay only covers the head of the trace.
        summary = deployment.replay_and_run(chunks, packet_rate=1e5)
        assert summary.compressed_packets > 0
        assert summary.uncompressed_packets > 0
        assert deployment.verify_lossless(chunks)
        # the ratio falls between the static optimum and the no-table bound
        assert 3 / 32 < summary.compression_ratio < 33 / 32

    def test_dynamic_learning_time_close_to_paper(self, shared_chunks):
        _, chunks = shared_chunks
        deployment = ZipLineDeployment(scenario="dynamic", seed=1)
        # repeatedly send the same chunk, as the paper's experiment does
        deployment.replay_chunks([chunks[0]] * 3000, packet_rate=1e6)
        deployment.run()
        learning = deployment.learning_time()
        assert learning is not None
        assert learning == pytest.approx(1.77e-3, rel=0.15)


class TestPlumbing:
    def test_chunk_size_validation(self):
        deployment = ZipLineDeployment(scenario="no_table")
        with pytest.raises(ReproError):
            deployment.replay_chunks([b"\x00" * 31], packet_rate=1e6)

    def test_packet_rate_validation(self, shared_chunks):
        _, chunks = shared_chunks
        deployment = ZipLineDeployment(scenario="no_table")
        with pytest.raises(ReproError):
            deployment.replay_chunks(chunks[:2], packet_rate=0)

    def test_link_tap_sees_every_inter_switch_frame(self, shared_chunks):
        _, chunks = shared_chunks
        deployment = ZipLineDeployment(scenario="no_table")
        deployment.replay_and_run(chunks[:50], packet_rate=1e6)
        assert deployment.link_tap.total_frames() == 50
        kinds = deployment.link_tap.count_by_kind()
        assert kinds[PacketKind.PROCESSED_UNCOMPRESSED] == 50

    def test_learning_time_none_when_nothing_compressed(self, shared_chunks):
        _, chunks = shared_chunks
        deployment = ZipLineDeployment(scenario="no_table")
        deployment.replay_and_run(chunks[:10], packet_rate=1e6)
        assert deployment.learning_time() is None

    def test_verify_lossless_detects_mismatch(self, shared_chunks):
        _, chunks = shared_chunks
        deployment = ZipLineDeployment(scenario="no_table")
        deployment.replay_and_run(chunks[:5], packet_rate=1e6)
        assert not deployment.verify_lossless(chunks[:4])
        assert not deployment.verify_lossless([b"\x00" * 32] * 5)
