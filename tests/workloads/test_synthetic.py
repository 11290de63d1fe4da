"""Tests for the synthetic sensor workload."""

import pytest

from repro.exceptions import WorkloadError
from repro.workloads.synthetic import PAPER_SYNTHETIC_CHUNKS, SyntheticSensorWorkload


class TestConfiguration:
    def test_paper_scale_constant(self):
        assert PAPER_SYNTHETIC_CHUNKS == 3_124_000

    def test_total_bytes(self):
        workload = SyntheticSensorWorkload(num_chunks=100)
        assert workload.total_bytes == 3200

    def test_parameter_validation(self):
        with pytest.raises(WorkloadError):
            SyntheticSensorWorkload(num_chunks=0)
        with pytest.raises(WorkloadError):
            SyntheticSensorWorkload(distinct_bases=0)
        with pytest.raises(WorkloadError):
            SyntheticSensorWorkload(locality=1.5)
        with pytest.raises(WorkloadError):
            SyntheticSensorWorkload(deviation_probability=-0.1)


class TestGeneration:
    def test_deterministic_for_a_seed(self):
        first = SyntheticSensorWorkload(num_chunks=200, distinct_bases=20, seed=5)
        second = SyntheticSensorWorkload(num_chunks=200, distinct_bases=20, seed=5)
        assert first.chunks() == second.chunks()
        third = SyntheticSensorWorkload(num_chunks=200, distinct_bases=20, seed=6)
        assert first.chunks() != third.chunks()

    def test_chunk_sizes(self):
        workload = SyntheticSensorWorkload(num_chunks=50, distinct_bases=5)
        chunks = workload.chunks()
        assert len(chunks) == 50
        assert all(len(chunk) == 32 for chunk in chunks)

    def test_chunks_cluster_on_the_declared_bases(self):
        workload = SyntheticSensorWorkload(num_chunks=500, distinct_bases=10, seed=1)
        bases = set(workload.bases())
        assert len(bases) == 10
        transform = workload.transform
        observed = {transform.split(chunk).basis for chunk in workload.chunks()}
        assert observed <= bases

    def test_iter_chunks_partial_count(self):
        workload = SyntheticSensorWorkload(num_chunks=1000, distinct_bases=5)
        assert len(list(workload.iter_chunks(10))) == 10
        with pytest.raises(WorkloadError):
            list(workload.iter_chunks(0))

    def test_trace_integration(self):
        workload = SyntheticSensorWorkload(num_chunks=100, distinct_bases=5)
        trace = workload.trace()
        assert len(trace) == 100
        stats = trace.stats(workload.transform)
        assert stats.distinct_bases <= 5

    def test_zero_deviation_probability_yields_codewords_only(self):
        workload = SyntheticSensorWorkload(
            num_chunks=100, distinct_bases=3, deviation_probability=0.0, seed=3
        )
        transform = workload.transform
        assert all(
            transform.split(chunk).deviation == 0 for chunk in workload.chunks()
        )

    def test_structured_prototypes_are_low_entropy(self):
        # The generated chunks must be realistically compressible by a
        # dictionary compressor (the paper's gzip bar sits near 0.09).
        import gzip

        workload = SyntheticSensorWorkload(num_chunks=5000, distinct_bases=200, seed=4)
        data = b"".join(workload.chunks())
        ratio = len(gzip.compress(data, 6)) / len(data)
        assert ratio < 0.25

    def test_fits_paper_dictionary(self):
        workload = SyntheticSensorWorkload(num_chunks=10, distinct_bases=1000)
        assert len(workload.bases()) == 1000
        assert len(set(workload.bases())) == 1000
