"""Matrix execution: sharded equivalence, aggregation, exports."""

import pytest

from repro.exceptions import ReproError, TopologyError
from repro.experiments import (
    ExperimentSpec,
    MatrixRunner,
    run_scenario,
    scenario_metric,
)
from repro.workloads import SyntheticSensorWorkload


def _spec(**overrides):
    document = {
        "name": "runner-test",
        "base": {"workload": "synthetic", "chunks": 150, "bases": 4, "seed": 2020},
        "axes": {"scenario": ["no_table", "static"], "loss": [0.0, 0.02]},
    }
    document.update(overrides)
    return ExperimentSpec.from_dict(document)


@pytest.fixture(scope="module")
def sequential_result():
    return MatrixRunner(_spec(), workers=1).run()


class TestSequentialRun:
    def test_every_scenario_reported_in_order(self, sequential_result):
        assert len(sequential_result) == 4
        assert [r.index for r in sequential_result.results] == [0, 1, 2, 3]

    def test_figure3_shape(self, sequential_result):
        by_id = {r.scenario_id: r for r in sequential_result.results}
        static = by_id["loss=0.0/scenario=static"].metric("compression_ratio")
        no_table = by_id["loss=0.0/scenario=no_table"].metric("compression_ratio")
        assert static < 0.15
        assert no_table > 1.0

    def test_loss_is_counted_never_corrupting(self, sequential_result):
        lossy = {
            r.scenario_id: r
            for r in sequential_result.results
        }["loss=0.02/scenario=static"]
        assert lossy.metric("integrity.missing") > 0
        assert lossy.metric("integrity.corrupted") == 0
        assert sequential_result.intact

    def test_progress_callback_fires_per_scenario(self):
        seen = []
        MatrixRunner(_spec(), workers=1).run(progress=seen.append)
        assert sorted(result.index for result in seen) == [0, 1, 2, 3]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_dns_point_off_order_8_fails_before_any_row(self, workers):
        # The order-8 point would run first; the sweep must refuse the
        # order-9 point before reporting it.
        spec = _spec(
            base={"workload": "dns", "chunks": 200, "names": 20, "seed": 2020},
            axes={"order": [8, 9]},
        )
        seen = []
        with pytest.raises(TopologyError, match=r"flow 'flow0'.*only order 8"):
            MatrixRunner(spec, workers=workers).run(progress=seen.append)
        assert seen == []


class TestShardedEquivalence:
    def test_parallel_equals_sequential(self, sequential_result):
        sharded = MatrixRunner(_spec(), workers=2).run()
        assert sharded.json_text() == sequential_result.json_text()

    def test_parallel_csv_equals_sequential(self, sequential_result):
        sharded = MatrixRunner(_spec(), workers=3).run()
        assert sharded.csv_text() == sequential_result.csv_text()

    def test_more_workers_than_scenarios(self):
        spec = _spec(axes={"scenario": ["static", "dynamic"]})
        result = MatrixRunner(spec, workers=16).run()
        assert len(result) == 2

    def test_workers_must_be_positive(self):
        with pytest.raises(ReproError, match="positive"):
            MatrixRunner(_spec(), workers=0)


class TestAggregation:
    def test_group_by_axis(self, sequential_result):
        groups = sequential_result.group_by("scenario", "compression_ratio")
        names = [group.name for group in groups]
        assert names == ["scenario=no_table", "scenario=static"]
        assert all(group.summary.count == 2 for group in groups)

    def test_group_by_unknown_axis(self, sequential_result):
        with pytest.raises(ReproError, match="unknown group-by axis"):
            sequential_result.group_by("hops")

    def test_render_contains_axes_and_groups(self, sequential_result):
        text = sequential_result.render(group_axes=["loss"], metric="compression_ratio")
        assert "experiment runner-test (4 scenarios)" in text
        assert "compression_ratio by loss" in text
        assert "loss=0.02" in text

    def test_csv_header_and_rows(self, sequential_result):
        lines = sequential_result.csv_text().strip().splitlines()
        assert lines[0].startswith("loss,scenario,ratio,savings_%")
        assert len(lines) == 5

    def test_json_export_round_trips(self, sequential_result, tmp_path):
        import json

        target = sequential_result.to_json(tmp_path / "out" / "matrix.json")
        loaded = json.loads(target.read_text())
        assert loaded["spec"]["name"] == "runner-test"
        assert len(loaded["scenarios"]) == 4

    def test_csv_export_writes_file(self, sequential_result, tmp_path):
        target = sequential_result.to_csv(tmp_path / "out" / "matrix.csv")
        assert target.read_text() == sequential_result.csv_text()


class TestIntactVerdict:
    @staticmethod
    def _fabricated(report):
        from repro.experiments.runner import MatrixResult, ScenarioResult

        spec = _spec(axes={"scenario": ["no_table"]})
        result = ScenarioResult(
            index=0, scenario_id="scenario=no_table", axes={"scenario": "no_table"},
            seed=0, report=report,
        )
        return MatrixResult(spec, [result])

    def test_corruption_breaks_intact(self):
        assert not self._fabricated({"integrity": {"corrupted": 1}}).intact

    def test_no_integrity_falls_back_to_unknown_identifiers(self):
        # Decoder-only over a processed trace: no chunk-level integrity,
        # but unresolved identifiers mean dropped packets, not success.
        report = {
            "integrity": None,
            "metrics": {"counters": {"decoder.unknown_identifier": 7}},
        }
        assert not self._fabricated(report).intact

    def test_no_integrity_and_clean_decode_is_intact(self):
        report = {
            "integrity": None,
            "metrics": {"counters": {"decoder.unknown_identifier": 0}},
        }
        assert self._fabricated(report).intact


class TestCsvQuoting:
    def test_comma_in_axis_value_is_quoted(self, tmp_path):
        from repro.experiments.runner import MatrixResult, ScenarioResult

        trace = str(tmp_path / "run,v2.pcap")
        spec = ExperimentSpec.from_dict(
            {"name": "csv-test", "axes": {"trace": [trace, "other.pcap"]}}
        )
        results = [
            ScenarioResult(
                index=index, scenario_id=f"trace={value}",
                axes={"trace": value}, seed=0, report={},
            )
            for index, value in enumerate(spec.axes["trace"])
        ]
        import csv as csv_module
        import io

        text = MatrixResult(spec, results).csv_text()
        rows = list(csv_module.reader(io.StringIO(text)))
        assert rows[1][0] == trace
        assert len(rows[1]) == len(rows[0])


class TestScenarioMetric:
    def test_dotted_paths(self, sequential_result):
        report = sequential_result.results[0].report
        assert scenario_metric(report, "compression_ratio") == report["compression_ratio"]
        assert scenario_metric(report, "latency.p50") == report["latency"]["p50"]
        assert scenario_metric(report, "integrity.sent") == 150

    def test_counter_path(self, sequential_result):
        report = sequential_result.results[0].report
        assert (
            scenario_metric(report, "metrics.counters.wire.uncompressed_packets")
            == 150.0
        )

    def test_missing_path_is_none(self, sequential_result):
        report = sequential_result.results[0].report
        assert scenario_metric(report, "latency.p12345") is None
        assert scenario_metric(report, "no.such.path") is None

    def test_non_numeric_path_rejected(self, sequential_result):
        report = sequential_result.results[0].report
        with pytest.raises(ReproError, match="not numeric"):
            scenario_metric(report, "topology")


class TestWorkloadsAndTraces:
    def test_dns_static_scenario(self):
        spec = ExperimentSpec.from_dict(
            {
                "name": "dns-test",
                "base": {
                    "workload": "dns",
                    "chunks": 120,
                    "names": 20,
                    "scenario": "static",
                    "seed": 2016,
                },
            }
        )
        result = run_scenario(spec.expand()[0])
        assert result.report["integrity"]["lossless_in_order"]
        assert result.metric("compression_ratio") < 0.5

    def test_pcap_trace_scenario(self, tmp_path):
        workload = SyntheticSensorWorkload(num_chunks=80, distinct_bases=4, seed=7)
        trace_path = tmp_path / "trace.pcap"
        workload.trace().to_pcap(trace_path)
        spec = ExperimentSpec.from_dict(
            {
                "name": "trace-test",
                "base": {"trace": str(trace_path), "chunks": 80},
                "axes": {"scenario": ["no_table", "static"]},
            }
        )
        result = MatrixRunner(spec, workers=1).run()
        by_id = {r.scenario_id: r for r in result.results}
        assert by_id["scenario=static"].metric("compression_ratio") < 0.2
        assert by_id["scenario=no_table"].metric("compression_ratio") > 1.0

    def test_run_scenario_is_deterministic(self):
        scenario = _spec().expand()[2]
        first = run_scenario(scenario)
        second = run_scenario(scenario)
        assert first.as_dict() == second.as_dict()


class TestFanInTopologyScenarios:
    """topology=fan-in scenarios run through the topology engine."""

    @staticmethod
    def _fan_in_spec(**base_overrides):
        base = {
            "workload": "synthetic", "chunks": 200, "bases": 3,
            "topology": "fan-in", "senders": 3, "seed": 5,
        }
        base.update(base_overrides)
        return ExperimentSpec.from_dict(
            {
                "name": "fanin-runner-test",
                "base": base,
                "axes": {"scenario": ["static", "dynamic"]},
            }
        )

    def test_fan_in_scenarios_report_per_flow_results(self):
        result = MatrixRunner(self._fan_in_spec(), workers=1).run()
        assert result.intact
        for scenario in result.results:
            flows = scenario.report["flows"]
            assert len(flows) == 3
            assert scenario.report["chunks_sent"] == 3 * 200
            assert scenario.metric("integrity.corrupted") == 0
        static = result.results[0]
        assert static.metric("compression_ratio") < 0.15

    def test_fan_in_sharded_equals_sequential(self):
        spec = self._fan_in_spec()
        sequential = MatrixRunner(spec, workers=1).run()
        sharded = MatrixRunner(spec, workers=2).run()
        assert sharded.json_text() == sequential.json_text()

    def test_flow_seeds_are_independent_of_worker_count(self):
        spec = self._fan_in_spec()
        for workers in (1, 2):
            result = MatrixRunner(spec, workers=workers).run()
            for scenario in result.results:
                from repro.topology import derive_flow_seed

                expected = [
                    derive_flow_seed(scenario.scenario_id, scenario.seed, f"flow{i}")
                    for i in range(3)
                ]
                assert [f["seed"] for f in scenario.report["flows"]] == expected

    def test_senders_parameter_is_validated(self):
        with pytest.raises(ReproError, match="senders"):
            ExperimentSpec.from_dict(
                {"name": "bad", "base": {"senders": 0}}
            )

    def test_fan_in_crosses_with_loss_axis(self):
        spec = ExperimentSpec.from_dict(
            {
                "name": "fanin-loss",
                "base": {
                    "workload": "synthetic", "chunks": 200, "bases": 3,
                    "topology": "fan-in", "senders": 2, "scenario": "no_table",
                },
                "axes": {"loss": [0.0, 0.05]},
            }
        )
        result = MatrixRunner(spec, workers=1).run()
        assert result.intact  # loss counts as missing, never corruption
        clean, lossy = result.results
        assert clean.metric("integrity.missing") == 0
        assert lossy.metric("integrity.missing") > 0


def test_linear_and_fan_in_scenarios_export_one_report_shape():
    """Every scenario of one matrix exports the same top-level keys,
    whatever its topology: one report type."""
    spec = ExperimentSpec.from_dict(
        {
            "name": "one-shape",
            "base": {"workload": "synthetic", "chunks": 100, "bases": 3, "senders": 2},
            "axes": {"topology": ["encoder-link-decoder", "fan-in"]},
        }
    )
    linear, fan_in = (run_scenario(scenario) for scenario in spec.expand())
    assert linear.axes["topology"] == "encoder-link-decoder"
    assert fan_in.axes["topology"] == "fan-in"
    assert set(linear.report) == set(fan_in.report)
    assert len(linear.report["flows"]) == 1
