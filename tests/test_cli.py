"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser, main
from repro.workloads import SyntheticSensorWorkload


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands_parse(self):
        parser = build_parser()
        assert parser.parse_args(["claims"]).command == "claims"
        args = parser.parse_args(["compress", "a", "b", "--order", "4"])
        assert args.order == 4


class TestCompressDecompress:
    def test_file_roundtrip(self, tmp_path, capsys):
        workload = SyntheticSensorWorkload(num_chunks=200, distinct_bases=5, seed=1)
        original = tmp_path / "payload.bin"
        original.write_bytes(b"".join(workload.chunks()))
        container = tmp_path / "payload.gdz"
        restored = tmp_path / "restored.bin"

        assert main(["compress", str(original), str(container)]) == 0
        assert container.exists()
        assert main(["decompress", str(container), str(restored)]) == 0
        assert restored.read_bytes() == original.read_bytes()
        output = capsys.readouterr().out
        assert "container ratio" in output
        assert "restored" in output

    def test_compressed_container_is_smaller_for_clustered_data(self, tmp_path):
        workload = SyntheticSensorWorkload(num_chunks=500, distinct_bases=4, seed=2)
        original = tmp_path / "payload.bin"
        original.write_bytes(b"".join(workload.chunks()))
        container = tmp_path / "payload.gdz"
        main(["compress", str(original), str(container)])
        assert container.stat().st_size < original.stat().st_size / 2


class TestCodecSelection:
    @pytest.mark.parametrize("codec", ["gd", "gzip", "dedup", "null"])
    def test_roundtrip_every_registered_codec(self, codec, tmp_path, capsys):
        workload = SyntheticSensorWorkload(num_chunks=300, distinct_bases=5, seed=3)
        original = tmp_path / "payload.bin"
        original.write_bytes(b"".join(workload.chunks()) + b"tail")  # odd length
        packed = tmp_path / "payload.packed"
        restored = tmp_path / "restored.bin"

        assert main(["compress", str(original), str(packed), "--codec", codec]) == 0
        # No --codec on decompress: the format is sniffed from the magic.
        assert main(["decompress", str(packed), str(restored)]) == 0
        assert restored.read_bytes() == original.read_bytes()
        output = capsys.readouterr().out
        assert f"codec {codec}" in output

    def test_small_block_size_streams_correctly(self, tmp_path):
        workload = SyntheticSensorWorkload(num_chunks=400, distinct_bases=4, seed=9)
        original = tmp_path / "payload.bin"
        original.write_bytes(b"".join(workload.chunks()))
        packed = tmp_path / "payload.gdz"
        restored = tmp_path / "restored.bin"
        assert main(
            ["compress", str(original), str(packed), "--block-size", "96"]
        ) == 0
        assert main(
            ["decompress", str(packed), str(restored), "--block-size", "7"]
        ) == 0
        assert restored.read_bytes() == original.read_bytes()

    def test_codecs_command_lists_registry(self, capsys):
        assert main(["codecs"]) == 0
        output = capsys.readouterr().out
        for name in ("gd", "gzip", "dedup", "null"):
            assert name in output

    def test_codecs_backends_reports_batch_crc_capability(self, capsys):
        assert main(["codecs", "--backends"]) == 0
        output = capsys.readouterr().out
        assert "crc batch" in output
        lines = {line.split()[0]: line for line in output.splitlines()
                 if line.strip() and line.split()[0] in ("pure", "numpy")}
        # The pure fold never advertises an accelerated batch-CRC kernel.
        assert "no" in lines["pure"]
        from repro.core.backends import get_backend

        numpy_backend = get_backend("numpy")
        expected = "yes" if numpy_backend.available() else "no"
        assert expected in lines["numpy"]


class TestTraceCommands:
    def test_generate_and_replay_synthetic(self, tmp_path, capsys):
        pcap = tmp_path / "trace.pcap"
        assert main(
            ["generate-trace", "synthetic", str(pcap), "--chunks", "300", "--bases", "6"]
        ) == 0
        assert pcap.exists()
        assert main(["replay", str(pcap), "--scenario", "static"]) == 0
        output = capsys.readouterr().out
        assert "compression ratio" in output
        assert "lossless" in output

    def test_generate_dns_trace(self, tmp_path, capsys):
        pcap = tmp_path / "dns.pcap"
        assert main(
            ["generate-trace", "dns", str(pcap), "--chunks", "200", "--names", "20"]
        ) == 0
        assert "chunk packets" in capsys.readouterr().out

    def test_replay_dynamic_scenario(self, tmp_path):
        pcap = tmp_path / "trace.pcap"
        main(["generate-trace", "synthetic", str(pcap), "--chunks", "200", "--bases", "4"])
        assert main(["replay", str(pcap), "--scenario", "dynamic",
                     "--packet-rate", "50000"]) == 0


class TestClaimsCommand:
    def test_learning_delay_at_two_runs(self, capsys):
        assert main(["claims", "learning-delay", "--scale", "2"]) == 0
        output = capsys.readouterr().out
        # Seeds 0 and 1 through the paper-testbed preset, to the printed digit.
        assert "| (1.77 ± 0.08) ms | (1.777 ± 0.019) ms | 0.1 | calibrated | 2 runs |" in output

    def test_rows_print_as_the_docs_table_shows_them(self, capsys):
        from repro.analysis.figures import CLAIMS_HEADER

        assert main(["claims", "table-1", "figure-4"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == list(CLAIMS_HEADER)
        assert lines[2].startswith("| `table-1` |")
        assert "| 15 rows, 15 primitive | 0 | derived | — |" in lines[2]
        assert "| 3.584 / 84.000 / 99.734 Gbit/s |" in lines[3]
        assert len(lines) == 4

    def test_unknown_id_lists_the_valid_ones(self, capsys):
        from repro.analysis.figures import CLAIMS

        assert main(["claims", "table-1", "figure-6"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown claim 'figure-6'" in captured.err
        for claim in CLAIMS:
            assert claim.id in captured.err

    @pytest.mark.parametrize("scale", ["0", "-2"])
    def test_scale_must_be_positive(self, scale, capsys):
        assert main(["claims", "learning-delay", "--scale", scale]) == 1
        assert f"scale must be a positive integer, got {scale}" in capsys.readouterr().err

    def test_scale_on_a_scale_free_row_names_it(self, monkeypatch, capsys):
        from repro.topology import TopologyEngine

        def no_run(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(TopologyEngine, "run", no_run)
        assert main(["claims", "learning-delay", "figure-5", "--scale", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "claim 'figure-5' takes no scale" in captured.err

    def test_a_row_that_does_not_hold_exits_1(self, monkeypatch, capsys):
        import dataclasses

        from repro.analysis import figures

        table_1 = next(claim for claim in figures.CLAIMS if claim.id == "table-1")
        broken = dataclasses.replace(table_1, compute=lambda _scale: (15, 14))
        monkeypatch.setattr(figures, "CLAIMS", (broken,) + figures.CLAIMS[1:])
        assert main(["claims", "table-1", "table-2"]) == 1
        captured = capsys.readouterr()
        # Every selected row still prints; the failing one is named.
        assert "| 15 rows, 14 primitive |" in captured.out
        assert "| `table-2` |" in captured.out
        assert "not within tolerance of the paper: table-1" in captured.err


class TestReplayEmulation:
    @pytest.fixture()
    def pcap(self, tmp_path):
        path = tmp_path / "trace.pcap"
        main(["generate-trace", "synthetic", str(path), "--chunks", "400", "--bases", "5"])
        return path

    def test_trace_flag_and_topology(self, pcap, capsys):
        assert main(
            ["replay", "--trace", str(pcap), "--topology", "encoder-link-decoder",
             "--scenario", "static"]
        ) == 0
        import re

        output = capsys.readouterr().out
        assert "compression ratio" in output
        assert "latency p99" in output
        assert re.search(r"lossless\s+yes", output)

    def test_trace_must_be_given_exactly_once(self, pcap, capsys):
        assert main(["replay"]) == 1
        assert main(["replay", str(pcap), "--trace", str(pcap)]) == 1
        err = capsys.readouterr().err
        assert "exactly once" in err

    def test_lossy_replay_counts_drops_without_corruption(self, pcap, capsys):
        assert main(
            ["replay", str(pcap), "--scenario", "static", "--loss", "0.05",
             "--seed", "3", "--counters"]
        ) == 0
        import re

        output = capsys.readouterr().out
        assert re.search(r"integrity intact\s+yes", output)
        assert "link0.dropped_loss" in output

    def test_multi_hop_and_back_to_back(self, pcap):
        assert main(
            ["replay", str(pcap), "--scenario", "static", "--hops", "2",
             "--pacing", "back-to-back", "--bandwidth-gbps", "10"]
        ) == 0

    def test_encoder_only_topology(self, pcap, capsys):
        assert main(
            ["replay", str(pcap), "--topology", "encoder-only",
             "--scenario", "no_table"]
        ) == 0
        assert "encoder-only" in capsys.readouterr().out

    def test_json_report(self, pcap, tmp_path):
        import json

        out = tmp_path / "report.json"
        assert main(
            ["replay", str(pcap), "--scenario", "static", "--json", str(out)]
        ) == 0
        data = json.loads(out.read_text())
        assert data["integrity"]["lossless_in_order"] is True
        assert "metrics" in data

    def test_decoder_only_replays_processed_type2_trace(self, tmp_path, capsys):
        # Build a processed (all type-2) trace with an encoder-only chain,
        # then decode it from the CLI with a decoder-only topology.
        from arrival_capture import capture_arrivals
        from repro.net.pcap import PcapPacket, write_pcap
        from repro.topology import TopologyEngine, linear_topology

        encode = TopologyEngine(
            linear_topology(
                shape="encoder-only", scenario="no_table", chunks=300, bases=5
            )
        )
        arrivals = capture_arrivals(encode)
        encode.run()
        processed = tmp_path / "processed.pcap"
        write_pcap(
            processed,
            (PcapPacket(time, frame) for time, frame in arrivals),
        )

        assert main(
            ["replay", str(processed), "--topology", "decoder-only",
             "--scenario", "static", "--counters"]
        ) == 0
        import re

        output = capsys.readouterr().out
        assert re.search(r"decoder\.uncompressed_to_raw\s+300\b", output)


class TestReplayShapeErrors:
    def test_unknown_topology_error_lists_valid_choices(self, tmp_path, capsys):
        trace = tmp_path / "t.pcap"
        main(["generate-trace", "synthetic", str(trace), "--chunks", "10"])
        capsys.readouterr()
        assert main(["replay", str(trace), "--topology", "bogus"]) == 1
        err = capsys.readouterr().err
        # Not just the bad value: every linear shape plus the graph pointer.
        assert "'bogus'" in err
        assert "encoder-link-decoder, encoder-only, decoder-only" in err
        assert "'repro topology --preset'" in err

    def test_topology_name_is_case_insensitive(self, tmp_path, capsys):
        trace = tmp_path / "t.pcap"
        main(["generate-trace", "synthetic", str(trace), "--chunks", "10"])
        assert main(["replay", str(trace), "--topology", "Encoder-Only"]) == 0
        assert "topology encoder-only (dynamic)" in capsys.readouterr().out


class TestTopologyCommand:
    def test_fan_in_preset_runs_and_writes_json(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(
            ["topology", "--preset", "fan-in", "--senders", "3",
             "--scenario", "static", "--chunks", "200", "--bases", "3",
             "--json", str(out)]
        ) == 0
        output = capsys.readouterr().out
        assert "per-flow breakdown" in output
        assert "flow2" in output
        import json

        report = json.loads(out.read_text())
        assert report["chunks_sent"] == 600
        assert len(report["flows"]) == 3
        assert report["integrity"]["intact"] is True

    def test_spec_file_runs(self, tmp_path, capsys):
        import json

        from repro.topology import fan_in_topology

        path = tmp_path / "topo.json"
        spec = fan_in_topology(senders=2, chunks=100, bases=2, scenario="no_table")
        path.write_text(json.dumps(spec.as_dict()))
        assert main(["topology", "--spec", str(path), "--counters"]) == 0
        output = capsys.readouterr().out
        assert "counter breakdown" in output
        assert "shared.delivered" in output

    def test_unknown_preset_lists_presets(self, capsys):
        assert main(["topology", "--preset", "ring"]) == 1
        err = capsys.readouterr().err
        for name in ("linear", "fan-in", "paper-testbed"):
            assert name in err

    def test_spec_and_preset_are_mutually_exclusive(self, capsys):
        assert main(["topology"]) == 1
        assert main(["topology", "--preset", "linear", "--spec", "x.json"]) == 1
        err = capsys.readouterr().err
        assert "exactly once" in err

    def test_spec_validation_error_names_the_offender(self, tmp_path, capsys):
        import json

        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "name": "bad",
            "nodes": [{"name": "a", "kind": "host"}],
            "links": [{"name": "l", "source": "a:0", "target": "ghost:0"}],
            "flows": [],
        }))
        assert main(["topology", "--spec", str(path)]) == 1
        err = capsys.readouterr().err
        assert "link 'l'" in err
        assert "ghost" in err

    def test_in_network_control_flag(self, capsys):
        assert main(
            ["topology", "--preset", "fan-in", "--senders", "2",
             "--chunks", "600", "--bases", "2", "--control", "in-network"]
        ) == 0
        capsys.readouterr()

    def test_workers_must_be_positive(self, capsys):
        assert main(
            ["topology", "--preset", "fan-in", "--workers", "0"]
        ) == 1
        err = capsys.readouterr().err
        assert "--workers must be a positive integer" in err
        assert main(
            ["topology", "--preset", "fan-in", "--workers", "-2"]
        ) == 1

    def test_workers_two_runs_and_stays_identical(self, tmp_path, capsys):
        reports = []
        for workers, name in (("1", "one.json"), ("2", "two.json")):
            out = tmp_path / name
            assert main(
                ["topology", "--preset", "rack-fan-in", "--racks", "2",
                 "--senders", "2", "--chunks", "100", "--bases", "3",
                 "--workers", workers, "--quiet", "--json", str(out)]
            ) == 0
            reports.append(out.read_text())
        capsys.readouterr()
        assert reports[0] == reports[1]

    def test_quiet_suppresses_shard_progress(self, capsys):
        assert main(
            ["topology", "--preset", "fan-in", "--senders", "2",
             "--chunks", "100", "--bases", "2"]
        ) == 0
        assert "shard encoder" in capsys.readouterr().out
        assert main(
            ["topology", "--preset", "fan-in", "--senders", "2",
             "--chunks", "100", "--bases", "2", "--quiet"]
        ) == 0
        assert "shard encoder" not in capsys.readouterr().out

    def test_senders_flag_rejected_for_non_fan_in_presets(self, capsys):
        assert main(
            ["topology", "--preset", "linear", "--senders", "4"]
        ) == 1
        err = capsys.readouterr().err
        assert "--senders only applies" in err

    def test_senders_flag_reaches_every_preset_that_takes_it(self, capsys):
        # fault-storm is a fan-in: the guard asks the preset, not a list.
        assert main(
            ["topology", "--preset", "fault-storm", "--senders", "8",
             "--chunks", "200", "--quiet"]
        ) == 0
        out = capsys.readouterr().out
        assert "flow7" in out and "flow8" not in out

    def test_racks_flag_rejected_outside_rack_preset(self, capsys):
        assert main(
            ["topology", "--preset", "fan-in", "--racks", "2"]
        ) == 1
        err = capsys.readouterr().err
        assert "--racks only applies" in err

    def test_streaming_metrics_flag_runs(self, tmp_path, capsys):
        out = tmp_path / "streaming.json"
        assert main(
            ["topology", "--preset", "fan-in", "--senders", "2",
             "--chunks", "150", "--bases", "3", "--metrics", "streaming",
             "--quiet", "--json", str(out)]
        ) == 0
        capsys.readouterr()
        import json

        report = json.loads(out.read_text())
        assert report["integrity"]["intact"] is True
        assert report["latency"]["count"] == 300

    def test_lossy_spec_counts_drops_without_failing(self, tmp_path, capsys):
        import json
        import re

        from repro.topology import fan_in_topology

        spec = fan_in_topology(
            senders=2, chunks=400, bases=3, scenario="no_table", loss=0.05
        )
        path = tmp_path / "lossy.json"
        path.write_text(json.dumps(spec.as_dict()))
        # Loss on an impaired link is a counted failure mode: exit 0, but
        # the lost chunks show in the report.
        assert main(["topology", "--spec", str(path)]) == 0
        output = capsys.readouterr().out
        match = re.search(r"chunks lost\s+(\d+)", output)
        assert match and int(match.group(1)) > 0


class TestExperimentCommand:
    @pytest.fixture()
    def spec_path(self, tmp_path):
        import json

        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps(
                {
                    "name": "cli-test",
                    "base": {
                        "workload": "synthetic",
                        "chunks": 120,
                        "bases": 4,
                        "seed": 2020,
                    },
                    "axes": {
                        "scenario": ["no_table", "static"],
                        "loss": [0.0, 0.02],
                    },
                }
            )
        )
        return path

    def test_sweep_runs_and_prints_aggregate(self, spec_path, capsys):
        assert main(["experiment", "--spec", str(spec_path)]) == 0
        output = capsys.readouterr().out
        assert "experiment cli-test: 4 scenarios" in output
        assert "done loss=0.02/scenario=static" in output
        # One aggregate row per scenario, axis columns first.
        assert "loss  scenario" in output

    def test_sharded_sweep_matches_sequential_json(self, spec_path, tmp_path, capsys):
        sequential = tmp_path / "seq.json"
        sharded = tmp_path / "par.json"
        assert main(
            ["experiment", "--spec", str(spec_path), "--quiet",
             "--out", str(sequential)]
        ) == 0
        assert main(
            ["experiment", "--spec", str(spec_path), "--quiet",
             "--workers", "2", "--out", str(sharded)]
        ) == 0
        assert sequential.read_bytes() == sharded.read_bytes()
        capsys.readouterr()

    def test_group_by_and_csv(self, spec_path, tmp_path, capsys):
        csv_path = tmp_path / "sweep.csv"
        assert main(
            ["experiment", "--spec", str(spec_path), "--quiet",
             "--group-by", "scenario", "--metric", "compression_ratio",
             "--csv", str(csv_path)]
        ) == 0
        output = capsys.readouterr().out
        assert "compression_ratio by scenario" in output
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].startswith("loss,scenario,")
        assert len(lines) == 5

    def test_list_mode_does_not_run(self, spec_path, capsys):
        assert main(["experiment", "--spec", str(spec_path), "--list"]) == 0
        output = capsys.readouterr().out
        assert "4 scenarios" in output
        assert "done " not in output

    def test_missing_spec_errors(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert main(["experiment", "--spec", str(missing)]) == 1
        assert "does not exist" in capsys.readouterr().err

    def test_invalid_axis_errors(self, tmp_path, capsys):
        import json

        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "bad", "axes": {"los": [0.1]}}))
        assert main(["experiment", "--spec", str(path)]) == 1
        assert "unknown axis" in capsys.readouterr().err

    def test_group_by_typo_fails_before_running(self, spec_path, capsys):
        assert main(
            ["experiment", "--spec", str(spec_path), "--group-by", "los"]
        ) == 1
        captured = capsys.readouterr()
        assert "unknown group-by axis" in captured.err
        # The sweep must not have started.
        assert "done " not in captured.out


class TestBenchCommand:
    def test_list_names_every_benchmark_file(self, capsys):
        assert main(["bench", "--list"]) == 0
        output = capsys.readouterr().out
        assert "hotpath" in output
        assert "crc_fastpath" in output

    def test_unknown_benchmark_errors(self, capsys):
        assert main(["bench", "no-such-bench", "--list"]) == 1
        assert "unknown benchmark" in capsys.readouterr().err

    def test_profile_prints_encode_and_decode_tables(self, capsys):
        assert main(["bench", "--profile", "--profile-chunks", "400"]) == 0
        output = capsys.readouterr().out
        assert "=== encode: GDCodec.compress" in output
        assert "=== decode: decompress_records" in output
        assert "cumulative" in output

    def test_profile_accepts_named_stages(self, capsys):
        assert main(
            ["bench", "--profile", "transform", "switch-encode",
             "--profile-chunks", "200"]
        ) == 0
        output = capsys.readouterr().out
        assert "=== transform: split_batch_fields" in output
        assert "=== switch-encode:" in output
        assert "=== encode: GDCodec.compress" not in output

    def test_profile_switch_decode_stage(self, capsys):
        assert main(
            ["bench", "--profile", "switch-decode", "--profile-chunks", "200"]
        ) == 0
        assert "=== switch-decode:" in capsys.readouterr().out

    def test_profile_batch_stages(self, capsys):
        assert main(
            ["bench", "--profile", "crc-batch", "encode-batch", "decode-batch",
             "--profile-chunks", "200"]
        ) == 0
        output = capsys.readouterr().out
        assert "=== crc-batch: compute_batch" in output
        assert "=== encode-batch: compress + pack_stream" in output
        assert "=== decode-batch: columnar decompress_container" in output

    def test_profile_batch_stages_honor_backend_pin(self, capsys):
        assert main(
            ["bench", "--profile", "crc-batch", "--profile-chunks", "200",
             "--backend", "pure"]
        ) == 0
        assert "backend pure" in capsys.readouterr().out

    def test_profile_stage_typo_names_offender_and_valid_stages(self, capsys):
        assert main(["bench", "--profile", "encod"]) == 1
        err = capsys.readouterr().err
        assert "unknown profile stage 'encod'" in err
        # The error lists every registered stage.
        for stage in ("encode", "decode", "transform", "crc-batch",
                      "encode-batch", "decode-batch", "switch-encode",
                      "switch-decode"):
            assert stage in err


class TestObservabilityFlags:
    """The shared --trace-out/--events-out/--snapshot-interval flags."""

    def _run_topology(self, tmp_path, name, extra):
        out = tmp_path / name
        assert main(
            ["topology", "--preset", "fan-in", "--chunks", "60",
             "--bases", "3", "--quiet", "--json", str(out), *extra]
        ) == 0
        return out.read_text()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_report_bytes_identical_with_tracing_on_and_off(
        self, tmp_path, capsys, workers
    ):
        plain = self._run_topology(
            tmp_path, "plain.json", ["--workers", workers]
        )
        traced = self._run_topology(
            tmp_path, "traced.json",
            ["--workers", workers,
             "--trace-out", str(tmp_path / "trace.json"),
             "--events-out", str(tmp_path / "events.jsonl"),
             "--snapshot-interval", "0.00001"],
        )
        capsys.readouterr()
        assert traced == plain
        assert (tmp_path / "trace.json").exists()
        assert (tmp_path / "events.jsonl").exists()

    def test_trace_summarize_reads_both_formats(self, tmp_path, capsys):
        self._run_topology(
            tmp_path, "r.json",
            ["--trace-out", str(tmp_path / "trace.json"),
             "--events-out", str(tmp_path / "events.jsonl")],
        )
        capsys.readouterr()
        assert main(["trace", "summarize", str(tmp_path / "events.jsonl")]) == 0
        from_jsonl = capsys.readouterr().out
        assert main(["trace", "summarize", str(tmp_path / "trace.json")]) == 0
        from_chrome = capsys.readouterr().out
        for output in (from_jsonl, from_chrome):
            assert "encode" in output
            assert "p99" in output
            assert "slowest" in output

    def test_a_reader_closing_stdout_ends_the_output(self, tmp_path):
        """``repro trace summarize events.jsonl | head -1``: the closed pipe
        ends the output, not the command — exit 0, nothing on stderr (no
        ``error:`` line, no "Exception ignored" at interpreter exit)."""
        events = tmp_path / "events.jsonl"
        # 20,000 distinct instant names: a table far larger than a pipe's
        # buffer, so the command is still writing when the reader leaves.
        events.write_text("".join(
            json.dumps({"name": f"instant.{index}", "ph": "i", "ts": index,
                        "pid": 0, "tid": 0, "cat": "test", "s": "t"}) + "\n"
            for index in range(20000)
        ))
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.pathsep.join(filter(None, [
            str(Path(repro.__file__).resolve().parents[1]),
            environment.get("PYTHONPATH"),
        ]))
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "trace", "summarize", str(events)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=environment,
        )
        first = process.stdout.readline()
        process.stdout.close()
        stderr = process.stderr.read()
        assert process.wait(timeout=120) == 0, stderr
        assert first.startswith(b"20000 events")
        assert stderr == b""

    def test_trace_summarize_missing_file_errors(self, tmp_path, capsys):
        assert main(["trace", "summarize", str(tmp_path / "nope.jsonl")]) == 1
        assert "error" in capsys.readouterr().err

    def test_snapshot_interval_requires_an_output(self, capsys):
        assert main(
            ["topology", "--preset", "fan-in", "--chunks", "20",
             "--snapshot-interval", "0.001"]
        ) == 1
        err = capsys.readouterr().err
        assert "--snapshot-interval needs --trace-out or --events-out" in err

    def test_snapshot_interval_must_be_positive(self, tmp_path, capsys):
        assert main(
            ["topology", "--preset", "fan-in", "--chunks", "20",
             "--trace-out", str(tmp_path / "t.json"),
             "--snapshot-interval", "-1"]
        ) == 1
        assert "--snapshot-interval must be positive" in capsys.readouterr().err

    def test_replay_records_a_trace(self, tmp_path, capsys):
        trace = tmp_path / "chunks.pcap"
        assert main(
            ["generate-trace", "synthetic", str(trace), "--chunks", "120"]
        ) == 0
        events_out = tmp_path / "events.jsonl"
        assert main(
            ["replay", str(trace), "--events-out", str(events_out)]
        ) == 0
        capsys.readouterr()
        from repro.obs import read_events

        names = {event["name"] for event in read_events(str(events_out))}
        assert {"flow.inject", "link.serialize", "flow.arrive"} <= names

    def test_experiment_tracing_requires_sequential_workers(
        self, tmp_path, capsys
    ):
        spec = tmp_path / "spec.json"
        spec.write_text(
            '{"name": "t", "base": {"chunks": 50}, '
            '"axes": {"seed": [1, 2]}}'
        )
        assert main(
            ["experiment", "--spec", str(spec), "--workers", "2",
             "--events-out", str(tmp_path / "e.jsonl")]
        ) == 1
        assert "--workers 1" in capsys.readouterr().err

    def test_experiment_sequential_tracing_works(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(
            '{"name": "t", "base": {"chunks": 50}, '
            '"axes": {"seed": [1, 2]}}'
        )
        events_out = tmp_path / "e.jsonl"
        assert main(
            ["experiment", "--spec", str(spec), "--quiet",
             "--events-out", str(events_out)]
        ) == 0
        capsys.readouterr()
        assert events_out.exists()

    def test_tracer_is_disabled_after_a_run(self, tmp_path, capsys):
        self._run_topology(
            tmp_path, "r.json", ["--trace-out", str(tmp_path / "t.json")]
        )
        capsys.readouterr()
        from repro import obs

        assert not obs.TRACER.enabled
