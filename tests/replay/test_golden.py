"""Golden bytes of the linear runs' reports.

The md5 of ``TopologyReport.json_text()`` of a one-flow ``linear_topology``
run through ``TopologyEngine`` (what ``repro replay --json`` writes) is
pinned for every shape and scenario, for multi-hop, impaired and
pcap-driven runs; likewise the ``paper-testbed`` report (Figure 3 byte
accounting plus learning delay), and the
``repro experiment`` export of ``examples/specs/smoke.json`` at one and two
workers.  A refactor of the run loop leaves every value untouched; a change
to the model moves them, and then the new values are recorded on purpose,
in their own commit.
"""

import hashlib
from pathlib import Path

import pytest

from repro.cli import main
from repro.net.pcap import PcapPacket, write_pcap
from repro.replay import (
    ChunkTraceSource,
    FixedRatePacing,
    PcapTraceSource,
    RecordedPacing,
    WorkloadTraceSource,
)
from repro.topology import TopologyEngine, linear_topology, paper_testbed_topology
from repro.workloads import SyntheticSensorWorkload

from arrival_capture import capture_arrivals

#: 3 ms of traffic at 1 Mpkt/s: outlasts the ~1.8 ms learning delay, so the
#: dynamic runs see both packet types.
CHUNKS = 3000
BASES = 6
FLOW_SEED = 21

SMOKE_SPEC = Path(__file__).resolve().parents[2] / "examples" / "specs" / "smoke.json"


def workload():
    return SyntheticSensorWorkload(
        num_chunks=CHUNKS, distinct_bases=BASES, seed=FLOW_SEED
    )


def md5_of(report) -> str:
    return hashlib.md5(report.json_text().encode("utf-8")).hexdigest()


def run_chain(
    source=None, pacing=None, shape="encoder-link-decoder", static_bases=None, **params
):
    """One linear run: the sink's ``(time, frame)`` deliveries and the
    report.  ``params`` are ``linear_topology`` run parameters; the flow
    is seeded like the workload, and the static scenario preloads the
    workload's bases unless given."""
    if params.get("scenario") == "static" and static_bases is None:
        static_bases = workload().bases()
    engine = TopologyEngine(
        linear_topology(shape=shape, flow_seed=FLOW_SEED, **params),
        static_bases=static_bases,
    )
    arrivals = capture_arrivals(engine)
    report = engine.run(
        sources={
            "flow0": (
                source or WorkloadTraceSource(workload()),
                pacing or FixedRatePacing(packet_rate=1e6),
            )
        }
    )
    return arrivals, report


#: name -> ``run_chain`` keyword arguments (workload-driven, 1 Mpkt/s).
HARNESS_CASES = {
    "chain-no_table": dict(scenario="no_table"),
    "chain-static": dict(scenario="static"),
    "chain-dynamic": dict(scenario="dynamic"),
    "encoder-only-no_table": dict(shape="encoder-only", scenario="no_table"),
    "encoder-only-static": dict(shape="encoder-only", scenario="static"),
    "encoder-only-dynamic": dict(shape="encoder-only", scenario="dynamic"),
    "decoder-only-no_table": dict(shape="decoder-only", scenario="no_table"),
    "decoder-only-static": dict(shape="decoder-only", scenario="static"),
    "decoder-only-dynamic": dict(shape="decoder-only", scenario="dynamic"),
    "chain-dynamic-hops2": dict(scenario="dynamic", hops=2),
    "chain-dynamic-hops3": dict(scenario="dynamic", hops=3),
    "chain-dynamic-lossy": dict(
        scenario="dynamic", loss=0.04, reorder=0.03, link_seed=7
    ),
    "chain-dynamic-lossy-seed0": dict(
        scenario="dynamic", loss=0.04, reorder=0.03, link_seed=0
    ),
    "chain-dynamic-lossy-seed99": dict(
        scenario="dynamic", loss=0.04, reorder=0.03, link_seed=99
    ),
    "chain-no_table-hops3-lossy": dict(
        scenario="no_table", hops=3, loss=0.05, link_seed=3
    ),
}

HARNESS_GOLDEN = {
    "chain-no_table": "827ff4c34c08cd3caaa7d08ff53bde9c",
    "chain-static": "b6db4bead24dc2e6473cd9248da98166",
    "chain-dynamic": "0f18d3de745ab561ce231b984b99f2b0",
    "encoder-only-no_table": "66b35b8936968767d0b0aa22519c2138",
    "encoder-only-static": "3ae661fa8f8ec963555e6ff7d765b291",
    "encoder-only-dynamic": "130cc89a932c5c0fab2ae0ca41261921",
    "decoder-only-no_table": "5a4028eb3ce09bdaad294c62f8f57e47",
    "decoder-only-static": "b0b95425a05a020d73100d0f289098a2",
    "decoder-only-dynamic": "e8af5cd4fb85f10d088308228b75ac3c",
    "chain-dynamic-hops2": "b83d7469d3a55cec9d71e1b732fe249e",
    "chain-dynamic-hops3": "a49ffb17d59dc616c41fa56b9d9b6499",
    "chain-dynamic-lossy": "d812ae3e44b83db426e174c7e7244c57",
    "chain-dynamic-lossy-seed0": "88886c3ac108ec652a5dc4994a69cabe",
    "chain-dynamic-lossy-seed99": "ec31ac2ef756accd4fde6d80dbd720ea",
    "chain-no_table-hops3-lossy": "f1c5ea2d7ef8ea39e2e3a0ab9c1b7b38",
}


@pytest.mark.parametrize("case", sorted(HARNESS_CASES))
def test_harness_report_bytes_match_golden(case):
    _arrivals, report = run_chain(**HARNESS_CASES[case])
    assert md5_of(report) == HARNESS_GOLDEN[case]


def test_harness_cases_exercise_what_they_pin():
    """The pins only mean something if the runs do the interesting things."""
    _arrivals, dynamic = run_chain(scenario="dynamic")
    assert dynamic.learning_time is not None
    assert dynamic.metrics.counter("encoder.raw_to_compressed") > 0
    assert dynamic.integrity.lossless_in_order
    _arrivals, lossy = run_chain(**HARNESS_CASES["chain-dynamic-lossy"])
    assert lossy.integrity.missing > 0
    assert lossy.integrity.out_of_order > 0
    _arrivals, encoder_only = run_chain(shape="encoder-only", scenario="static")
    assert encoder_only.integrity is None
    assert encoder_only.metrics.counter("wire.compressed_packets") == CHUNKS


def test_pcap_driven_report_bytes_match_golden(tmp_path):
    path = tmp_path / "trace.pcap"
    workload().trace().to_pcap(path, packet_rate=500_000.0, nanosecond=True)
    _arrivals, report = run_chain(
        source=PcapTraceSource(path),
        pacing=RecordedPacing(speedup=2.0),
        scenario="dynamic",
    )
    assert report.flow("flow0").source == "pcap:trace.pcap"
    assert report.integrity.lossless_in_order
    assert md5_of(report) == "d94c4ece831a7958d4f8857cdc1597ce"


def test_decoder_only_processed_pcap_report_bytes_match_golden(tmp_path):
    """Explicit static bases on a decoder-only chain decode a type-3 trace."""
    trace = workload().trace()
    bases = workload().bases()
    encoded, _report = run_chain(
        source=ChunkTraceSource(trace),
        shape="encoder-only",
        scenario="static",
        static_bases=bases,
    )
    path = tmp_path / "processed.pcap"
    write_pcap(
        path,
        (PcapPacket(time, frame) for time, frame in encoded),
        nanosecond=True,
    )
    _arrivals, report = run_chain(
        source=PcapTraceSource(path),
        shape="decoder-only",
        scenario="no_table",
        static_bases=bases,
    )
    assert report.metrics.counter("decoder.compressed_to_raw") == CHUNKS
    assert report.metrics.counter("decoder.unknown_identifier") == 0
    assert md5_of(report) == "49be086b61a9d2377d045e4fc2c3e007"


#: ``paper-testbed`` runs of the workload's chunks, replayed the way the
#: two-switch deployment always replayed them: recorded 1 Mpkt/s timestamps.
TESTBED_GOLDEN = {
    "no_table": "56cedbe1902c4583fc0f3d304f628b04",
    "static": "8c881d0cfdf1e1946fa341056ec4d3a6",
    "dynamic": "9e1c8b8735d95daf101687ee6b59acb1",
}


@pytest.mark.parametrize("scenario", sorted(TESTBED_GOLDEN))
def test_paper_testbed_report_bytes_match_golden(scenario):
    engine = TopologyEngine(
        paper_testbed_topology(scenario=scenario),
        static_bases=workload().bases() if scenario == "static" else None,
    )
    arrivals = capture_arrivals(engine)
    report = engine.run(
        sources={"flow0": (ChunkTraceSource(workload().trace()), RecordedPacing())}
    )
    restored = [frame[14:] for _time, frame in arrivals]
    assert restored == workload().chunks()
    assert (report.learning_time is not None) == (scenario == "dynamic")
    assert md5_of(report) == TESTBED_GOLDEN[scenario]


@pytest.mark.parametrize("workers", [1, 2])
def test_experiment_smoke_export_bytes_match_golden(workers, tmp_path, capsys):
    out = tmp_path / "smoke.json"
    code = main(
        [
            "experiment", "--spec", str(SMOKE_SPEC), "--workers", str(workers),
            "--quiet", "--out", str(out),
        ]
    )
    capsys.readouterr()
    assert code == 0
    assert hashlib.md5(out.read_bytes()).hexdigest() == (
        "c2a80251fcde18d44933dd9d86aab34c"
    )
