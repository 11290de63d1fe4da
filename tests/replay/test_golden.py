"""Golden bytes of the linear builders' reports.

The md5 of the canonical JSON of ``ReplayHarness(...).run(...).as_dict()``
is pinned for every harness shape and scenario, for multi-hop, impaired,
counters-only and pcap-driven runs; likewise ``ZipLineDeployment``'s
Figure 3 summary plus learning delay, and the ``repro experiment`` export
of ``examples/specs/smoke.json`` at one and two workers.  A refactor of the
run loop behind these classes leaves every value untouched; a change to the
model moves them, and then the new values are recorded on purpose, in their
own commit.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.net.pcap import PcapPacket, write_pcap
from repro.perfmodel.linkmodel import ImpairmentModel
from repro.replay import (
    ChunkTraceSource,
    FixedRatePacing,
    PcapTraceSource,
    RecordedPacing,
    ReplayHarness,
    WorkloadTraceSource,
)
from repro.workloads import SyntheticSensorWorkload
from repro.zipline import ZipLineDeployment

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


def md5_of(data) -> str:
    text = json.dumps(data, indent=2, sort_keys=True, default=str)
    return hashlib.md5(text.encode("utf-8")).hexdigest()


def run_harness(source=None, pacing=None, **kwargs):
    if kwargs.get("scenario") == "static":
        kwargs.setdefault("static_bases", workload().bases())
    if "impairments" in kwargs:
        kwargs["impairments"] = ImpairmentModel(**kwargs["impairments"])
    harness = ReplayHarness(**kwargs)
    report = harness.run(
        source or WorkloadTraceSource(workload()),
        pacing or FixedRatePacing(packet_rate=1e6),
    )
    return harness, report


#: name -> ReplayHarness keyword arguments (workload-driven, 1 Mpkt/s;
#: ``impairments`` holds the ImpairmentModel arguments, built fresh per run).
HARNESS_CASES = {
    "chain-no_table": dict(scenario="no_table"),
    "chain-static": dict(scenario="static"),
    "chain-dynamic": dict(scenario="dynamic"),
    "encoder-only-no_table": dict(topology="encoder-only", scenario="no_table"),
    "encoder-only-static": dict(topology="encoder-only", scenario="static"),
    "encoder-only-dynamic": dict(topology="encoder-only", scenario="dynamic"),
    "decoder-only-no_table": dict(topology="decoder-only", scenario="no_table"),
    "decoder-only-static": dict(topology="decoder-only", scenario="static"),
    "decoder-only-dynamic": dict(topology="decoder-only", scenario="dynamic"),
    "chain-dynamic-hops2": dict(scenario="dynamic", hops=2),
    "chain-dynamic-hops3": dict(scenario="dynamic", hops=3),
    "chain-dynamic-lossy": dict(
        scenario="dynamic",
        impairments=dict(loss_probability=0.04, reorder_probability=0.03, seed=7),
    ),
    "chain-dynamic-lossy-seed0": dict(
        scenario="dynamic",
        impairments=dict(loss_probability=0.04, reorder_probability=0.03, seed=0),
    ),
    "chain-dynamic-lossy-seed99": dict(
        scenario="dynamic",
        impairments=dict(loss_probability=0.04, reorder_probability=0.03, seed=99),
    ),
    "chain-no_table-hops3-lossy": dict(
        scenario="no_table",
        hops=3,
        impairments=dict(loss_probability=0.05, seed=3),
    ),
    "chain-dynamic-counters-only": dict(scenario="dynamic", verify_integrity=False),
}

HARNESS_GOLDEN = {
    "chain-no_table": "1718df3ed56dbeec309c86ad39405049",
    "chain-static": "c7c8b3eeb6c542b6e9631a960f7d177e",
    "chain-dynamic": "af10f9b7a36ef07552801832b12e8947",
    "encoder-only-no_table": "ad8cef7a44d81fae53823c563d8ecf8c",
    "encoder-only-static": "de0e303fd3531ff6ae0a38b5384b3521",
    "encoder-only-dynamic": "ff5f294601d94fb7a326f6a2aa55e04e",
    "decoder-only-no_table": "fa24b5fe526ebee79a078ac181b00038",
    "decoder-only-static": "80e0c61c95d79a4e409243de8681649a",
    "decoder-only-dynamic": "7b807bb09084e6d884e60b16cba67232",
    "chain-dynamic-hops2": "a1091f12feee3e9bff336168adcfe270",
    "chain-dynamic-hops3": "bbae06800ef343a40158efe186691339",
    "chain-dynamic-lossy": "bfb2a6c1c5235c287673ce422c277b7c",
    "chain-dynamic-lossy-seed0": "d5ea4ca300201974d7a41924c3a933f8",
    "chain-dynamic-lossy-seed99": "2e8fe0e5bdb8d904e0be33780b14dbe2",
    "chain-no_table-hops3-lossy": "c18ba6e1c000f6130bd8e9ef6234f8c0",
    "chain-dynamic-counters-only": "aa46fe012cc3bce8e5b8d3dc500eaff3",
}


@pytest.mark.parametrize("case", sorted(HARNESS_CASES))
def test_harness_report_bytes_match_golden(case):
    _harness, report = run_harness(**HARNESS_CASES[case])
    assert md5_of(report.as_dict()) == HARNESS_GOLDEN[case]


def test_harness_cases_exercise_what_they_pin():
    """The pins only mean something if the runs do the interesting things."""
    _harness, dynamic = run_harness(scenario="dynamic")
    assert dynamic.learning_time is not None
    assert dynamic.metrics.counter("encoder.raw_to_compressed") > 0
    assert dynamic.integrity.lossless_in_order
    _harness, lossy = run_harness(**HARNESS_CASES["chain-dynamic-lossy"])
    assert lossy.integrity.missing > 0
    assert lossy.integrity.out_of_order > 0
    _harness, encoder_only = run_harness(topology="encoder-only", scenario="static")
    assert encoder_only.integrity is None
    assert encoder_only.metrics.counter("wire.compressed_packets") == CHUNKS


def test_pcap_driven_report_bytes_match_golden(tmp_path):
    path = tmp_path / "trace.pcap"
    workload().trace().to_pcap(path, packet_rate=500_000.0, nanosecond=True)
    _harness, report = run_harness(
        source=PcapTraceSource(path),
        pacing=RecordedPacing(speedup=2.0),
        scenario="dynamic",
    )
    assert report.source == "pcap:trace.pcap"
    assert report.integrity.lossless_in_order
    assert md5_of(report.as_dict()) == "2de88282ef54c803d0554b201c2bc1f0"


def test_decoder_only_processed_pcap_report_bytes_match_golden(tmp_path):
    """Explicit static bases on a decoder-only chain decode a type-3 trace."""
    trace = workload().trace()
    bases = workload().bases()
    encode, _report = run_harness(
        source=ChunkTraceSource(trace),
        topology="encoder-only",
        scenario="static",
        static_bases=bases,
    )
    path = tmp_path / "processed.pcap"
    write_pcap(
        path,
        (PcapPacket(time, frame) for time, frame in encode.sink.arrivals),
        nanosecond=True,
    )
    _harness, report = run_harness(
        source=PcapTraceSource(path),
        topology="decoder-only",
        scenario="no_table",
        static_bases=bases,
    )
    assert report.metrics.counter("decoder.compressed_to_raw") == CHUNKS
    assert report.metrics.counter("decoder.unknown_identifier") == 0
    assert md5_of(report.as_dict()) == "7bd99e1f6b81b3d84edab8ea2cd920dd"


DEPLOYMENT_GOLDEN = {
    "no_table": "92a1181e93487a9a1ce5524d52290daf",
    "static": "ff667bc21ade8f920abbbcd51888d82d",
    "dynamic": "850fc176bb598ed55a76f5784e379837",
}


@pytest.mark.parametrize("scenario", sorted(DEPLOYMENT_GOLDEN))
def test_deployment_summary_bytes_match_golden(scenario):
    deployment = ZipLineDeployment(
        scenario=scenario,
        static_bases=workload().bases() if scenario == "static" else None,
    )
    summary = deployment.replay_and_run(workload().chunks(), packet_rate=1e6)
    assert deployment.verify_lossless(workload().chunks())
    pinned = {
        "summary": deployment.summary().as_dict(),
        "learning_time": deployment.learning_time(),
    }
    assert pinned["summary"] == summary.as_dict()
    assert md5_of(pinned) == DEPLOYMENT_GOLDEN[scenario]


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
        "c00629e16d470ca9c4f61ac5b51e89c1"
    )
