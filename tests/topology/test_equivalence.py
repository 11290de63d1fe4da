"""Equivalence: a spec-only linear chain reproduces the pinned in-memory runs.

``tests/replay/test_golden.py`` pins the md5 of linear runs fed a
caller-built source (``HARNESS_CASES``, with explicit static bases).  Here
the same chains are described purely as :func:`linear_topology` specs — no
in-memory source, no explicit bases — and run through
:class:`TopologyEngine`; their ``json_text()`` must equal the in-memory
run's: same ratios, counters, integrity verdicts, latency distributions and
simulated timeline, bit for bit, across the figure-3 scenarios and under
loss, reordering and multi-hop paths.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.topology import TopologyEngine, linear_topology

_spec = importlib.util.spec_from_file_location(
    "replay_golden", Path(__file__).parents[1] / "replay" / "test_golden.py"
)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def run_engine(scenario, hops=1, loss=0.0, reorder=0.0, link_seed=0):
    spec = linear_topology(
        scenario=scenario,
        hops=hops,
        chunks=golden.CHUNKS,
        bases=golden.BASES,
        flow_seed=golden.FLOW_SEED,
        loss=loss,
        reorder=reorder,
        link_seed=link_seed,
        seed=0,
    )
    return TopologyEngine(spec).run()


def assert_matches_pin(engine_report, case):
    _engine, in_memory = golden.run_chain(**golden.HARNESS_CASES[case])
    assert engine_report.json_text() == in_memory.json_text()


@pytest.mark.parametrize("scenario", ["no_table", "static", "dynamic"])
def test_linear_one_flow_matches_harness(scenario):
    assert_matches_pin(run_engine(scenario), f"chain-{scenario}")


def test_dynamic_scenario_actually_compressed():
    # Guard the parametrised equivalence against a trivially-empty run: the
    # dynamic scenario must have learned and compressed.
    report = run_engine("dynamic")
    assert report.learning_time is not None
    assert report.metrics.counter("encoder.raw_to_compressed") > 0


@pytest.mark.parametrize("hops", [2, 3])
def test_multi_hop_matches_harness(hops):
    assert_matches_pin(run_engine("dynamic", hops=hops), f"chain-dynamic-hops{hops}")


@pytest.mark.parametrize("link_seed", [0, 7, 99])
def test_lossy_reordered_link_matches_harness(link_seed):
    """Property over impairment seeds: identical loss/reorder trajectories."""
    report = run_engine("dynamic", loss=0.04, reorder=0.03, link_seed=link_seed)
    assert report.integrity.missing > 0
    suffix = "" if link_seed == 7 else f"-seed{link_seed}"
    assert_matches_pin(report, f"chain-dynamic-lossy{suffix}")


def test_multi_hop_lossy_matches_harness():
    assert_matches_pin(
        run_engine("no_table", hops=3, loss=0.05, link_seed=3),
        "chain-no_table-hops3-lossy",
    )
