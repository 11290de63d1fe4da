"""Golden report bytes for every shape the lookahead rule decides.

An edge into a switch program may hand a frame over at once, stamped with
its delivery instant, only when nothing can touch the program before that
stamp.  Each shape below falls on one side of that rule: a link into the
decoder (rack fan-in) and a direct encoder → decoder hop (the paper's
testbed) hand frames over; a reordering link, a control plane whose writes
are in flight over a lossy control link, and a decoder restart mid-trace
(one of them while frames are on the wire) keep their events.  Whichever side a shape falls on, the report bytes are
the ones recorded before the rule existed, at any worker count, traced or
not.

Three multi-hop chains were recorded before the rule was taken hop by hop
through every link of a chain: the benchmark's lossy, reordering 3-hop
DNS chain with a 64-frame queue (at 1/8 of its size), a 3-hop chain with
no impairments, and a dynamic 3-hop chain whose decoder restarts late in
the run.  Each is also cut, by ``run(until=t)`` while frames are queued on
its links (the report at the cut is pinned), and by ``max_events``.
``max_events`` counts events, which the rule exists to save, so where it
stops a run is not pinned; what the run that resumes the cut reports is.
"""

import hashlib

import pytest

from repro.core.backends import BACKEND_ENV

from repro import obs
from repro.topology import (
    FaultPlan,
    NodeRestart,
    fan_in_topology,
    fault_storm_topology,
    TopologyEngine,
    linear_topology,
    paper_testbed_topology,
    rack_fan_in_topology,
    run_topology,
    validate_spec_faults,
)


def _thrash(seed):
    spec = fan_in_topology(
        senders=3, workload="thrash", chunks=250, bases=10, packet_rate=1e5,
        identifier_bits=5, control="in-network", seed=seed,
    )
    spec.faults = FaultPlan(control_loss=0.1)
    validate_spec_faults(spec)
    return spec


def _restart_mid_flight(seed):
    """A decoder restart while fifty frames are on a 50 µs wire: the ones
    that land before the resync reaches the decoder are lost."""
    spec = linear_topology(
        chunks=200, bases=4, packet_rate=1e6, propagation_us=50.0,
        scenario="static", control="in-network", seed=seed,
    )
    spec.faults = FaultPlan(restarts=(NodeRestart(node="decoder", time=100.5e-6),))
    validate_spec_faults(spec)
    return spec


def _lossy_chain(seed):
    """The benchmark's ``dns-lossy-multihop`` spec at 1/8 of its size."""
    return linear_topology(
        workload="dns", chunks=2000, names=400, scenario="dynamic", hops=3,
        loss=0.01, reorder=0.01, queue_capacity=64, packet_rate=1e5,
        bandwidth_gbps=0.066, seed=seed,
    )


def _clean_chain(seed):
    return linear_topology(
        chunks=400, bases=8, packet_rate=1e5, hops=3, scenario="dynamic", seed=seed
    )


def _late_restart_chain(seed):
    """The clean chain, its decoder restarted 0.5 ms before the last frame
    is sent: a write pending for most of the run."""
    spec = _clean_chain(seed)
    spec.faults = FaultPlan(restarts=(NodeRestart(node="decoder", time=3.5e-3),))
    validate_spec_faults(spec)
    return spec


SHAPES = {
    "rack-fan-in-static": lambda seed: rack_fan_in_topology(
        racks=2, senders=3, chunks=120, bases=8, scenario="static", seed=seed
    ),
    "paper-testbed-static": lambda seed: paper_testbed_topology(
        chunks=300, bases=8, packet_rate=1e5, scenario="static", seed=seed
    ),
    "linear-static-reorder": lambda seed: linear_topology(
        chunks=300, bases=8, packet_rate=1e6, hops=2, reorder=0.05,
        scenario="static", seed=seed,
    ),
    "fan-in-thrash-control-loss": _thrash,
    "fault-storm": lambda seed: fault_storm_topology(senders=3, chunks=300, seed=seed),
    "linear-static-restart-mid-flight": _restart_mid_flight,
    "lossy-chain": _lossy_chain,
    "clean-chain": _clean_chain,
    "late-restart-chain": _late_restart_chain,
}

#: (shape, seed) -> md5 of the exact-mode ``json_text()``.
GOLDEN = {
    ("rack-fan-in-static", 2020): "434ea06589481c03af5a9a8b878ebcae",
    ("rack-fan-in-static", 4242): "06c3ef5c6818f29fadcea959d3f79fcc",
    ("paper-testbed-static", 2020): "edff74a32b4c095a30a867870ebc5585",
    ("paper-testbed-static", 4242): "e660b330130010c716f0403ad25647f7",
    ("linear-static-reorder", 2020): "3d8f1fe25073e42599c475918039be8a",
    ("linear-static-reorder", 4242): "7990dc0f180961713afdfecacc6b5152",
    ("fan-in-thrash-control-loss", 2020): "96431938a2528eb19ce51b71da230d53",
    ("fan-in-thrash-control-loss", 4242): "14c0e1414c5c276be6e0f3a0f4a29784",
    ("fault-storm", 2020): "7743b0a05c789ad45f5a3530521ba838",
    ("fault-storm", 4242): "63ef2a38bb3188cedf6cad0fd461a172",
    ("linear-static-restart-mid-flight", 2020): "6c361b49d8a1c57649cf689bb6ee259e",
    ("linear-static-restart-mid-flight", 4242): "9f365c66f91e3791c63583973dae2fef",
    ("lossy-chain", 2020): "5260d202a70b22178d10fb25bc9dddf8",
    ("lossy-chain", 4242): "c0be29629f92b1d7063340d03262464e",
    ("clean-chain", 2020): "d3f2a843f46307ba360117243f6b62ef",
    ("clean-chain", 4242): "e1c5aec11b904d024dbec63e3b67f222",
    ("late-restart-chain", 2020): "28afce08a22438b251f7402cb719853d",
    ("late-restart-chain", 4242): "36758eccff8c13a5252cdf7aeab5c930",
}


#: (shape, cut) -> how a run of the shape is cut: ``until`` falls while
#: frames are queued or in flight on the chain's links; ``max_events``
#: stops mid-run, and the run is then resumed to the end.
CUTS = {
    ("lossy-chain", "until=17.3e-3"): dict(until=17.3e-3),
    ("lossy-chain", "max_events=4000"): dict(max_events=4000),
    ("clean-chain", "until=2.0537e-3"): dict(until=2.0537e-3),
    ("clean-chain", "max_events=900"): dict(max_events=900),
    ("late-restart-chain", "until=3.52e-3"): dict(until=3.52e-3),
    ("late-restart-chain", "max_events=900"): dict(max_events=900),
}

#: (shape, cut, seed) -> md5 of the exact-mode ``json_text()`` at the cut
#: (``until``) or after the resumed run (``max_events``).
GOLDEN_CUT = {
    ("clean-chain", "max_events=900", 2020): "d3f2a843f46307ba360117243f6b62ef",
    ("clean-chain", "max_events=900", 4242): "e1c5aec11b904d024dbec63e3b67f222",
    ("clean-chain", "until=2.0537e-3", 2020): "76a2e07a33a7e513cebe78431ab48a02",
    ("clean-chain", "until=2.0537e-3", 4242): "1356ba38e64a1b05429e6b6bce47c1b6",
    ("late-restart-chain", "max_events=900", 2020): "28afce08a22438b251f7402cb719853d",
    ("late-restart-chain", "max_events=900", 4242): "36758eccff8c13a5252cdf7aeab5c930",
    ("late-restart-chain", "until=3.52e-3", 2020): "614769323d1811d9c84de0ae6173f866",
    ("late-restart-chain", "until=3.52e-3", 4242): "2d81fdf5608a462edb4b827f0fdd2ca8",
    ("lossy-chain", "max_events=4000", 2020): "5260d202a70b22178d10fb25bc9dddf8",
    ("lossy-chain", "max_events=4000", 4242): "c0be29629f92b1d7063340d03262464e",
    ("lossy-chain", "until=17.3e-3", 2020): "c2db88d32c9dbe80a38c9f61b093a26a",
    ("lossy-chain", "until=17.3e-3", 4242): "1c0bb5ba45b450b514b14237e366f82e",
}


def _traced(traced, run):
    saved = obs.TRACER
    if traced:
        obs.enable()
    try:
        report = run()
    finally:
        obs.TRACER = saved
    return hashlib.md5(report.json_text().encode("utf-8")).hexdigest()


def report_md5(shape, seed, workers, traced):
    return _traced(traced, lambda: run_topology(SHAPES[shape](seed), workers=workers))


def cut_md5(shape, cut, seed, traced=False):
    def run():
        engine = TopologyEngine(SHAPES[shape](seed))
        bound = CUTS[(shape, cut)]
        report = engine.run(**bound)
        if "max_events" in bound:
            engine.simulator.run()
            report = engine.report()
        return report

    return _traced(traced, run)


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("shape,seed", sorted(GOLDEN))
def test_report_bytes_match_golden(shape, seed, workers, traced):
    assert report_md5(shape, seed, workers, traced) == GOLDEN[(shape, seed)]


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("shape,cut,seed", sorted(GOLDEN_CUT))
def test_cut_run_bytes_match_golden(shape, cut, seed, traced):
    assert cut_md5(shape, cut, seed, traced) == GOLDEN_CUT[(shape, cut, seed)]


def _numpy_importable():
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


def test_one_report_across_backend_trace_and_workers(monkeypatch):
    """The determinism matrix on one spec: codec backend {pure, numpy} x
    traced/untraced x workers {1, 2} all print one report.  A numpy-less
    interpreter runs the pure axis only."""
    backends = ["pure", "numpy"] if _numpy_importable() else ["pure"]
    digests = set()
    for backend in backends:
        # Worker processes inherit the variable.
        monkeypatch.setenv(BACKEND_ENV, backend)
        for workers in (1, 2):
            for traced in (False, True):
                digests.add(report_md5("rack-fan-in-static", 4242, workers, traced))
    assert digests == {GOLDEN[("rack-fan-in-static", 4242)]}


def test_shapes_exercise_what_they_pin():
    """Each shape reaches the side of the rule it is here for."""
    counters = {
        shape: run_topology(build(2020)).metrics.as_dict()["counters"]
        for shape, build in SHAPES.items()
    }
    assert counters["rack-fan-in-static"]["wire0.reordered"] == 0
    assert counters["linear-static-reorder"]["link1.reordered"] > 0
    thrash = counters["fan-in-thrash-control-loss"]
    assert thrash["controlplane.mappings_learned"] > 0
    assert thrash["control.encoder.dropped"] > 0
    storm = counters["fault-storm"]
    assert storm["faults.restarts"] == 1
    assert storm["control.encoder.resync_applied"] > 0
    mid_flight = counters["linear-static-restart-mid-flight"]
    assert mid_flight["decoder.unknown_identifier"] > 0
    lossy = counters["lossy-chain"]
    for hop in range(3):
        assert lossy[f"link{hop}.reordered"] > 0
        assert lossy[f"link{hop}.dropped_loss"] > 0
    assert lossy["link0.max_queue_depth"] > 8
    clean = counters["clean-chain"]
    assert clean["controlplane.mappings_learned"] > 0
    assert not any(
        clean[f"link{hop}.{what}"]
        for hop in range(3)
        for what in ("reordered", "dropped_loss", "dropped_queue")
    )
    assert counters["late-restart-chain"]["faults.restarts"] == 1


if __name__ == "__main__":
    for key in sorted(GOLDEN):
        print(f"    {key!r}: {report_md5(*key, workers=1, traced=False)!r},")
    for shape, cut in sorted(CUTS):
        for seed in (2020, 4242):
            print(f"    {(shape, cut, seed)!r}: {cut_md5(shape, cut, seed)!r},")
