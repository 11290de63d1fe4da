"""Sharded execution: partitioning, worker-count equivalence, determinism.

The contract under test is the tentpole of the sharded engine: same spec +
seed ⇒ byte-identical ``TopologyReport`` JSON at any worker count, with
partitioning failures named after the offending link/flow and worker
crashes named after the failing shard.
"""

import gc
import hashlib
import os
import pickle
import subprocess
import sys
import tracemalloc
from array import array
from collections import deque
from dataclasses import replace
from pathlib import Path

import pytest

from test_report_golden import GOLDEN, PRESETS

from repro.exceptions import TopologyError
from repro.net.packets import PacketKind
from repro.topology import (
    METRICS_MODES,
    FlowSpec,
    LinkSpec,
    NodeSpec,
    PartitionError,
    TopologyEngine,
    TopologySpec,
    fan_in_topology,
    linear_topology,
    partition_spec,
    preset_topology,
    rack_fan_in_topology,
    run_topology,
)
from repro.topology import sharding
from repro.topology.sharding import WORKERS_PAY_OFF_CHUNKS

from recorded_samples import recorded_samples

SRC = str(Path(__file__).resolve().parents[2] / "src")


def assert_reports_identical(first, second):
    """Byte-identical JSON plus explicit per-registry equality.

    ``json_text`` equality already implies the rest, but comparing every
    counter, gauge and distribution summary separately turns "the 60 kB
    JSON blobs differ" into "counter shared.delivered: 1198 != 1200".
    """
    first_metrics = first.metrics.as_dict()
    second_metrics = second.metrics.as_dict()
    for kind in ("counters", "gauges", "distributions"):
        assert first_metrics[kind] == second_metrics[kind], kind
    assert [flow.as_dict() for flow in first.flows] == [
        flow.as_dict() for flow in second.flows
    ]
    assert first.json_text() == second.json_text()


class TestWorkerCountEquivalence:
    def test_fan_in_workers_1_vs_4_byte_identical(self):
        spec = fan_in_topology(senders=4, chunks=400, bases=4)
        assert_reports_identical(
            run_topology(spec, workers=1), run_topology(spec, workers=4)
        )

    def test_rack_fan_in_workers_1_vs_4_byte_identical(self):
        spec = rack_fan_in_topology(racks=4, senders=2, chunks=200, bases=4)
        assert_reports_identical(
            run_topology(spec, workers=1), run_topology(spec, workers=4)
        )

    def test_streaming_metrics_workers_1_vs_4_byte_identical(self):
        spec = rack_fan_in_topology(racks=3, senders=2, chunks=200, bases=4)
        assert_reports_identical(
            run_topology(spec, workers=1, metrics_mode="streaming"),
            run_topology(spec, workers=4, metrics_mode="streaming"),
        )

    def test_single_shard_path_matches_monolithic_engine(self):
        spec = fan_in_topology(senders=3, chunks=300, bases=4)
        assert_reports_identical(
            TopologyEngine(spec).run(), run_topology(spec, workers=1)
        )

    def test_multi_shard_path_matches_monolithic_engine(self):
        spec = rack_fan_in_topology(racks=3, senders=2, chunks=150, bases=3)
        assert_reports_identical(
            TopologyEngine(spec).run(), run_topology(spec, workers=2)
        )

    def test_lossy_rack_spec_stays_identical_across_workers(self):
        spec = rack_fan_in_topology(
            racks=2, senders=2, chunks=300, bases=3,
            scenario="no_table", loss=0.03,
        )
        first = run_topology(spec, workers=1)
        second = run_topology(spec, workers=2)
        assert first.integrity.missing > 0
        assert_reports_identical(first, second)


    def test_a_shard_without_an_encoder_preloads_as_the_whole_spec_does(self):
        # Rack A has an encoder and its control plane; chain B is a
        # decoder with no encoder.  The whole spec has a control plane, so
        # the static preload goes through it alone and decoder B's table
        # stays empty — in B's shard too, which holds no control plane.
        spec = TopologySpec(
            name="mixed",
            scenario="static",
            nodes=[
                NodeSpec(name="senderA", kind="host"),
                NodeSpec(name="encoderA", kind="encoder",
                         forwarding={0: 1}, default_egress_port=1,
                         decoder="decoderA"),
                NodeSpec(name="decoderA", kind="decoder",
                         forwarding={0: 1}, default_egress_port=1),
                NodeSpec(name="sinkA", kind="host"),
                NodeSpec(name="senderB", kind="host"),
                NodeSpec(name="decoderB", kind="decoder",
                         forwarding={0: 1}, default_egress_port=1),
                NodeSpec(name="sinkB", kind="host"),
            ],
            links=[
                LinkSpec(name="inA", source=("senderA", 0),
                         target=("encoderA", 0), direct=True),
                LinkSpec(name="wireA", source=("encoderA", 1),
                         target=("decoderA", 0), measured=True),
                LinkSpec(name="outA", source=("decoderA", 1),
                         target=("sinkA", 0), direct=True),
                LinkSpec(name="inB", source=("senderB", 0),
                         target=("decoderB", 0)),
                LinkSpec(name="outB", source=("decoderB", 1),
                         target=("sinkB", 0), direct=True),
            ],
            flows=[
                FlowSpec(name="flowA", source="senderA", sink="sinkA",
                         chunks=20, bases=2),
                FlowSpec(name="flowB", source="senderB", sink="sinkB",
                         chunks=20, bases=2),
            ],
        )
        assert [shard.name for shard in partition_spec(spec)] == [
            "encoderA", "senderB"
        ]
        monolithic = TopologyEngine(spec).run()
        assert monolithic.metrics.as_dict()["gauges"]["decoderB.dictionary_entries"] == 0
        assert_reports_identical(monolithic, run_topology(spec, workers=2))

class TestOneFoldIdentity:
    """Monolithic ≡ one shard ≡ N shards, for every golden preset and mode.

    All three build their report with ``fold_report``; the monolithic run
    of ``rack-fan-in`` is the multi-encoder case, where one engine folds
    what the sharded run folds from two shard reports.
    """

    @pytest.mark.parametrize("metrics_mode", METRICS_MODES)
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_engine_one_shard_and_two_workers_give_one_json(
        self, preset, metrics_mode
    ):
        spec = preset_topology(preset, **PRESETS[preset])
        monolithic = TopologyEngine(spec, metrics_mode=metrics_mode).run()
        one = run_topology(spec, workers=1, metrics_mode=metrics_mode)
        two = run_topology(spec, workers=2, metrics_mode=metrics_mode)
        assert_reports_identical(monolithic, one)
        assert_reports_identical(one, two)
        digest = hashlib.md5(monolithic.json_text().encode("utf-8")).hexdigest()
        assert digest == GOLDEN[(preset, metrics_mode)]

    @pytest.mark.parametrize("metrics_mode", METRICS_MODES)
    def test_report_pickles_to_the_same_bytes(self, metrics_mode):
        # Shards hand their TopologyReport back as itself; what crosses the
        # process boundary must fold exactly like the original.
        spec = preset_topology("fan-in", **PRESETS["fan-in"])
        report = TopologyEngine(spec, metrics_mode=metrics_mode).run()
        clone = pickle.loads(pickle.dumps(report))
        assert clone.json_text() == report.json_text()
        for name, dist in report.metrics.distributions().items():
            twin = clone.metrics.distributions()[name]
            assert twin.bounded == dist.bounded
            if not dist.bounded:
                assert recorded_samples(twin) == recorded_samples(dist), name


class TestHashSeedDeterminism:
    def test_json_text_is_stable_across_hash_seeds(self):
        # dict iteration order is the classic source of hash-seed
        # sensitivity; the report digest must not move when it changes.
        code = (
            "import hashlib\n"
            "from repro.topology import fan_in_topology, run_topology\n"
            "spec = fan_in_topology(senders=3, chunks=120, bases=3)\n"
            "text = run_topology(spec, workers=1).json_text()\n"
            "print(hashlib.sha256(text.encode()).hexdigest())\n"
        )
        digests = set()
        for hash_seed in ("0", "1", "4242"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=SRC)
            result = subprocess.run(
                [sys.executable, "-c", code],
                env=env, capture_output=True, text=True, check=True,
            )
            digests.add(result.stdout.strip())
        assert len(digests) == 1


class TestPartitioning:
    def test_rack_preset_splits_one_shard_per_rack(self):
        spec = rack_fan_in_topology(racks=3, senders=2, chunks=50)
        shards = partition_spec(spec)
        assert [shard.name for shard in shards] == [
            "encoder0", "encoder1", "encoder2"
        ]
        for rack, shard in enumerate(shards):
            assert shard.nodes == (
                f"sender{rack}_0", f"sender{rack}_1", f"encoder{rack}",
                f"decoder{rack}", f"sink{rack}",
            )
            # The shard engine runs on the whole spec (its name and seed
            # derive every flow and link seed) and builds only the rack.
            engine = TopologyEngine(spec, shard=shard.nodes)
            assert engine.spec is spec
            assert sorted(engine.graph.nodes) == sorted(shard.nodes)
            assert [state.spec.name for state in engine.flow_states] == [
                f"flow{rack}_0", f"flow{rack}_1"
            ]
            assert [state.seed for state in engine.flow_states] == [
                spec.flow_seed(flow) for flow in spec.flows
                if flow.source in shard.nodes
            ]

    @pytest.mark.parametrize("explicit", [True, False])
    def test_shard_keeps_only_its_measured_link(self, explicit):
        # Each shard engine taps exactly the whole spec's measured links
        # among its nodes — the explicit marks, or without any the spec's
        # one fallback link, which only the shard holding it may tap.
        spec = rack_fan_in_topology(racks=2, senders=2, chunks=50)
        if not explicit:
            spec.links = [replace(link, measured=False) for link in spec.links]
        whole = [link.name for link in spec.measured_links]
        assert whole == (["wire0", "wire1"] if explicit else ["wire0"])
        taps = []
        for shard in partition_spec(spec):
            engine = TopologyEngine(spec, shard=shard.nodes)
            tapped = [name for name, _tap in engine.measured_taps]
            assert tapped == [
                link.name for link in spec.measured_links
                if link.source[0] in shard.nodes
            ]
            taps += tapped
        assert taps == whole
        assert_reports_identical(
            TopologyEngine(spec).run(), run_topology(spec, workers=2)
        )

    def test_single_component_spec_is_one_shard(self):
        spec = fan_in_topology(senders=5, chunks=50)
        shards = partition_spec(spec)
        assert len(shards) == 1
        assert shards[0].name == "encoder"
        assert shards[0].nodes == tuple(node.name for node in spec.nodes)
        engine = TopologyEngine(spec, shard=shards[0].nodes)
        assert len(engine.flow_states) == 5

    def _bridged_encoders_spec(self):
        return TopologySpec(
            name="bridged",
            scenario="no_table",
            nodes=[
                NodeSpec(name="senderA", kind="host"),
                NodeSpec(name="encoderA", kind="encoder",
                         forwarding={0: 1}, default_egress_port=1,
                         decoder="decoderA"),
                NodeSpec(name="encoderB", kind="encoder",
                         forwarding={0: 1}, default_egress_port=1,
                         decoder="decoderB"),
                NodeSpec(name="decoderA", kind="decoder",
                         forwarding={0: 1}, default_egress_port=1),
                NodeSpec(name="decoderB", kind="decoder",
                         forwarding={0: 1}, default_egress_port=1),
                NodeSpec(name="sinkA", kind="host"),
            ],
            links=[
                LinkSpec(name="inA", source=("senderA", 0),
                         target=("encoderA", 0), direct=True),
                LinkSpec(name="wireA", source=("encoderA", 1),
                         target=("decoderA", 0), measured=True),
                LinkSpec(name="outA", source=("decoderA", 1),
                         target=("sinkA", 0), direct=True),
                # The offender: a data link bridging the two encoder
                # subgraphs, so no process boundary can separate them.
                LinkSpec(name="bridge", source=("decoderA", 2),
                         target=("encoderB", 0)),
                LinkSpec(name="wireB", source=("encoderB", 1),
                         target=("decoderB", 0)),
            ],
            flows=[
                FlowSpec(name="flowA", source="senderA", sink="sinkA",
                         chunks=10, bases=2),
            ],
        )

    def test_bridged_encoders_rejected_naming_the_link(self):
        with pytest.raises(PartitionError, match=r"link 'bridge'"):
            partition_spec(self._bridged_encoders_spec())

    def test_unpartitionable_spec_still_runs_at_one_worker(self):
        spec = self._bridged_encoders_spec()
        report = run_topology(spec, workers=1)
        assert report.flow("flowA").delivered == 10

    def test_unpartitionable_spec_rejected_at_two_workers(self):
        with pytest.raises(PartitionError, match=r"link 'bridge'"):
            run_topology(self._bridged_encoders_spec(), workers=2)

    def test_shared_decoder_via_links_rejected_naming_the_link(self):
        spec = TopologySpec(
            name="shared-decoder",
            scenario="no_table",
            nodes=[
                NodeSpec(name="senderA", kind="host"),
                NodeSpec(name="senderB", kind="host"),
                NodeSpec(name="encoderA", kind="encoder",
                         forwarding={0: 1}, default_egress_port=1,
                         decoder="decoder"),
                NodeSpec(name="encoderB", kind="encoder",
                         forwarding={0: 1}, default_egress_port=1,
                         decoder="decoder"),
                NodeSpec(name="decoder", kind="decoder",
                         forwarding={0: 2}, default_egress_port=2),
                NodeSpec(name="sink", kind="host"),
            ],
            links=[
                LinkSpec(name="inA", source=("senderA", 0),
                         target=("encoderA", 0), direct=True),
                LinkSpec(name="inB", source=("senderB", 0),
                         target=("encoderB", 0), direct=True),
                LinkSpec(name="wireA", source=("encoderA", 1),
                         target=("decoder", 0), measured=True),
                LinkSpec(name="wireB", source=("encoderB", 1),
                         target=("decoder", 1)),
                LinkSpec(name="out", source=("decoder", 2),
                         target=("sink", 0), direct=True),
            ],
            flows=[
                FlowSpec(name="flowA", source="senderA", sink="sink",
                         chunks=10, bases=2),
            ],
        )
        # wireB is the link that funnels the second encoder into the
        # already-claimed decoder: it gets named, not a bare refusal.
        with pytest.raises(PartitionError, match=r"link 'wireB'"):
            partition_spec(spec)

    def test_pairing_only_decoder_sharing_names_the_encoders(self):
        # No data link joins the two encoder subgraphs — only encoderB's
        # explicit control pairing claims encoderA's decoder.  There is
        # no link to blame, so the error names the encoders instead.
        spec = TopologySpec(
            name="pairing-clash",
            scenario="no_table",
            nodes=[
                NodeSpec(name="senderA", kind="host"),
                NodeSpec(name="senderB", kind="host"),
                NodeSpec(name="encoderA", kind="encoder",
                         forwarding={0: 1}, default_egress_port=1,
                         decoder="decoder"),
                NodeSpec(name="encoderB", kind="encoder",
                         forwarding={0: 1}, default_egress_port=1,
                         decoder="decoder"),
                NodeSpec(name="decoder", kind="decoder",
                         forwarding={0: 1}, default_egress_port=1),
                NodeSpec(name="decoderB", kind="decoder",
                         forwarding={0: 1}, default_egress_port=1),
                NodeSpec(name="sinkA", kind="host"),
                NodeSpec(name="sinkB", kind="host"),
            ],
            links=[
                LinkSpec(name="inA", source=("senderA", 0),
                         target=("encoderA", 0), direct=True),
                LinkSpec(name="inB", source=("senderB", 0),
                         target=("encoderB", 0), direct=True),
                LinkSpec(name="wireA", source=("encoderA", 1),
                         target=("decoder", 0), measured=True),
                LinkSpec(name="wireB", source=("encoderB", 1),
                         target=("decoderB", 0)),
                LinkSpec(name="outA", source=("decoder", 1),
                         target=("sinkA", 0), direct=True),
                LinkSpec(name="outB", source=("decoderB", 1),
                         target=("sinkB", 0), direct=True),
            ],
            flows=[
                FlowSpec(name="flowA", source="senderA", sink="sinkA",
                         chunks=10, bases=2),
            ],
        )
        with pytest.raises(
            PartitionError, match=r"'encoderA', 'encoderB' share a decoder"
        ):
            partition_spec(spec)

    def test_cross_component_flow_rejected_naming_the_flow(self):
        spec = rack_fan_in_topology(racks=2, senders=2, chunks=10)
        spec.flows = [
            replace(flow, sink="sink1") if flow.name == "flow0_0" else flow
            for flow in spec.flows
        ]
        with pytest.raises(PartitionError, match=r"flow 'flow0_0'"):
            partition_spec(spec)


def _unpaired(nodes):
    for node in nodes:
        node.pop("decoder", None)


def _one_decoder_for_two(nodes):
    for node in nodes:
        if node.get("decoder") == "decoder1":
            node["decoder"] = "decoder0"


class TestOnePairingRule:
    """An encoder pairs with its explicit decoder, else the spec's only one.

    One rule decides it for spec validation, the engine and the
    partitioner, so a spec gets one verdict at every entry point and
    worker count.
    """

    def _data(self, scenario, change):
        data = rack_fan_in_topology(
            racks=2, senders=2, chunks=20, scenario=scenario
        ).as_dict()
        change(data["nodes"])
        return data

    @pytest.mark.parametrize("scenario", ["dynamic", "static"])
    @pytest.mark.parametrize(
        "change, message",
        [
            (_unpaired, "node 'encoder0': multiple decoder nodes exist; "
                        "set its 'decoder' pairing explicitly"),
            (_one_decoder_for_two, "node 'decoder0': paired with both "
                                   "'encoder0' and 'encoder1'; a decoder's "
                                   "identifier table serves one encoder"),
        ],
        ids=["unpaired", "shared"],
    )
    def test_a_pairing_gets_one_verdict_everywhere(self, scenario, change, message):
        data = self._data(scenario, change)
        # The engine and the partitioner ask the same rule, so a spec whose
        # scenario changes after validation is refused the same way.
        changed = TopologySpec.from_dict(dict(data, scenario="no_table"))
        changed.scenario = scenario
        entry_points = {
            "from_dict": lambda: TopologySpec.from_dict(data),
            "engine": lambda: TopologyEngine(changed),
            "workers=1": lambda: run_topology(changed, workers=1),
            "workers=2": lambda: run_topology(changed, workers=2),
        }
        for name, call in entry_points.items():
            with pytest.raises(TopologyError) as caught:
                call()
            assert type(caught.value) is TopologyError, name
            assert str(caught.value) == message, name

    def test_no_table_takes_an_unpaired_spec(self):
        # No control plane is built, so no encoder needs a decoder.
        spec = TopologySpec.from_dict(self._data("no_table", _unpaired))
        assert len(partition_spec(spec)) == 2
        assert_reports_identical(
            TopologyEngine(spec).run(), run_topology(spec, workers=2)
        )

    def test_no_table_takes_a_shared_decoder_but_cannot_split_it(self):
        # The documented exception: one component with two encoders runs
        # at one worker and is a PartitionError at more.
        spec = TopologySpec.from_dict(self._data("no_table", _one_decoder_for_two))
        assert_reports_identical(
            TopologyEngine(spec).run(), run_topology(spec, workers=1)
        )
        with pytest.raises(PartitionError, match=r"share a decoder"):
            run_topology(spec, workers=2)


class TestTheSpecReachesEachWorkerOnce:
    """A pool gets the whole spec once per worker, through its initializer;
    a shard's task carries only the shard."""

    def test_a_task_carries_only_its_shard(self, monkeypatch):
        seen = []
        mapped = sharding.map_across_workers

        def recording(function, tasks, workers):
            seen.append((function, tasks))
            return mapped(function, tasks, workers)

        monkeypatch.setattr(sharding, "map_across_workers", recording)
        spec = rack_fan_in_topology(racks=64, senders=16, chunks=1, bases=1)
        one = run_topology(spec, workers=1, metrics_mode="streaming")
        two = run_topology(spec, workers=2, metrics_mode="streaming")
        assert_reports_identical(one, two)
        assert len(pickle.dumps(spec)) > 100_000
        for function, tasks in seen:
            assert function.args[0] is spec and len(tasks) == 64
            assert max(len(pickle.dumps(task)) for task in tasks) < 1024


class TestWorkerCrashReporting:
    def _broken_rack_spec(self):
        # Rack 1's flows read a trace file that does not exist, so that
        # shard's worker crashes while rack 0 is perfectly healthy.
        spec = rack_fan_in_topology(racks=2, senders=2, chunks=20)
        spec.flows = [
            flow if flow.source.startswith("sender0")
            else replace(flow, trace="/nonexistent/trace.pcap")
            for flow in spec.flows
        ]
        return spec

    def test_sequential_crash_names_the_shard(self):
        with pytest.raises(TopologyError, match=r"shard 'encoder1'"):
            run_topology(self._broken_rack_spec(), workers=1)

    def test_pool_crash_names_the_shard_not_a_bare_traceback(self):
        with pytest.raises(TopologyError, match=r"shard 'encoder1'"):
            run_topology(self._broken_rack_spec(), workers=2)


class TestRunTopologyValidation:
    def test_zero_workers_rejected(self):
        spec = fan_in_topology(senders=2, chunks=10)
        with pytest.raises(TopologyError, match=r"workers must be"):
            run_topology(spec, workers=0)

    def test_bad_metrics_mode_rejected(self):
        spec = fan_in_topology(senders=2, chunks=10)
        with pytest.raises(TopologyError, match=r"metrics_mode"):
            run_topology(spec, metrics_mode="approximate")

    def test_progress_reports_every_shard(self):
        spec = rack_fan_in_topology(racks=3, senders=2, chunks=30)
        lines = []
        run_topology(spec, workers=1, progress=lines.append)
        assert len(lines) == 3
        assert any("encoder2" in line for line in lines)

    def test_a_pool_below_its_pay_off_size_is_said_once_and_still_used(self):
        """``--workers`` never slows a run down silently: below the measured
        crossover the progress callback is told, once, before the shards
        run — and the run goes ahead as asked, with the same report."""
        small = rack_fan_in_topology(racks=2, senders=2, chunks=30, scenario="static")
        assert sum(flow.chunks for flow in small.flows) < WORKERS_PAY_OFF_CHUNKS
        lines = []
        pooled = run_topology(small, workers=2, progress=lines.append)
        assert lines[0].startswith("note: 120 chunks is below")
        assert "workers=1 may be faster than workers=2" in lines[0]
        assert [line.startswith("note:") for line in lines] == [True, False, False]
        quiet = []
        assert run_topology(small, workers=1, progress=quiet.append).json_text() == (
            pooled.json_text()
        )
        assert not any(line.startswith("note:") for line in quiet)
        # One shard never starts a pool, whatever ``workers`` says.
        lines = []
        run_topology(fan_in_topology(senders=2, chunks=10), workers=2,
                     progress=lines.append)
        assert len(lines) == 1 and not lines[0].startswith("note:")
        # At or above the crossover there is nothing to say.
        big = rack_fan_in_topology(
            racks=2, senders=2, chunks=WORKERS_PAY_OFF_CHUNKS // 4, scenario="static"
        )
        lines = []
        run_topology(big, workers=2, metrics_mode="streaming", progress=lines.append)
        assert len(lines) == 2 and not any(line.startswith("note:") for line in lines)


def _tap_aggregates(engine):
    return [
        (
            name,
            tap.count_by_kind(),
            tap.payload_bytes_by_kind(),
            tap.total_frames(),
            tap.total_payload_bytes(),
            [tap.first_time_of_kind(kind) for kind in PacketKind],
        )
        for name, tap in engine.measured_taps
    ]


class TestStreamingMemoryBounds:
    def test_streaming_mode_retains_no_per_sample_state(self):
        spec = fan_in_topology(senders=3, chunks=200, bases=3)
        engine = TopologyEngine(spec, metrics_mode="streaming")
        report = engine.run()
        assert report.integrity.lossless_in_order
        # A tap keeps O(1) aggregates in either mode, so an exact run of the
        # same spec leaves exactly the same ones.
        exact = TopologyEngine(spec, metrics_mode="exact")
        exact.run()
        aggregates = _tap_aggregates(engine)
        assert aggregates and aggregates == _tap_aggregates(exact)
        assert report.wire_payload_bytes > 0
        # Flow accounts match online: after a lossless run the pending
        # table has drained, and a flow keeps counters and a fixed-size
        # sketch — no per-chunk container.
        for state in engine.flow_states:
            assert state.account.pending == {}
            assert not state.account.in_order
            assert state.latency.bounded
            assert not [
                name for name, value in vars(state).items()
                if isinstance(value, (list, dict, deque, array))
            ]
        # Links count every frame they carry and keep no per-frame delay.
        assert engine.graph.links
        for link in engine.graph.links:
            assert link.stats.delivered > 0
            assert len(link.stats.queueing_delays) == 0
        # Every distribution is a fixed-size sketch that keeps no samples.
        latency = report.metrics.distributions()["endtoend.latency"]
        assert latency.bounded and not hasattr(latency, "_samples")

    def test_the_control_plane_event_log_does_not_grow_with_traffic(self, monkeypatch):
        # A thrashing trace logs ~0.7 control-plane events per chunk and no
        # report reads them: the log keeps the newest and counts the rest.
        from repro.controlplane import events

        def run():
            spec = fan_in_topology(
                senders=2, workload="thrash", chunks=400, bases=10,
                packet_rate=1e5, identifier_bits=3, control="in-network",
            )
            engine = TopologyEngine(spec, metrics_mode="streaming")
            return engine.run().json_text(), engine.control_planes["encoder"].events

        unbounded_report, unbounded = run()
        assert unbounded.dropped == 0 and len(unbounded) > 300
        monkeypatch.setattr(events, "MAX_EVENTS", 50)
        bounded_report, bounded = run()
        assert len(bounded) == 50
        assert len(bounded) + bounded.dropped == len(unbounded)
        assert list(bounded) == list(unbounded)[-50:]
        assert bounded_report == unbounded_report

    def test_an_exact_run_keeps_samples_not_frames(self):
        # Exact mode keeps one packed double per latency and per queueing
        # delay (four a chunk over three hops) and no frame: what a
        # finished run holds grows by ~130 B a chunk on a lossy 3-hop DNS
        # chain. The bound sits below the ~390 B that keeping every
        # delivered frame as well would cost.
        def retained(chunks):
            spec = linear_topology(
                workload="dns", chunks=chunks, names=400, scenario="dynamic",
                hops=3, loss=0.01, reorder=0.01, queue_capacity=64,
                packet_rate=1e5, bandwidth_gbps=0.066, seed=2020,
            )
            gc.collect()
            tracemalloc.start()
            try:
                engine = TopologyEngine(spec, metrics_mode="exact")
                report = engine.run()
                gc.collect()
                current, _peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert report.integrity.intact and report.integrity.missing
            assert len(report.metrics.distributions()["endtoend.latency"]) > 0
            return current

        per_chunk = (retained(8000) - retained(2000)) / 6000
        assert per_chunk < 256

    def test_streaming_and_exact_agree_on_everything_but_percentiles(self):
        spec = rack_fan_in_topology(racks=2, senders=2, chunks=250, bases=4)
        exact = run_topology(spec, workers=1, metrics_mode="exact")
        streaming = run_topology(spec, workers=1, metrics_mode="streaming")
        assert exact.metrics.as_dict()["counters"] == (
            streaming.metrics.as_dict()["counters"]
        )
        assert exact.integrity.as_dict() == streaming.integrity.as_dict()
        assert exact.chunks_sent == streaming.chunks_sent
        assert exact.wire_payload_bytes == streaming.wire_payload_bytes
        assert exact.duration == streaming.duration
        exact_latency = exact.latency_summary()
        streaming_latency = streaming.latency_summary()
        assert streaming_latency["count"] == exact_latency["count"]
        assert streaming_latency["min"] == exact_latency["min"]
        assert streaming_latency["max"] == exact_latency["max"]
        for key in ("p50", "p90", "p99"):
            assert streaming_latency[key] == pytest.approx(
                exact_latency[key], rel=0.011
            )
