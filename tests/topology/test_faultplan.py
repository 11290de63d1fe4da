"""FaultPlan scenarios: determinism, loss attribution, crash recovery.

The fault-injection layer must obey the same contract as everything else
in the topology engine: same spec + seed ⇒ byte-identical report at any
worker count and any flow declaration order.  On top of that it carries
its own promises — control-frame loss is *attributed* (``control.*.dropped``)
and degrades delivery, never integrity; a decoder restarted mid-trace
resynchronises from the control plane with zero corruption.
"""

import json

import pytest

from repro.exceptions import TopologyError
from repro.topology import (
    EvictionStorm,
    FaultPlan,
    NodeRestart,
    TopologyEngine,
    TopologySpec,
    fan_in_topology,
    fault_storm_topology,
    load_fault_plan,
    partition_spec,
    rack_fan_in_topology,
    run_topology,
    validate_spec_faults,
)


def assert_reports_identical(first, second):
    """Byte-identical JSON plus per-registry equality for readable diffs."""
    first_metrics = first.metrics.as_dict()
    second_metrics = second.metrics.as_dict()
    for kind in ("counters", "gauges", "distributions"):
        assert first_metrics[kind] == second_metrics[kind], kind
    assert [flow.as_dict() for flow in first.flows] == [
        flow.as_dict() for flow in second.flows
    ]
    assert first.json_text() == second.json_text()


def faulty_rack_spec(**overrides):
    """Three racks under a full fault plan: loss, two restarts, a storm."""
    spec = rack_fan_in_topology(
        racks=3,
        senders=2,
        chunks=250,
        bases=4,
        packet_rate=1e5,
        control="in-network",
        **overrides,
    )
    spec.faults = FaultPlan(
        control_loss=0.05,
        restarts=(
            NodeRestart(node="decoder0", time=2.0e-3),
            NodeRestart(node="decoder2", time=2.2e-3),
        ),
        storms=(EvictionStorm(node="encoder1", time=2.1e-3, count=2),),
    )
    validate_spec_faults(spec)
    return spec


class TestFaultPlanSpec:
    def test_round_trips_through_spec_json(self):
        spec = faulty_rack_spec()
        rebuilt = TopologySpec.from_dict(json.loads(json.dumps(spec.as_dict())))
        assert rebuilt.as_dict() == spec.as_dict()
        assert rebuilt.faults.control_loss == pytest.approx(0.05)
        assert [restart.node for restart in rebuilt.faults.restarts] == [
            "decoder0",
            "decoder2",
        ]
        assert rebuilt.faults.storms[0].count == 2

    def test_inactive_plan_is_omitted_from_spec_dict(self):
        spec = fan_in_topology(control="in-network")
        spec.faults = FaultPlan()
        assert not spec.faults.active
        assert "faults" not in spec.as_dict()

    def test_restart_must_name_a_decoder(self):
        spec = fan_in_topology(control="in-network")
        spec.faults = FaultPlan(restarts=(NodeRestart(node="encoder", time=1e-3),))
        with pytest.raises(TopologyError, match="decoder"):
            validate_spec_faults(spec)

    def test_storm_must_name_an_encoder(self):
        spec = fan_in_topology(control="in-network")
        spec.faults = FaultPlan(
            storms=(EvictionStorm(node="decoder", time=1e-3, count=2),)
        )
        with pytest.raises(TopologyError, match="encoder"):
            validate_spec_faults(spec)

    def test_control_loss_requires_in_network_control(self):
        spec = fan_in_topology()  # direct control: no control link to impair
        spec.faults = FaultPlan(control_loss=0.1)
        with pytest.raises(TopologyError, match="in-network"):
            validate_spec_faults(spec)

    def test_load_fault_plan_inline_and_file(self, tmp_path):
        inline = load_fault_plan('{"control_loss": 0.25}')
        assert inline.control_loss == pytest.approx(0.25)
        path = tmp_path / "plan.json"
        path.write_text(
            '{"restarts": [{"node": "decoder", "time": 0.002}]}',
            encoding="utf-8",
        )
        from_file = load_fault_plan(str(path))
        assert from_file.restarts[0].node == "decoder"

    def test_unknown_fault_keys_rejected(self):
        with pytest.raises(TopologyError, match="unknown"):
            FaultPlan.from_dict({"control_loss": 0.1, "meteor_strike": True})

    def test_a_shard_engine_runs_only_its_own_fault_events(self):
        # A shard engine is built from the whole spec and its plan: it
        # schedules the restarts and storms of its own nodes, nothing else.
        spec = faulty_rack_spec()
        fired = {}
        for shard in partition_spec(spec):
            engine = TopologyEngine(spec, shard=shard.nodes)
            events = []
            engine.simulator.add_observer(
                lambda _time, description, events=events: events.append(description)
            )
            counters = engine.run().metrics.as_dict()["counters"]
            fired[shard.name] = [e for e in events if e.startswith("fault:")]
            assert counters["faults.restarts"] == fired[shard.name].count(
                f"fault:restart:decoder{shard.name[-1]}"
            )
            # Probabilistic impairments are per control link and stay the
            # whole plan's in every shard.
            [channel] = engine.control_channels.values()
            impairments = channel.link.impairments
            assert impairments.loss_probability == spec.faults.control_loss
        assert fired == {
            "encoder0": ["fault:restart:decoder0"],
            "encoder1": ["fault:storm:encoder1"],
            "encoder2": ["fault:restart:decoder2"],
        }


class TestDeterminism:
    def test_fault_scenario_byte_identical_across_workers(self):
        reports = [
            run_topology(faulty_rack_spec(), workers=workers)
            for workers in (1, 2, 4)
        ]
        assert_reports_identical(reports[0], reports[1])
        assert_reports_identical(reports[0], reports[2])
        # The faults actually fired in this scenario.
        counters = reports[0].metrics.as_dict()["counters"]
        assert counters["faults.restarts"] == 2
        assert counters["faults.storm_evicted"] > 0

    def test_fault_scenario_independent_of_flow_declaration_order(self):
        spec = faulty_rack_spec()
        data = spec.as_dict()
        data["flows"] = list(reversed(data["flows"]))
        reversed_spec = TopologySpec.from_dict(data)
        forward = run_topology(spec, workers=2)
        backward = run_topology(reversed_spec, workers=2)
        for flow in forward.flows:
            other = backward.flow(flow.name)
            assert other.seed == flow.seed
            assert other.chunks_sent == flow.chunks_sent
            assert other.delivered == flow.delivered
            assert other.integrity.as_dict() == flow.integrity.as_dict()
        assert (
            forward.metrics.as_dict()["counters"]
            == backward.metrics.as_dict()["counters"]
        )

    def test_rate_limited_control_byte_identical_across_workers(self):
        spec = faulty_rack_spec(control_rate=3000.0, control_queue=32)
        assert_reports_identical(
            run_topology(spec, workers=1), run_topology(spec, workers=4)
        )


class TestLossAttribution:
    def test_control_loss_is_counted_never_corrupts_flows(self):
        spec = fan_in_topology(
            senders=4,
            chunks=400,
            bases=6,
            packet_rate=1e5,
            control="in-network",
        )
        spec.faults = FaultPlan(control_loss=0.2)
        validate_spec_faults(spec)
        report = run_topology(spec, workers=1)
        counters = report.metrics.as_dict()["counters"]
        # Every lost control frame is attributed to the channel...
        assert counters["control.encoder.dropped"] > 0
        assert (
            counters["control.encoder.dropped"]
            == counters["control.encoder.link.dropped_loss"]
        )
        # ...and the damage shows up as missing deliveries, never as a
        # corrupted chunk: a stale decoder drops what it cannot decode.
        for flow in report.flows:
            assert flow.integrity.corrupted == 0

    def test_backpressure_drops_are_attributed_separately(self):
        spec = fan_in_topology(
            senders=4,
            chunks=400,
            bases=8,
            workload="thrash",
            packet_rate=1e5,
            control="in-network",
            control_rate=500.0,
            control_queue=2,
        )
        report = run_topology(spec, workers=1)
        counters = report.metrics.as_dict()["counters"]
        assert counters["control.encoder.dropped_backpressure"] > 0
        assert counters["control.encoder.deferred"] > 0
        assert counters["control.encoder.queue_depth"] > 0
        assert counters["control.encoder.dropped"] == (
            counters["control.encoder.dropped_backpressure"]
            + counters["control.encoder.link.dropped_loss"]
            + counters["control.encoder.link.dropped_queue"]
        )
        # A dropped install is rolled back by the control plane so the
        # basis stays learnable; integrity is untouched either way.
        for flow in report.flows:
            assert flow.integrity.corrupted == 0


class TestCrashRecovery:
    def test_decoder_restart_resynchronises_with_zero_corruption(self):
        # The acceptance scenario: mid-trace decoder restart under a lossy
        # control channel.  The decoder loses its identifier table, the
        # control plane replays its bindings over the same lossy channel,
        # and the stream suffers bounded loss — never corruption.
        spec = fault_storm_topology(chunks=400, senders=2)
        report_1 = run_topology(spec, workers=1)
        report_4 = run_topology(spec, workers=4)
        assert_reports_identical(report_1, report_4)
        counters = report_1.metrics.as_dict()["counters"]
        assert counters["faults.restarts"] == 1
        assert counters["controlplane.resyncs"] == 1
        assert counters["faults.resync_installs"] > 0
        assert counters["control.encoder.resync_applied"] > 0
        for flow in report_1.flows:
            assert flow.integrity.corrupted == 0
        assert report_1.metrics.counter("shared.delivered") > 0

    def test_restart_without_resyncable_state_is_harmless(self):
        # A restart scheduled before the control plane has learned
        # anything resynchronises zero bindings and corrupts nothing.
        spec = fault_storm_topology(chunks=200, senders=2, restart_at=1e-4)
        report = run_topology(spec, workers=1)
        counters = report.metrics.as_dict()["counters"]
        assert counters["faults.restarts"] == 1
        for flow in report.flows:
            assert flow.integrity.corrupted == 0
