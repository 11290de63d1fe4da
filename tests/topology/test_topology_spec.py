"""TopologySpec validation, presets, and seed derivation."""

import json

import pytest

from repro.exceptions import TopologyError
from repro.topology import (
    TOPOLOGY_PRESETS,
    FlowSpec,
    LinkSpec,
    NodeSpec,
    TopologyEngine,
    TopologySpec,
    derive_flow_seed,
    derive_seed,
    fan_in_topology,
    linear_topology,
    paper_testbed_topology,
    preset_topology,
    run_topology,
)


def _minimal_dict():
    return {
        "name": "t",
        "nodes": [
            {"name": "a", "kind": "host"},
            {"name": "enc", "kind": "encoder", "forwarding": {"0": 1},
             "default_egress_port": 1},
            {"name": "dec", "kind": "decoder", "forwarding": {"0": 1},
             "default_egress_port": 1},
            {"name": "b", "kind": "host"},
        ],
        "links": [
            {"name": "in", "source": "a:0", "target": "enc:0", "direct": True},
            {"name": "wire", "source": "enc:1", "target": "dec:0",
             "measured": True},
            {"name": "out", "source": "dec:1", "target": "b:0", "direct": True},
        ],
        "flows": [
            {"name": "f", "source": "a", "sink": "b", "chunks": 10, "bases": 2},
        ],
    }


class TestValidationNamesOffender:
    """Spec errors must name the offending node, link, or flow."""

    def test_unknown_link_target_names_the_link(self):
        data = _minimal_dict()
        data["links"][1]["target"] = "decdoer:0"
        with pytest.raises(TopologyError, match=r"link 'wire'.*'decdoer'"):
            TopologySpec.from_dict(data)

    def test_unknown_node_kind_names_the_node(self):
        data = _minimal_dict()
        data["nodes"][0]["kind"] = "router"
        with pytest.raises(TopologyError, match=r"node 'a'.*kind"):
            TopologySpec.from_dict(data)

    def test_flow_at_non_host_names_the_flow(self):
        data = _minimal_dict()
        data["flows"][0]["source"] = "enc"
        with pytest.raises(TopologyError, match=r"flow 'f'.*'enc'.*not a host"):
            TopologySpec.from_dict(data)

    def test_flow_unknown_sink_names_the_flow(self):
        data = _minimal_dict()
        data["flows"][0]["sink"] = "ghost"
        with pytest.raises(TopologyError, match=r"flow 'f'.*unknown sink node 'ghost'"):
            TopologySpec.from_dict(data)

    def test_duplicate_link_names_the_link(self):
        data = _minimal_dict()
        data["links"].append(dict(data["links"][1]))
        with pytest.raises(TopologyError, match=r"link 'wire'.*more than once"):
            TopologySpec.from_dict(data)

    def test_duplicate_node_names_the_node(self):
        data = _minimal_dict()
        data["nodes"].append({"name": "a", "kind": "host"})
        with pytest.raises(TopologyError, match=r"node 'a'.*more than once"):
            TopologySpec.from_dict(data)

    def test_bad_port_ref_names_the_link(self):
        data = _minimal_dict()
        data["links"][0]["source"] = "a"
        with pytest.raises(TopologyError, match=r"link 'in'.*node:port"):
            TopologySpec.from_dict(data)

    def test_unknown_key_names_the_entity(self):
        data = _minimal_dict()
        data["links"][0]["bandwith_gbps"] = 10
        with pytest.raises(TopologyError, match=r"link 'in'.*bandwith_gbps"):
            TopologySpec.from_dict(data)

    def test_removed_batch_drain_key_is_an_unknown_key(self):
        data = _minimal_dict()
        data["batch_drain"] = True
        with pytest.raises(TopologyError, match=r"batch_drain"):
            TopologySpec.from_dict(data)

    def test_two_measured_links_are_accepted_and_enumerated(self):
        # Multi-rack topologies tap one wire per rack: several measured
        # links are legal, and measured_links lists them in order.
        data = _minimal_dict()
        data["links"][0] = dict(data["links"][0], direct=False, measured=True)
        spec = TopologySpec.from_dict(data)
        assert [link.name for link in spec.measured_links] == [
            link["name"] for link in data["links"] if link.get("measured")
        ]
        assert spec.measured_link.name == spec.measured_links[0].name

    def test_direct_link_cannot_have_hops(self):
        data = _minimal_dict()
        data["links"][0]["hops"] = 2
        with pytest.raises(TopologyError, match=r"link 'in'.*direct.*hops"):
            TopologySpec.from_dict(data)

    def test_encoder_pairing_must_be_a_decoder(self):
        data = _minimal_dict()
        data["nodes"][1]["decoder"] = "b"
        with pytest.raises(TopologyError, match=r"node 'enc'.*'b'.*not a decoder"):
            TopologySpec.from_dict(data)


def _dns_dict(order):
    data = _minimal_dict()
    data["order"] = order
    data["flows"][0].update(workload="dns", names=4)
    return data


#: A DNS chunk is 32 bytes, so at any order but 8 every frame would fail
#: the parser and the run would report a ratio of 0.0.
REFUSED = r"flow 'f': workload 'dns' sends 32-byte chunks, which only order 8 parses"


class TestDnsFlowsRunAtOrder8:
    """A DNS flow at another order is refused by name at every entry point."""

    def test_from_dict_refuses_the_flow(self):
        with pytest.raises(TopologyError, match=REFUSED + r"; the spec's order is 9"):
            TopologySpec.from_dict(_dns_dict(9))

    def test_the_engine_from_a_spec_file_refuses_the_flow(self, tmp_path):
        path = tmp_path / "dns.json"
        path.write_text(json.dumps(_dns_dict(7)))
        with pytest.raises(TopologyError, match=REFUSED):
            TopologyEngine(TopologySpec.from_file(path))

    def test_a_sharded_run_refuses_the_flow(self):
        with pytest.raises(TopologyError, match=REFUSED):
            run_topology(TopologySpec.from_dict(_dns_dict(9)), workers=2)

    def test_the_linear_preset_refuses_the_flow(self):
        with pytest.raises(TopologyError, match=r"flow 'flow0'.*only order 8"):
            linear_topology(workload="dns", chunks=200, names=20, order=9)

    def test_order_8_a_trace_or_another_workload_passes(self):
        TopologySpec.from_dict(_dns_dict(8))
        traced = _dns_dict(9)
        traced["flows"][0]["trace"] = "capture.pcap"
        TopologySpec.from_dict(traced)
        synthetic = _dns_dict(9)
        synthetic["flows"][0]["workload"] = "synthetic"
        TopologySpec.from_dict(synthetic)


class TestRoundTrip:
    def test_dict_round_trip_preserves_the_spec(self):
        spec = TopologySpec.from_dict(_minimal_dict())
        again = TopologySpec.from_dict(json.loads(json.dumps(spec.as_dict())))
        assert again.as_dict() == spec.as_dict()

    def test_from_file(self, tmp_path):
        path = tmp_path / "topo.json"
        path.write_text(json.dumps(_minimal_dict()))
        spec = TopologySpec.from_file(path)
        assert spec.name == "t"
        assert spec.measured_link.name == "wire"

    def test_missing_file_and_bad_json(self, tmp_path):
        with pytest.raises(TopologyError, match="does not exist"):
            TopologySpec.from_file(tmp_path / "nope.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        with pytest.raises(TopologyError, match="invalid JSON"):
            TopologySpec.from_file(bad)


class TestSeedDerivation:
    def test_matches_the_experiment_matrix_scheme(self):
        # One scheme for the whole repository: scenario seeds and flow seeds
        # come out of the same function.
        from repro.experiments.spec import ExperimentSpec

        spec = ExperimentSpec.from_dict(
            {"name": "demo", "axes": {"scenario": ["static", "dynamic"]}}
        )
        for scenario in spec.expand():
            assert scenario.seed == derive_seed("demo", 0, scenario.scenario_id)

    def test_flow_seed_is_a_pure_function_of_identity(self):
        assert derive_flow_seed("t", 7, "flow0") == derive_flow_seed("t", 7, "flow0")
        assert derive_flow_seed("t", 7, "flow0") != derive_flow_seed("t", 8, "flow0")
        assert derive_flow_seed("t", 7, "flow0") != derive_flow_seed("u", 7, "flow0")
        assert 0 <= derive_flow_seed("t", -3, "x") < 2**31

    def test_explicit_flow_seed_wins(self):
        spec = linear_topology(chunks=10, bases=2, flow_seed=42)
        assert spec.flow_seed(spec.flows[0]) == 42
        spec2 = linear_topology(chunks=10, bases=2)
        assert spec2.flow_seed(spec2.flows[0]) == derive_flow_seed(
            spec2.name, spec2.seed, "flow0"
        )


class TestPresets:
    def test_unknown_preset_lists_the_valid_ones(self):
        with pytest.raises(TopologyError) as excinfo:
            preset_topology("ring")
        message = str(excinfo.value)
        for name in TOPOLOGY_PRESETS:
            assert name in message

    def test_linear_keeps_harness_link_naming(self):
        assert linear_topology(hops=1).measured_link.hop_names() == ["link0"]
        assert linear_topology(hops=3).measured_link.hop_names() == [
            "link0", "link1", "link2",
        ]

    def test_fan_in_shapes(self):
        spec = fan_in_topology(senders=5, chunks=10, bases=2)
        assert sum(1 for node in spec.nodes if node.kind == "host") == 6
        assert len(spec.flows) == 5
        # All flows share one encoder and stagger their start times.
        starts = [flow.start for flow in spec.flows]
        assert len(set(starts)) == len(starts)
        assert spec.measured_link.name == "shared"

    def test_fan_in_needs_a_sender(self):
        with pytest.raises(TopologyError, match="senders must be a positive integer"):
            fan_in_topology(senders=0)

    def test_paper_testbed_hop_is_direct_and_measured(self):
        spec = paper_testbed_topology(chunks=10, bases=2)
        link = spec.measured_link
        assert link.direct
        assert link.measured


class TestNamespaceCollisions:
    def test_expanded_hop_names_cannot_collide(self):
        data = _minimal_dict()
        data["links"][1]["hops"] = 3  # 'wire' expands to wire0..wire2
        data["links"].append(
            {"name": "wire1", "source": "b:1", "target": "a:1", "direct": True}
        )
        with pytest.raises(TopologyError, match=r"hop name 'wire1' collides"):
            TopologySpec.from_dict(data)

    def test_two_links_from_one_egress_port_rejected(self):
        data = _minimal_dict()
        data["links"].append(
            {"name": "dup", "source": "a:0", "target": "b:0", "direct": True}
        )
        with pytest.raises(
            TopologyError, match=r"link 'dup'.*source a:0 is already used"
        ):
            TopologySpec.from_dict(data)


class TestDefaultEgressValidation:
    def test_malformed_default_egress_port_names_the_node(self):
        data = _minimal_dict()
        data["nodes"][1]["default_egress_port"] = "two"
        with pytest.raises(TopologyError, match=r"node 'enc'.*default_egress_port"):
            TopologySpec.from_dict(data)
