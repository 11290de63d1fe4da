"""Spec validation and cross-product expansion."""

import json

import pytest

from repro.experiments import (
    DEFAULT_PARAMETERS,
    ExperimentSpec,
    ExperimentSpecError,
)


def _spec(**kwargs):
    document = {
        "name": "test",
        "base": {"workload": "synthetic", "chunks": 100, "bases": 4},
        "axes": {"scenario": ["static", "dynamic"], "loss": [0.0, 0.02]},
    }
    document.update(kwargs)
    return ExperimentSpec.from_dict(document)


class TestExpansion:
    def test_cross_product_size(self):
        spec = _spec(axes={"scenario": ["no_table", "static", "dynamic"], "loss": [0.0, 0.01, 0.05], "hops": [1, 2]})
        assert spec.matrix_size == 18
        assert len(spec.expand()) == 18

    def test_axes_sorted_last_axis_fastest(self):
        spec = _spec()
        ids = [scenario.scenario_id for scenario in spec.expand()]
        assert ids == [
            "loss=0.0/scenario=static",
            "loss=0.0/scenario=dynamic",
            "loss=0.02/scenario=static",
            "loss=0.02/scenario=dynamic",
        ]
        assert [scenario.index for scenario in spec.expand()] == [0, 1, 2, 3]

    def test_defaults_then_base_then_axis_precedence(self):
        spec = _spec()
        scenario = spec.expand()[0]
        assert scenario.params["chunks"] == 100  # base overrides default
        assert scenario.params["scenario"] == "static"  # axis overrides base
        assert scenario.params["hops"] == DEFAULT_PARAMETERS["hops"]

    def test_no_axes_yields_single_point(self):
        spec = ExperimentSpec.from_dict({"name": "one", "base": {"chunks": 10}})
        scenarios = spec.expand()
        assert len(scenarios) == 1
        assert scenarios[0].scenario_id == "point"
        assert spec.matrix_size == 1

    def test_axes_recorded_per_scenario(self):
        scenario = _spec().expand()[3]
        assert scenario.axes == {"scenario": "dynamic", "loss": 0.02}

    def test_expansion_is_reproducible(self):
        spec = _spec()
        first = [scenario.as_dict() for scenario in spec.expand()]
        second = [scenario.as_dict() for scenario in spec.expand()]
        assert first == second


class TestSeeds:
    def test_seeds_distinct_and_stable(self):
        spec = _spec()
        seeds = [scenario.seed for scenario in spec.expand()]
        assert len(set(seeds)) == len(seeds)
        assert seeds == [scenario.seed for scenario in spec.expand()]

    def test_seed_depends_on_spec_seed(self):
        lhs = _spec(base={"seed": 1})
        rhs = _spec(base={"seed": 2})
        assert [s.seed for s in lhs.expand()] != [s.seed for s in rhs.expand()]

    def test_seed_depends_on_spec_name(self):
        lhs = _spec(name="sweep-a")
        rhs = _spec(name="sweep-b")
        assert [s.seed for s in lhs.expand()] != [s.seed for s in rhs.expand()]

    def test_seeds_non_negative(self):
        for scenario in _spec(base={"seed": -12345}).expand():
            assert 0 <= scenario.seed < 2**31


class TestOverrides:
    def test_override_applied_on_match_only(self):
        spec = _spec(
            overrides=[{"when": {"scenario": "static"}, "set": {"bases": 2}}]
        )
        by_id = {s.scenario_id: s for s in spec.expand()}
        assert by_id["loss=0.0/scenario=static"].params["bases"] == 2
        assert by_id["loss=0.0/scenario=dynamic"].params["bases"] == 4

    def test_override_with_multiple_conditions(self):
        spec = _spec(
            overrides=[
                {
                    "when": {"scenario": "static", "loss": 0.02},
                    "set": {"hops": 3},
                }
            ]
        )
        by_id = {s.scenario_id: s for s in spec.expand()}
        assert by_id["loss=0.02/scenario=static"].params["hops"] == 3
        assert by_id["loss=0.0/scenario=static"].params["hops"] == 1

    def test_override_on_non_axis_rejected(self):
        with pytest.raises(ExperimentSpecError, match="not an axis"):
            _spec(overrides=[{"when": {"hops": 1}, "set": {"bases": 2}}])

    def test_override_must_set_something(self):
        with pytest.raises(ExperimentSpecError, match="sets nothing"):
            _spec(overrides=[{"when": {"scenario": "static"}}])

    def test_override_set_validates_values(self):
        with pytest.raises(ExperimentSpecError, match="positive integer"):
            _spec(overrides=[{"when": {"scenario": "static"}, "set": {"bases": 0}}])

    def test_override_unknown_key_rejected(self):
        with pytest.raises(ExperimentSpecError, match="'when' and 'set'"):
            _spec(overrides=[{"when": {}, "set": {"bases": 2}, "extra": 1}])


class TestValidation:
    def test_unknown_axis_rejected(self):
        with pytest.raises(ExperimentSpecError, match="unknown axis 'los'"):
            _spec(axes={"los": [0.0, 0.1]})

    def test_unknown_base_parameter_rejected(self):
        with pytest.raises(ExperimentSpecError, match="unknown parameter"):
            _spec(base={"chunk_count": 100})

    def test_invalid_probability_rejected(self):
        with pytest.raises(ExperimentSpecError, match=r"\[0, 1\]"):
            _spec(axes={"loss": [0.0, 1.5]})

    def test_invalid_choice_rejected(self):
        with pytest.raises(ExperimentSpecError, match="must be one of"):
            _spec(axes={"scenario": ["static", "sideways"]})

    def test_non_positive_chunks_rejected(self):
        with pytest.raises(ExperimentSpecError, match="positive integer"):
            _spec(base={"chunks": 0})

    def test_bool_is_not_a_number(self):
        with pytest.raises(ExperimentSpecError):
            _spec(base={"loss": True})

    def test_duplicate_axis_value_rejected(self):
        with pytest.raises(ExperimentSpecError, match="twice"):
            _spec(axes={"loss": [0.0, 0.0]})

    def test_duplicate_after_normalisation_rejected(self):
        # 0 and 0.0 validate to the same point; the sweep must not silently
        # run it twice (duplicate scenario ids, identical seeds).
        with pytest.raises(ExperimentSpecError, match="twice"):
            _spec(axes={"loss": [0, 0.0]})

    def test_empty_axis_rejected(self):
        with pytest.raises(ExperimentSpecError, match="no values"):
            _spec(axes={"loss": []})

    def test_axis_must_be_a_list(self):
        with pytest.raises(ExperimentSpecError, match="list of values"):
            _spec(axes={"loss": 0.02})

    def test_unknown_spec_key_rejected(self):
        with pytest.raises(ExperimentSpecError, match="spec: unknown keys: axis"):
            ExperimentSpec.from_dict({"name": "x", "axis": {}})

    def test_spec_must_be_mapping(self):
        with pytest.raises(ExperimentSpecError, match="must be a mapping"):
            ExperimentSpec.from_dict(["not", "a", "mapping"])


class TestFiles:
    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(_spec().as_dict()))
        loaded = ExperimentSpec.from_file(path)
        assert [s.as_dict() for s in loaded.expand()] == [
            s.as_dict() for s in _spec().expand()
        ]

    def test_missing_file(self, tmp_path):
        with pytest.raises(ExperimentSpecError, match="does not exist"):
            ExperimentSpec.from_file(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ExperimentSpecError, match="invalid JSON"):
            ExperimentSpec.from_file(path)

    def test_toml_when_available(self, tmp_path):
        tomllib = pytest.importorskip("tomllib")
        del tomllib
        path = tmp_path / "spec.toml"
        path.write_text(
            'name = "toml-spec"\n'
            "[base]\n"
            'workload = "synthetic"\n'
            "chunks = 100\n"
            "[axes]\n"
            'scenario = ["static", "dynamic"]\n'
        )
        spec = ExperimentSpec.from_file(path)
        assert spec.name == "toml-spec"
        assert spec.matrix_size == 2

    def test_preset_specs_load(self):
        from pathlib import Path

        specs_dir = Path(__file__).resolve().parents[2] / "examples" / "specs"
        names = sorted(path.name for path in specs_dir.glob("*.json"))
        assert names == [
            "control_churn_sweep.json",
            "fanin_topology.json",
            "loss_table_sweep.json",
            "lossy_chain.json",
            "smoke.json",
        ]
        #: Topology specs, not experiment matrices: they load through
        #: repro.topology instead, with this many flows at least.
        topology_specs = {"fanin_topology.json": 4, "lossy_chain.json": 1}
        experiment_specs = 0
        for path in specs_dir.glob("*.json"):
            if path.name in topology_specs:
                from repro.topology import TopologySpec

                topo = TopologySpec.from_file(path)
                assert len(topo.flows) >= topology_specs[path.name]
                continue
            spec = ExperimentSpec.from_file(path)
            assert spec.matrix_size >= 4
            experiment_specs += 1
        assert experiment_specs == 3
