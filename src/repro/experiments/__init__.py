"""Scenario-matrix experiments: declarative sweeps, sharded execution.

The paper's evaluation is a collection of sweeps — compression ratio and
learning delay across datasets, table sizes, chunk sizes and loss regimes.
This package turns one sweep into one artefact:

* :class:`~repro.experiments.spec.ExperimentSpec` — a validated JSON/TOML
  document of ``base`` parameters plus ``axes`` whose cross-product is the
  scenario matrix (with targeted ``overrides``);
* :class:`~repro.experiments.runner.MatrixRunner` — executes the matrix,
  optionally sharded across worker processes; every scenario is seeded
  deterministically from the spec, so parallel and sequential sweeps
  produce byte-identical reports;
* :class:`~repro.experiments.runner.MatrixResult` — the folded outcome:
  per-scenario topology reports, per-axis group-bys (mean ± 95 % CI), and
  CSV/JSON export.

Quick start::

    from repro.experiments import ExperimentSpec, MatrixRunner

    spec = ExperimentSpec.from_dict({
        "name": "loss-sweep",
        "base": {"workload": "synthetic", "chunks": 2000, "bases": 16},
        "axes": {"scenario": ["static", "dynamic"], "loss": [0.0, 0.02]},
    })
    result = MatrixRunner(spec, workers=4).run()
    print(result.render(group_axes=["scenario"]))
    result.to_csv("sweep.csv")

The CLI front-end is ``repro experiment --spec spec.json --workers N``;
preset specs live under ``examples/specs/``.
"""

from repro.experiments.spec import (
    DEFAULT_PARAMETERS,
    PARAMETERS,
    ExperimentSpec,
    ExperimentSpecError,
    ParameterSpec,
    Scenario,
)
from repro.experiments.runner import (
    MatrixResult,
    MatrixRunner,
    ScenarioResult,
    run_scenario,
    scenario_metric,
)

__all__ = [
    "DEFAULT_PARAMETERS",
    "PARAMETERS",
    "ExperimentSpec",
    "ExperimentSpecError",
    "ParameterSpec",
    "Scenario",
    "MatrixResult",
    "MatrixRunner",
    "ScenarioResult",
    "run_scenario",
    "scenario_metric",
]
