"""Sharded execution of an experiment matrix and aggregation of its reports.

:func:`run_scenario` turns one :class:`~repro.experiments.spec.Scenario`
into a :class:`~repro.topology.spec.TopologySpec`, runs it through the
topology engine and captures the full report as plain data.  It is a
module-level function on purpose: worker processes must be able to pickle
it, and the spec carries *everything* (workload, impairments, seeds) from
the scenario's own parameters and seed, so where it runs — main process,
forked worker, spawned worker — cannot change the result.

:class:`MatrixRunner` fans the scenarios of a spec out across worker
processes with :mod:`multiprocessing` and reassembles the results in
scenario-index order.  Because every scenario is deterministically seeded
and self-contained, a sharded sweep produces **byte-identical** exports to
a sequential one — the property ``tests/experiments/test_runner.py``
asserts and ``benchmarks/bench_experiment_matrix.py`` measures the speedup
of.

:class:`MatrixResult` folds the per-scenario reports into the aggregate
views every sweep wants: one row per scenario, per-axis group-bys with
mean ± 95 % CI (via :func:`repro.analysis.experiment.summarize_groups`),
and CSV/JSON export for plotting.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Union

from repro.analysis.experiment import ExperimentResult, summarize_groups
from repro.analysis.reporting import format_table, save_results_json
from repro.exceptions import ReproError
from repro.experiments.spec import ExperimentSpec, Scenario
from repro.topology import fan_in_topology, linear_topology, run_topology
from repro.topology.faults import FaultPlan, validate_spec_faults
from repro.topology.sharding import map_across_workers
from repro.topology.spec import RUN_PARAMETERS

__all__ = [
    "ScenarioResult",
    "MatrixResult",
    "MatrixRunner",
    "run_scenario",
    "scenario_metric",
]

#: Columns of the per-scenario summary table and the CSV export.
SUMMARY_METRICS = (
    ("ratio", "compression_ratio"),
    ("savings_%", "savings_percent"),
    ("lat_p50_us", "latency.p50"),
    ("lat_p99_us", "latency.p99"),
    ("learning_ms", "learning_time"),
    ("lost", "integrity.missing"),
    ("corrupted", "integrity.corrupted"),
)

#: Metrics rendered in microseconds / milliseconds in the summary table.
_SCALE_US = {"latency.p50", "latency.p99"}
_SCALE_MS = {"learning_time"}


def scenario_metric(report: Mapping[str, Any], metric: str) -> Optional[float]:
    """Resolve a dotted metric path inside a serialised topology report.

    ``"compression_ratio"`` reads the top-level field, ``"latency.p99"``
    descends into the latency summary, ``"integrity.missing"`` into the
    integrity verdict, and ``"metrics.counters.link0.dropped_loss"`` into
    the raw counter dump.  Returns ``None`` when any step of the path is
    absent (e.g. the integrity verdict of an encoder-only run).
    """
    if metric.startswith("metrics.counters."):
        counters = report.get("metrics", {}).get("counters", {})
        value = counters.get(metric[len("metrics.counters."):])
        return None if value is None else float(value)
    node: Any = report
    for part in metric.split("."):
        if not isinstance(node, Mapping) or part not in node:
            return None
        node = node[part]
    if node is None:
        return None
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise ReproError(f"metric {metric!r} is not numeric (got {node!r})")
    return float(node)


@dataclass(frozen=True)
class ScenarioResult:
    """One executed scenario: its identity plus the serialised report."""

    index: int
    scenario_id: str
    axes: Dict[str, Any]
    seed: int
    report: Dict[str, Any] = field(default_factory=dict)

    def metric(self, metric: str) -> Optional[float]:
        """Shorthand for :func:`scenario_metric` on this result's report."""
        return scenario_metric(self.report, metric)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-friendly view (stable key order comes from the serialiser)."""
        return {
            "index": self.index,
            "scenario_id": self.scenario_id,
            "axes": dict(self.axes),
            "seed": self.seed,
            "report": self.report,
        }


def _scenario_spec(scenario: Scenario):
    """The scenario's parameters as a :class:`~repro.topology.spec.TopologySpec`.

    ``fan-in`` becomes ``senders`` concurrent flows sharing one ZipLine
    encoder, each with its own workload stream seeded from the spec/flow
    identity (the same CRC-32 scheme as scenario seeds), so the result is
    independent of flow scheduling order and of how the sweep is sharded.
    Every other topology is a one-flow linear chain of that shape, whose
    workload is seeded by the ``seed`` axis and whose link impairments and
    control plane by the scenario's derived seed.
    """
    params = scenario.params
    # What the topology schema owns goes through under its own name; the
    # spec seed is the scenario's derived one.
    shared = {key: value for key, value in params.items() if key in RUN_PARAMETERS}
    shared.update(name=scenario.scenario_id, seed=scenario.seed)
    # The control channel exists on the fan-in graph only (0 = unlimited).
    control = dict(
        control=shared.pop("control"), control_rate=shared.pop("control_rate") or None
    )
    if params["topology"] != "fan-in":
        return linear_topology(
            shape=params["topology"],
            flow_seed=params["seed"],
            link_seed=scenario.seed,
            **shared,
        )
    spec = fan_in_topology(senders=params["senders"], **control, **shared)
    if params["control_loss"]:
        spec.faults = FaultPlan(control_loss=params["control_loss"])
        validate_spec_faults(spec)
    return spec


def run_scenario(scenario: Scenario) -> ScenarioResult:
    """Execute one scenario end to end (this is the worker function).

    Everything is rebuilt from the scenario's parameters and derived seed,
    so the result is a pure function of the scenario — the invariant that
    makes sharded and sequential sweeps byte-identical.  Every topology
    runs as a spec through the topology engine and exports its
    :class:`~repro.topology.report.TopologyReport`, linear or fan-in alike.
    """
    # The sharded path at workers=1: scenario workers are already
    # processes, so the win is the shared partition/merge code — whose
    # single-shard report is byte-identical to the engine's.
    report = run_topology(_scenario_spec(scenario), workers=1)
    return ScenarioResult(
        index=scenario.index,
        scenario_id=scenario.scenario_id,
        axes=dict(scenario.axes),
        seed=scenario.seed,
        report=report.as_dict(),
    )


class MatrixResult:
    """The aggregate outcome of one matrix sweep."""

    def __init__(self, spec: ExperimentSpec, results: Sequence[ScenarioResult]):
        self.spec = spec
        self.results = sorted(results, key=lambda result: result.index)

    def __len__(self) -> int:
        return len(self.results)

    @property
    def axis_names(self) -> List[str]:
        """The swept axes, sorted — the leading columns of every table."""
        return self.spec.axis_names

    @property
    def intact(self) -> bool:
        """True when no scenario delivered a corrupted chunk.

        Scenarios without chunk-level integrity (e.g. decoder-only over a
        processed trace) fall back to the decoder's unknown-identifier
        counter — a decode that dropped packets it could not resolve must
        not report success, the same contract ``repro replay`` applies.
        """
        for result in self.results:
            corrupted = result.metric("integrity.corrupted")
            if corrupted is not None:
                if corrupted:
                    return False
                continue
            unknown = (
                result.metric("metrics.counters.decoder.unknown_identifier") or 0
            )
            if unknown:
                return False
        return True

    # -- aggregation -----------------------------------------------------------

    def group_by(self, axis: str, metric: str = "compression_ratio") -> List[ExperimentResult]:
        """Summarise ``metric`` per value of ``axis`` (mean ± 95 % CI).

        Scenarios whose report lacks the metric (e.g. no latency samples)
        are skipped, exactly like a plotting script would drop them.
        """
        if axis not in self.spec.axes:
            raise ReproError(
                f"unknown group-by axis {axis!r}; axes: {', '.join(self.axis_names) or 'none'}"
            )
        labeled = (
            (f"{axis}={result.axes[axis]}", result.metric(metric))
            for result in self.results
        )
        return summarize_groups(
            (label, value) for label, value in labeled if value is not None
        )

    # -- rendering -------------------------------------------------------------

    def summary_rows(self) -> List[List[object]]:
        """One row per scenario: axis values plus the headline metrics."""
        rows: List[List[object]] = []
        for result in self.results:
            row: List[object] = [result.axes[axis] for axis in self.axis_names]
            for _, metric in SUMMARY_METRICS:
                value = result.metric(metric)
                if value is None:
                    row.append("n/a")
                elif metric in _SCALE_US:
                    row.append(f"{value * 1e6:.2f}")
                elif metric in _SCALE_MS:
                    row.append(f"{value * 1e3:.3f}")
                elif metric in ("integrity.missing", "integrity.corrupted"):
                    row.append(f"{int(value)}")
                else:
                    row.append(f"{value:.4f}")
            rows.append(row)
        return rows

    def render(
        self,
        group_axes: Optional[Sequence[str]] = None,
        metric: str = "compression_ratio",
    ) -> str:
        """The aggregate table, plus one group-by table per requested axis."""
        headers = list(self.axis_names) + [label for label, _ in SUMMARY_METRICS]
        parts = [
            format_table(
                headers,
                self.summary_rows(),
                title=f"experiment {self.spec.name} ({len(self.results)} scenarios)",
            )
        ]
        for axis in group_axes or ():
            groups = self.group_by(axis, metric)
            rows = [
                [
                    result.name,
                    result.summary.count,
                    f"{result.summary.mean:.4f}",
                    f"{result.summary.ci95:.4f}",
                    f"{result.summary.minimum:.4f}",
                    f"{result.summary.maximum:.4f}",
                ]
                for result in groups
            ]
            parts.append(
                format_table(
                    ["group", "n", "mean", "ci95", "min", "max"],
                    rows,
                    title=f"{metric} by {axis}",
                )
            )
        return "\n\n".join(parts)

    # -- export ----------------------------------------------------------------

    def as_dict(self) -> Dict[str, Any]:
        """Everything the sweep produced, as JSON-friendly plain data."""
        return {
            "spec": self.spec.as_dict(),
            "scenarios": [result.as_dict() for result in self.results],
        }

    def json_text(self) -> str:
        """Canonical JSON serialisation (sorted keys, fixed indentation).

        This is the byte-identity witness: a sharded sweep must produce
        exactly this text.
        """
        return json.dumps(self.as_dict(), indent=2, sort_keys=True, default=str)

    def to_json(self, path: Union[str, Path]) -> Path:
        """Write the full result set as JSON."""
        return save_results_json(path, self.as_dict())

    def csv_text(self) -> str:
        """The summary table as CSV (axes first, then the headline metrics).

        Written through :mod:`csv` so axis values containing commas (e.g.
        trace paths) are quoted instead of corrupting the row.
        """
        headers = list(self.axis_names) + [label for label, _ in SUMMARY_METRICS]
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(headers)
        writer.writerows(self.summary_rows())
        return buffer.getvalue()

    def to_csv(self, path: Union[str, Path]) -> Path:
        """Write the summary table as a CSV file."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(self.csv_text(), encoding="utf-8")
        return target


class MatrixRunner:
    """Expand a spec and execute its scenarios, optionally sharded.

    Parameters
    ----------
    spec:
        The :class:`~repro.experiments.spec.ExperimentSpec` to sweep.
    workers:
        Worker processes.  1 (the default) runs sequentially in-process;
        N > 1 fans scenarios out over a process pool, one scenario per
        task, and reassembles results in scenario order.  Both paths
        produce byte-identical :meth:`MatrixResult.json_text` output.
    """

    def __init__(self, spec: ExperimentSpec, workers: int = 1):
        if workers <= 0:
            raise ReproError(f"workers must be positive, got {workers}")
        self.spec = spec
        self.workers = workers

    def run(
        self, progress: Optional[Callable[[ScenarioResult], None]] = None
    ) -> MatrixResult:
        """Execute the whole matrix and return the aggregate result.

        ``progress`` is invoked once per finished scenario (in completion
        order when sharded), for CLI feedback; it must not mutate results.
        """
        scenarios = self.spec.expand()
        if not scenarios:
            raise ReproError(f"spec {self.spec.name!r} expands to no scenarios")
        # Every scenario's topology is validated before the first one runs:
        # a refused point fails the sweep before any row is reported.
        for scenario in scenarios:
            _scenario_spec(scenario)
        results = []
        for result in map_across_workers(run_scenario, scenarios, self.workers):
            if progress is not None:
                progress(result)
            results.append(result)
        return MatrixResult(self.spec, results)
