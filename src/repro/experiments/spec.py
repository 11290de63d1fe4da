"""Declarative scenario matrices: axes in, a cross-product of runs out.

The paper's headline results are *sweeps* — compression ratio and learning
delay across traces, table sizes, chunk sizes and loss regimes.  An
:class:`ExperimentSpec` captures one sweep declaratively instead of as a
shell loop:

* ``base`` — parameter values shared by every scenario (workload, chunk
  count, replay rate, …);
* ``axes`` — the swept dimensions, each a parameter name mapped to the list
  of values it takes; the matrix is the cross-product of all axes;
* ``overrides`` — targeted adjustments (``when`` an axis point matches,
  ``set`` these parameters), for the handful of combinations that need a
  tweak without adding a whole axis.

Every parameter is validated against the known parameter table
(:data:`PARAMETERS`), so a typo like ``"los": [0.1]`` is rejected at load
time rather than silently running an ideal link.  Expansion is fully
deterministic: axes are iterated in sorted name order, values in listed
order, and every scenario derives a stable seed from the spec seed and its
own identifier — the property the sharded runner relies on to make parallel
and sequential sweeps byte-identical.

>>> spec = ExperimentSpec.from_dict({
...     "name": "demo",
...     "base": {"workload": "synthetic", "chunks": 100, "bases": 4},
...     "axes": {"scenario": ["static", "dynamic"], "loss": [0.0, 0.02]},
... })
>>> spec.matrix_size
4
>>> [s.scenario_id for s in spec.expand()][:2]
['loss=0.0/scenario=static', 'loss=0.0/scenario=dynamic']
>>> spec.expand()[0].params["chunks"]
100

Specs load from JSON always and from TOML when the interpreter ships
``tomllib`` (Python ≥ 3.11); see :meth:`ExperimentSpec.from_file`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.exceptions import ReproError
from repro.topology.spec import (
    CONTROL_MODES,
    LINEAR_SHAPES,
    MAX_PORT,
    PACINGS,
    RUN_PARAMETERS,
    SCENARIOS,
    WORKLOADS,
    derive_seed,
)
from repro.validation import Validator

__all__ = [
    "ExperimentSpecError",
    "ParameterSpec",
    "PARAMETERS",
    "DEFAULT_PARAMETERS",
    "Scenario",
    "ExperimentSpec",
]


class ExperimentSpecError(ReproError):
    """An experiment spec failed validation."""


_check = Validator(ExperimentSpecError)


@dataclass(frozen=True)
class ParameterSpec:
    """One known scenario parameter: its validator — called as
    ``validate(where, name, value)`` — and its default."""

    name: str
    validate: Any
    default: Any
    help: str


def _listed(options: Sequence[str]) -> str:
    return ", ".join(f"`{option}`" for option in options)


def _shared(name: str, help: str) -> ParameterSpec:
    """A parameter :mod:`repro.topology.spec` owns: its default and its
    check (run under this module's error class); only ``help`` is ours."""
    default, check = RUN_PARAMETERS[name]
    return ParameterSpec(name, partial(check, _check), default, help)


#: Every parameter a scenario understands.  ``base``, every axis and every
#: override may only use these names; anything else is rejected at load time.
PARAMETERS: Dict[str, ParameterSpec] = {
    spec.name: spec
    for spec in (
        _shared(
            "workload",
            f"trace generator: {_listed(WORKLOADS)} (ignored when `trace` points at a pcap)",
        ),
        _shared("trace", "pcap file to replay instead of a workload"),
        _shared("chunks", "chunks (synthetic) or queries (dns) per scenario"),
        _shared("bases", "distinct bases of the synthetic workload"),
        _shared("names", "distinct names of the dns workload"),
        _shared("scenario", f"dictionary scenario: {_listed(SCENARIOS)}"),
        ParameterSpec(
            "topology",
            partial(_check.choice, options=LINEAR_SHAPES + ("fan-in",)),
            "encoder-link-decoder",
            f"replay topology: the chains {_listed(LINEAR_SHAPES)}, or the `fan-in` graph preset",
        ),
        ParameterSpec(
            "senders", partial(_check.positive_int, maximum=MAX_PORT), 4,
            "concurrent senders sharing the encoder (topology=fan-in)",
        ),
        _shared("hops", "emulated links in series"),
        _shared("pacing", f"injection pacing policy: {_listed(PACINGS)}"),
        _shared("packet_rate", "replay rate in packets/s (pacing=rate)"),
        _shared("speedup", "time compression for pacing=recorded"),
        _shared("bandwidth_gbps", "per-hop link bandwidth in Gbit/s"),
        _shared("propagation_us", "per-hop propagation delay in µs"),
        _shared("queue_capacity", "bounded link queue in frames (0 = unbounded)"),
        _shared("loss", "per-packet loss probability per hop"),
        _shared("reorder", "per-packet reorder probability per hop"),
        _shared("identifier_bits", "identifier width t (the table holds 2^t mappings)"),
        _shared("order", "Hamming order m (chunk size is 2^m bits)"),
        _shared(
            "control",
            f"how installs reach the decoder: {_listed(CONTROL_MODES)} (topology=fan-in)",
        ),
        ParameterSpec(
            "control_loss", _check.probability, 0.0,
            "control-frame loss probability (control=in-network)",
        ),
        ParameterSpec(
            "control_rate", _check.non_negative_number, 0,
            "control-channel pacing in commands/s (0 = unlimited; "
            "control=in-network)",
        ),
        _shared("seed", "spec-level seed every scenario seed derives from"),
    )
}

#: The fully-defaulted parameter dictionary a scenario starts from.
DEFAULT_PARAMETERS: Dict[str, Any] = {
    name: spec.default for name, spec in PARAMETERS.items()
}


def _validate_parameters(
    mapping: Mapping[str, Any], where: str
) -> Dict[str, Any]:
    """Validate a parameter mapping, returning normalised values."""
    validated: Dict[str, Any] = {}
    for name, value in _check.mapping("spec", where, mapping).items():
        if name not in PARAMETERS:
            known = ", ".join(sorted(PARAMETERS))
            raise ExperimentSpecError(
                f"{where}: unknown parameter {name!r}; known parameters: {known}"
            )
        validated[name] = PARAMETERS[name].validate(where, name, value)
    return validated


@dataclass(frozen=True)
class Scenario:
    """One fully-resolved point of the experiment matrix.

    ``axes`` holds only the swept values (the columns of the aggregate
    table); ``params`` is the complete parameter dictionary the runner
    executes; ``seed`` is the derived per-scenario seed.
    """

    index: int
    scenario_id: str
    axes: Dict[str, Any] = field(default_factory=dict)
    params: Dict[str, Any] = field(default_factory=dict)
    seed: int = 0

    def as_dict(self) -> Dict[str, Any]:
        """JSON-friendly view (used by exports and the ``--list`` mode)."""
        return {
            "index": self.index,
            "scenario_id": self.scenario_id,
            "axes": dict(self.axes),
            "params": dict(self.params),
            "seed": self.seed,
        }


@dataclass(frozen=True)
class _Override:
    """``set`` these parameters ``when`` the axis point matches."""

    when: Dict[str, Any]
    set: Dict[str, Any]

    def matches(self, axes: Mapping[str, Any]) -> bool:
        return all(axes.get(name) == value for name, value in self.when.items())


class ExperimentSpec:
    """A named, validated scenario matrix.

    Build one with :meth:`from_dict` / :meth:`from_file`, or directly::

        ExperimentSpec(name, base={...}, axes={...}, overrides=[...])
    """

    def __init__(
        self,
        name: str,
        base: Optional[Mapping[str, Any]] = None,
        axes: Optional[Mapping[str, Sequence[Any]]] = None,
        overrides: Optional[Iterable[Mapping[str, Any]]] = None,
    ):
        self.name = _check.string("spec", "name", name)
        self.base = _validate_parameters(base or {}, "base")
        self.axes: Dict[str, List[Any]] = {}
        for axis, values in _check.mapping("spec", "axes", axes or {}).items():
            if isinstance(values, (str, bytes)) or not isinstance(values, Sequence):
                raise ExperimentSpecError(
                    f"axis {axis!r} must map to a list of values, got {values!r}"
                )
            if not values:
                raise ExperimentSpecError(f"axis {axis!r} has no values")
            if axis not in PARAMETERS:
                known = ", ".join(sorted(PARAMETERS))
                raise ExperimentSpecError(
                    f"unknown axis {axis!r}; known parameters: {known}"
                )
            # Validate before deduplicating so values that normalise to the
            # same point (0 vs 0.0) cannot expand into duplicate scenarios.
            validated_values = []
            seen = set()
            for value in values:
                validated = PARAMETERS[axis].validate("axes", axis, value)
                key = repr(validated)
                if key in seen:
                    raise ExperimentSpecError(
                        f"axis {axis!r} lists the value {value!r} twice"
                    )
                seen.add(key)
                validated_values.append(validated)
            self.axes[axis] = validated_values
        self.overrides: List[_Override] = []
        for index, entry in enumerate(
            _check.sequence("spec", "overrides", overrides or [])
        ):
            if not isinstance(entry, Mapping) or set(entry) - {"when", "set"}:
                raise ExperimentSpecError(
                    f"override {index} must be a mapping with 'when' and 'set' keys"
                )
            when = _validate_parameters(entry.get("when", {}), f"override {index} when")
            for axis in when:
                if axis not in self.axes:
                    raise ExperimentSpecError(
                        f"override {index} matches on {axis!r}, which is not an axis"
                    )
            if not entry.get("set"):
                raise ExperimentSpecError(f"override {index} sets nothing")
            assigned = _validate_parameters(entry["set"], f"override {index} set")
            self.overrides.append(_Override(when=when, set=assigned))

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        """Build a spec from a plain dictionary (the JSON/TOML document)."""
        data = _check.mapping("spec", "document", data)
        _check.known_keys("spec", data, ("name", "base", "axes", "overrides"))
        return cls(
            name=data.get("name", "experiment"),
            base=data.get("base"),
            axes=data.get("axes"),
            overrides=data.get("overrides"),
        )

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "ExperimentSpec":
        """Load a spec from a ``.json`` or ``.toml`` file."""
        target = Path(path)
        if not target.exists():
            raise ExperimentSpecError(f"spec file {target} does not exist")
        text = target.read_bytes()
        if target.suffix.lower() == ".toml":
            try:
                import tomllib
            except ImportError:  # Python < 3.11: JSON is the portable format.
                raise ExperimentSpecError(
                    "TOML specs need Python >= 3.11 (tomllib); use JSON instead"
                ) from None
            try:
                document = tomllib.loads(text.decode("utf-8"))
            except tomllib.TOMLDecodeError as error:
                raise ExperimentSpecError(f"invalid TOML in {target}: {error}") from None
        else:
            try:
                document = json.loads(text)
            except ValueError as error:  # JSONDecodeError, or an integer past the digit limit
                raise ExperimentSpecError(f"invalid JSON in {target}: {error}") from None
        return cls.from_dict(document)

    # -- expansion -------------------------------------------------------------

    @property
    def axis_names(self) -> List[str]:
        """The swept parameter names, sorted (the expansion order)."""
        return sorted(self.axes)

    @property
    def matrix_size(self) -> int:
        """Number of scenarios the cross-product expands into."""
        size = 1
        for values in self.axes.values():
            size *= len(values)
        return size

    def expand(self) -> List[Scenario]:
        """The full scenario matrix, in deterministic order.

        Axes iterate in sorted name order with the *last* axis varying
        fastest (row-major over the sorted axes), so the expansion order —
        and therefore every scenario index and seed — is a pure function of
        the spec.
        """
        names = self.axis_names
        points: List[Tuple[Tuple[str, Any], ...]] = [()]
        for axis in names:
            points = [
                point + ((axis, value),)
                for point in points
                for value in self.axes[axis]
            ]
        spec_seed = self.base.get("seed", DEFAULT_PARAMETERS["seed"])
        scenarios: List[Scenario] = []
        for index, point in enumerate(points):
            axes = dict(point)
            params = dict(DEFAULT_PARAMETERS)
            params.update(self.base)
            params.update(axes)
            for override in self.overrides:
                if override.matches(axes):
                    params.update(override.set)
            scenario_id = (
                "/".join(f"{axis}={value}" for axis, value in sorted(axes.items()))
                or "point"
            )
            scenarios.append(
                Scenario(
                    index=index,
                    scenario_id=scenario_id,
                    axes=axes,
                    params=params,
                    # The repository-wide CRC-32 scheme: stable across
                    # processes, so sharded workers derive the same seed.
                    seed=derive_seed(self.name, spec_seed, scenario_id),
                )
            )
        return scenarios

    def as_dict(self) -> Dict[str, Any]:
        """The validated spec as a plain dictionary (round-trips to JSON)."""
        return {
            "name": self.name,
            "base": dict(self.base),
            "axes": {axis: list(values) for axis, values in self.axes.items()},
            "overrides": [
                {"when": dict(o.when), "set": dict(o.set)} for o in self.overrides
            ],
        }
