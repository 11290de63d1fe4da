"""Declarative, seeded fault injection for topology runs.

A :class:`FaultPlan` describes everything that goes wrong during a run:

* **control-channel impairments** — loss/reorder probabilities applied to
  every in-network control link (through the same seeded
  :class:`~repro.replay.link.ImpairmentModel` the data links use,
  with a per-encoder seed derived from the spec identity, so the fault
  stream is independent of sharding);
* **node restarts** — at a scheduled simulated time a decoder loses its
  identifier table; the owning control plane then resynchronises it by
  replaying every known binding over the (lossy, rate-limited) control
  channel;
* **eviction storms** — at a scheduled time the control plane of an
  encoder forcibly evicts its N least-recently-used bindings, churning
  both switches' tables.

The plan lives inside :class:`~repro.topology.spec.TopologySpec` (the
``faults`` key of the JSON form), so faulty scenarios are declarative and
travel with the spec through sharding: a shard engine is built from the
whole spec and schedules the restarts and storms of its own nodes, and each
control link draws its impairments from its own derived-seed stream, which
is what makes a fault run byte-identical at any ``--workers N``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.exceptions import TopologyError
from repro.validation import Validator

__all__ = [
    "NodeRestart",
    "EvictionStorm",
    "FaultPlan",
    "load_fault_plan",
    "validate_spec_faults",
]


_check = Validator(TopologyError)


@dataclass(frozen=True)
class NodeRestart:
    """Restart of one decoder node at a simulated time.

    The restart wipes the node's identifier table (its crash-volatile
    state); counters and wiring survive, modelling a fast process restart
    on the switch.  The paired control plane immediately begins a resync.
    """

    node: str
    time: float

    def as_dict(self) -> Dict[str, Any]:
        return {"node": self.node, "time": self.time}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any], where: str) -> "NodeRestart":
        data = _check.record(where, data, cls)
        return cls(
            node=_check.string(where, "node", data["node"]),
            time=_check.non_negative_number(where, "time", data["time"]),
        )


@dataclass(frozen=True)
class EvictionStorm:
    """Forced eviction of ``count`` LRU bindings on one encoder's control plane."""

    node: str
    time: float
    count: int

    def as_dict(self) -> Dict[str, Any]:
        return {"node": self.node, "time": self.time, "count": self.count}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any], where: str) -> "EvictionStorm":
        data = _check.record(where, data, cls)
        return cls(
            node=_check.string(where, "node", data["node"]),
            time=_check.non_negative_number(where, "time", data["time"]),
            count=_check.positive_int(where, "count", data["count"]),
        )


@dataclass(frozen=True)
class FaultPlan:
    """Everything that is scheduled to go wrong during one topology run."""

    control_loss: float = 0.0
    control_reorder: float = 0.0
    restarts: Tuple[NodeRestart, ...] = ()
    storms: Tuple[EvictionStorm, ...] = ()

    def __post_init__(self) -> None:
        for name in ("control_loss", "control_reorder"):
            value = _check.probability("faults", name, getattr(self, name))
            object.__setattr__(self, name, value)
        object.__setattr__(self, "restarts", tuple(self.restarts))
        object.__setattr__(self, "storms", tuple(self.storms))

    @property
    def active(self) -> bool:
        """True when the plan injects anything at all."""
        return bool(
            self.control_loss or self.control_reorder or self.restarts or self.storms
        )

    def as_dict(self) -> Dict[str, Any]:
        """JSON form; only non-default fields are emitted."""
        data: Dict[str, Any] = {}
        if self.control_loss:
            data["control_loss"] = self.control_loss
        if self.control_reorder:
            data["control_reorder"] = self.control_reorder
        if self.restarts:
            data["restarts"] = [restart.as_dict() for restart in self.restarts]
        if self.storms:
            data["storms"] = [storm.as_dict() for storm in self.storms]
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any], where: str = "faults") -> "FaultPlan":
        data = _check.record(where, data, cls)
        restarts = _check.sequence(where, "restarts", data.get("restarts", ()))
        storms = _check.sequence(where, "storms", data.get("storms", ()))
        return cls(
            # Both probabilities are checked by __post_init__.
            control_loss=data.get("control_loss", 0.0),
            control_reorder=data.get("control_reorder", 0.0),
            restarts=tuple(
                NodeRestart.from_dict(entry, f"{where}.restarts[{index}]")
                for index, entry in enumerate(restarts)
            ),
            storms=tuple(
                EvictionStorm.from_dict(entry, f"{where}.storms[{index}]")
                for index, entry in enumerate(storms)
            ),
        )


def load_fault_plan(argument: str) -> FaultPlan:
    """Parse the ``--faults`` CLI argument: inline JSON or a file path."""
    import json
    from pathlib import Path

    text = argument.strip()
    if not text.startswith("{"):
        path = Path(argument)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as error:
            raise TopologyError(f"cannot read fault plan {argument!r}: {error}") from None
    try:
        data = json.loads(text)
    except ValueError as error:
        raise TopologyError(f"fault plan is not valid JSON: {error}") from None
    return FaultPlan.from_dict(data)


def validate_spec_faults(spec: Any) -> None:
    """Cross-check a spec's fault plan against its nodes and control mode.

    Called by :class:`~repro.topology.spec.TopologySpec` at construction
    and by the CLI after ``--faults`` / ``--control-rate`` overrides, so a
    typo'd node name fails loudly instead of being silently filtered away
    by sharding.
    """
    nodes = {node.name: node for node in spec.nodes}
    faults: Optional[FaultPlan] = spec.faults
    if faults is not None:
        if (faults.control_loss or faults.control_reorder) and spec.control != "in-network":
            raise TopologyError(
                "faults.control_loss/control_reorder require control='in-network' "
                "(a direct control plane has no channel to impair)"
            )
        for key, events, kind, why in (
            ("restarts", faults.restarts, "decoder",
             "restarts are modelled for decoder nodes"),
            ("storms", faults.storms, "encoder",
             "storms are triggered on encoder nodes"),
        ):
            for event in events:
                node = nodes.get(event.node)
                if node is None:
                    raise TopologyError(
                        f"faults.{key} references unknown node {event.node!r}"
                    )
                if node.kind != kind:
                    raise TopologyError(
                        f"faults.{key} node {event.node!r} is a {node.kind!r} "
                        f"node; {why}"
                    )
    if spec.control_rate is not None and spec.control != "in-network":
        raise TopologyError(
            "control_rate requires control='in-network' (pacing applies to the "
            "control channel, which a direct control plane does not have)"
        )
    if spec.control_queue is not None and spec.control_rate is None:
        raise TopologyError("control_queue requires control_rate to be set")
