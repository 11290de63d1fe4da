"""The Tofino / TNA chassis and accounting the compiled ZipLine programs run on."""

from repro.tofino.constraints import (
    ALIGNMENT_BITS,
    ResourceTracker,
    ResourceUsage,
    TofinoResourceProfile,
    check_header_alignment,
    containers_for_field,
    header_field_padding,
)
from repro.tofino.counters import CounterSample, NamedCounterSet
from repro.tofino.digest import DigestEngine, DigestMessage
from repro.tofino.parser import HeaderType
from repro.tofino.pipeline import DEFAULT_PIPELINE_LATENCY, Pipeline
from repro.tofino.switch import PortStats, TofinoSwitch
from repro.tofino.tables import ActionSpec, MatchActionTable, TableEntry

__all__ = [
    "ALIGNMENT_BITS",
    "ResourceTracker",
    "ResourceUsage",
    "TofinoResourceProfile",
    "check_header_alignment",
    "containers_for_field",
    "header_field_padding",
    "CounterSample",
    "NamedCounterSet",
    "DigestEngine",
    "DigestMessage",
    "HeaderType",
    "DEFAULT_PIPELINE_LATENCY",
    "Pipeline",
    "PortStats",
    "TofinoSwitch",
    "ActionSpec",
    "MatchActionTable",
    "TableEntry",
]
