"""Functional model of the Tofino / TNA data plane used by ZipLine."""

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
from repro.tofino.crc_extern import CrcExtern
from repro.tofino.digest import DigestEngine, DigestMessage
from repro.tofino.parser import (
    ACCEPT,
    Deparser,
    Header,
    HeaderType,
    ParsedPacket,
    Parser,
    ParserState,
)
from repro.tofino.pipeline import (
    DEFAULT_PIPELINE_LATENCY,
    PacketContext,
    Pipeline,
    PipelineResult,
)
from repro.tofino.switch import PortStats, TofinoSwitch
from repro.tofino.tables import (
    ActionSpec,
    MatchActionTable,
    MatchResult,
    TableEntry,
)

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
    "CrcExtern",
    "DigestEngine",
    "DigestMessage",
    "ACCEPT",
    "Deparser",
    "Header",
    "HeaderType",
    "ParsedPacket",
    "Parser",
    "ParserState",
    "DEFAULT_PIPELINE_LATENCY",
    "PacketContext",
    "Pipeline",
    "PipelineResult",
    "PortStats",
    "TofinoSwitch",
    "ActionSpec",
    "MatchActionTable",
    "MatchResult",
    "TableEntry",
]
