"""ZipLine control plane: digest handling, identifier pool, LRU recycling."""

from repro.controlplane.events import (
    ControlPlaneEvent,
    DecoderMappingInstalled,
    DigestIgnored,
    DigestReceived,
    EncoderMappingInstalled,
    EventLog,
    MappingEvicted,
    MappingExpired,
)
from repro.controlplane.idpool import Allocation, IdentifierPool
from repro.controlplane.manager import (
    LEARN_DIGEST,
    ControlPlaneStats,
    ControlPlaneTimings,
    ZipLineControlPlane,
    apply_switch_command,
)

__all__ = [
    "ControlPlaneEvent",
    "DecoderMappingInstalled",
    "DigestIgnored",
    "DigestReceived",
    "EncoderMappingInstalled",
    "EventLog",
    "MappingEvicted",
    "MappingExpired",
    "Allocation",
    "IdentifierPool",
    "LEARN_DIGEST",
    "ControlPlaneStats",
    "ControlPlaneTimings",
    "ZipLineControlPlane",
    "apply_switch_command",
]
