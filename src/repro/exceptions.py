"""Exception hierarchy shared by every ``repro`` subpackage.

All library-specific errors derive from :class:`ReproError` so that callers
can distinguish reproduction-library failures from generic Python errors with
a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` library."""


class CodingError(ReproError):
    """Raised for invalid coding-theory parameters (CRC, Hamming, GD)."""


class ChunkSizeError(CodingError):
    """Raised when a data chunk does not match the configured chunk size."""


class BackendError(CodingError):
    """Raised for unknown or unavailable codec backends."""


class DictionaryError(ReproError):
    """Raised for invalid basis-dictionary operations."""


class PacketError(ReproError):
    """Raised when a packet cannot be built, parsed, or validated."""


class ParserError(PacketError):
    """Raised by the data-plane parser when a header cannot be extracted."""


class TableError(ReproError):
    """Raised for invalid match-action table operations."""


class PipelineError(ReproError):
    """Raised when a pipeline violates a hardware constraint."""


class ConstraintViolation(PipelineError):
    """Raised when a P4 program model exceeds a Tofino resource budget."""


class ControlPlaneError(ReproError):
    """Raised for control-plane failures (ID pool exhaustion, bad digests)."""


class SimulationError(ReproError):
    """Raised by the discrete-event simulator for scheduling errors."""


class TraceError(ReproError):
    """Raised when a trace file or trace object is malformed."""


class WorkloadError(ReproError):
    """Raised for invalid workload-generation parameters."""


class ReplayError(ReproError):
    """Raised for invalid replay/emulation configurations or runs."""


class TopologyError(ReproError):
    """Raised for invalid topology graphs, specs, or flow configurations."""
