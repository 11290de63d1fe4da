"""The control plane's trace track.

Each step of the control plane — a learn digest received or ignored, an
identifier evicted, an install abandoned, a mapping installed on the
decoder (when the write is acknowledged) or the encoder, a mapping
expired — is one ``controlplane.*`` instant on a track named after the
switch it serves.  The call sites guard on ``repro.obs.TRACER.enabled``,
so with tracing off a step records nothing; its counter in
:class:`~repro.controlplane.manager.ControlPlaneStats` is what the report
carries.
"""

from __future__ import annotations

from typing import Any

from repro import obs as _obs

__all__ = ["EventLog"]


class EventLog:
    """Emit a control plane's steps as instants on one trace track.

    The name outlives the queryable log it once was because the stack
    benchmark's entry-point table resolves ``EventLog.append`` by name;
    ROADMAP item 2(c) retires it.
    """

    def __init__(self, track: str) -> None:
        self.track = track

    def append(self, name: str, time: float, **fields: Any) -> None:
        """Emit the instant ``name`` at simulated ``time`` with ``fields``."""
        _obs.TRACER.instant(name, self.track, args=fields, ts=time)
