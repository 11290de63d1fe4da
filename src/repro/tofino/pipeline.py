"""The accounting record of a compiled Tofino pipeline.

A :class:`Pipeline` is what the evaluation reads about the program a
switch runs, beside the program itself:

* how many passes the pipeline ran, how many packets it dropped and how
  many of those its parser could not extract a header from (one pass per
  arriving frame, no recirculation: §5's line-rate precondition);
* a fixed per-packet pipeline latency (the hardware gives a constant
  port-to-port latency for a compiled program; Figure 5 reads each
  program's latency off the simulator);
* the program's table and stage budget, a
  :class:`~repro.tofino.constraints.ResourceTracker`.

The program that runs the packets is the ZipLine program
(:class:`repro.zipline._program.ZipLineSwitchBase`), which counts into this
record itself.
"""

from __future__ import annotations

from repro.exceptions import PipelineError
from repro.tofino.constraints import ResourceTracker

__all__ = ["Pipeline", "DEFAULT_PIPELINE_LATENCY"]

#: Port-to-port latency of a compiled Tofino program, in seconds.  The public
#: figure for Tofino-class ASICs is well under a microsecond.  In the
#: reproduced Figure 5 (:mod:`repro.analysis.figures`) it is 0.6 µs of the
#: 6.61 µs one-way time, beside 1.01 µs of simulated wire and the 5 µs
#: calibrated host/NIC cost, the same for all three programs.
DEFAULT_PIPELINE_LATENCY = 0.6e-6


class Pipeline:
    """A single Tofino pipeline: name, latency, resources and pass counters.

    Parameters
    ----------
    name:
        Pipeline name for reports.
    pipeline_latency:
        Constant per-packet latency in seconds.
    """

    def __init__(self, name: str, pipeline_latency: float = DEFAULT_PIPELINE_LATENCY):
        if pipeline_latency < 0:
            raise PipelineError("pipeline latency cannot be negative")
        self.name = name
        self.resources = ResourceTracker()
        self._pipeline_latency = pipeline_latency
        self.packets_processed = 0
        self.packets_dropped = 0
        self.parse_errors = 0

    @property
    def pipeline_latency(self) -> float:
        """Constant per-packet latency in seconds."""
        return self._pipeline_latency
