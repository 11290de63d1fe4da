"""Time units and sequence numbers of the discrete-event simulator.

The control-plane latency experiment (the paper's 1.77 ms dynamic-learning
measurement) and the trace-replay machinery need a notion of simulated time:
packets arrive at a given rate, digests reach the control plane after a
delay, table writes complete after another delay.  A small discrete-event
simulator keeps this deterministic and fast; wall-clock time never enters
the model.
"""

from __future__ import annotations

import itertools

__all__ = ["SECONDS", "MILLISECONDS", "MICROSECONDS", "NANOSECONDS"]

#: Canonical time units, expressed in seconds.  All simulator timestamps are
#: floats in seconds; these constants keep call sites readable
#: (``clock.now + 1.77 * MILLISECONDS``).
SECONDS = 1.0
MILLISECONDS = 1e-3
MICROSECONDS = 1e-6
NANOSECONDS = 1e-9

#: Draws the next insertion sequence number.  One process-wide stream, so
#: numbers are unique across simulators and a key never compares equal to
#: another.
next_sequence = itertools.count().__next__
