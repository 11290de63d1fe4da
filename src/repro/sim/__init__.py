"""Discrete-event simulation substrate shared by the switch and control plane."""

from repro.sim.events import MICROSECONDS, MILLISECONDS, NANOSECONDS, SECONDS
from repro.sim.simulator import Simulator

__all__ = [
    "MICROSECONDS",
    "MILLISECONDS",
    "NANOSECONDS",
    "SECONDS",
    "Simulator",
]
