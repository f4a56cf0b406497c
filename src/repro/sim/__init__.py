"""Discrete-event simulation substrate (kernel, processes, randomness)."""

from repro.sim.kernel import (
    Event,
    Lock,
    Interrupt,
    Process,
    Queue,
    Simulation,
    SimulationError,
    Timeout,
)
from repro.sim.rand import SimRandom

__all__ = [
    "Simulation",
    "Process",
    "Event",
    "Timeout",
    "Queue",
    "Lock",
    "Interrupt",
    "SimulationError",
    "SimRandom",
]
