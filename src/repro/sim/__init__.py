"""Discrete-event simulation kernel.

The kernel is deliberately small: a time-ordered event heap
(:class:`Simulator`), coroutine processes (:class:`Process`) that yield
:class:`Delay`, :class:`Event` or :class:`Suspend` commands, clock domains
that align work to rising edges (:class:`ClockDomain`), and the
clock-domain-crossing :class:`AsyncFifo` that models Dolly's Gray-coded
two-stage synchronizers.
"""

from repro.sim.event import Event
from repro.sim.kernel import (
    Delay,
    Process,
    SimulationError,
    Simulator,
    Suspend,
    ns_to_ps,
)
from repro.sim.clock import ClockDomain
from repro.sim.channel import AsyncFifo, Channel, QueueFullError
from repro.sim.stats import Counter, Histogram, StatSet, TimeSeries

__all__ = [
    "Simulator",
    "Process",
    "Delay",
    "Event",
    "SimulationError",
    "Suspend",
    "ClockDomain",
    "Channel",
    "AsyncFifo",
    "QueueFullError",
    "Counter",
    "Histogram",
    "StatSet",
    "TimeSeries",
    "ns_to_ps",
]
