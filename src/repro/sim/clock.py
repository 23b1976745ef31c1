"""Clock domains.

Every hardware component in the model belongs to a :class:`ClockDomain` and
performs its work on rising edges.  The Duet evaluation sweeps the eFPGA
clock from 20 MHz to 500 MHz against a fixed 1 GHz system clock, so edge
alignment — not just cycle counts — matters: a message that leaves the fast
domain right after a slow-domain edge waits almost a full slow period before
the slow side can even see it.
"""

from __future__ import annotations

import math
from heapq import heappush as _heappush
from typing import Any, Callable, Optional

from repro.sim.kernel import Delay, SimulationError, Simulator

_EDGE_EPSILON = 1e-9


class ClockDomain:
    """A periodic clock with a frequency in MHz and an optional phase offset."""

    __slots__ = ("sim", "name", "_freq_mhz", "_period_ns", "_phase_ns", "_memo_at", "_memo_edge")

    def __init__(
        self,
        sim: Simulator,
        freq_mhz: float,
        name: str = "clk",
        phase_ns: float = 0.0,
    ) -> None:
        if freq_mhz <= 0:
            raise SimulationError(f"clock frequency must be positive, got {freq_mhz}")
        self.sim = sim
        self.name = name
        self._freq_mhz = float(freq_mhz)
        self._period_ns = 1000.0 / self._freq_mhz
        self._phase_ns = phase_ns
        # The last next_edge query and its answer; NaN equals no query, so
        # resetting _memo_at empties the memo (on retune and phase change).
        self._memo_at = math.nan
        self._memo_edge = 0.0

    # ------------------------------------------------------------------ #
    # Static properties
    # ------------------------------------------------------------------ #
    @property
    def freq_mhz(self) -> float:
        return self._freq_mhz

    @freq_mhz.setter
    def freq_mhz(self, value: float) -> None:
        """Retune the clock (used by the programmable clock generator)."""
        if value <= 0:
            raise SimulationError(f"clock frequency must be positive, got {value}")
        self._freq_mhz = float(value)
        self._period_ns = 1000.0 / self._freq_mhz
        self._memo_at = math.nan

    @property
    def phase_ns(self) -> float:
        return self._phase_ns

    @phase_ns.setter
    def phase_ns(self, value: float) -> None:
        self._phase_ns = value
        self._memo_at = math.nan

    @property
    def period_ns(self) -> float:
        """Cached clock period (recomputed only when the clock is retuned)."""
        return self._period_ns

    # ------------------------------------------------------------------ #
    # Edge arithmetic
    # ------------------------------------------------------------------ #
    def next_edge(self, at: Optional[float] = None) -> float:
        """Absolute time of the first rising edge strictly after ``at``.

        The last query and its answer are memoized per domain: components
        of one domain ask again at the very instant a previous wait landed
        on (a core's next instruction, the other cores of a shared clock),
        and an exact repeat returns the remembered edge instead of paying
        the floor-division.  Any other ``at`` recomputes, so memoized and
        fresh answers are the same float by construction.
        """
        if at is None:
            at = self.sim.now
        if at == self._memo_at:
            return self._memo_edge
        period = self._period_ns
        phase = self._phase_ns
        ticks = math.floor((at - phase) / period + _EDGE_EPSILON) + 1
        first = phase + ticks * period
        self._memo_at = at
        self._memo_edge = first
        return first

    def edge_after(self, at: Optional[float] = None, cycles: int = 1) -> float:
        """Absolute time of the ``cycles``-th rising edge strictly after ``at``."""
        if cycles < 1:
            raise SimulationError(f"cycles must be >= 1, got {cycles}")
        first = self.next_edge(at)
        return first + (cycles - 1) * self._period_ns

    # ------------------------------------------------------------------ #
    # Process commands
    # ------------------------------------------------------------------ #
    def wait_cycles(self, cycles: int = 1) -> Delay:
        """Command: suspend until the ``cycles``-th rising edge after now.

        Runs once per modelled instruction, so :meth:`edge_after` and the
        memo check of :meth:`next_edge` are inlined here with the same
        arithmetic, bit for bit.
        """
        if cycles < 1:
            raise SimulationError(f"cycles must be >= 1, got {cycles}")
        now = self.sim._now_ns
        first = self._memo_edge if now == self._memo_at else self.next_edge(now)
        ns = first + (cycles - 1) * self._period_ns - now
        return Delay(ns if ns > 0.0 else 0.0)

    def call_after_cycles(self, cycles: int, callback: Callable[[Any], None]) -> None:
        """Run ``callback(None)`` when a process yielding ``wait_cycles(cycles)``
        now would resume.

        The callback twin of :meth:`wait_cycles`: the same delay arithmetic,
        queued exactly as ``Process`` queues a :class:`Delay` (the immediate
        deque for a zero delay, else one heap entry with the next sequence
        number), so swapping one for the other changes no event order.
        """
        if cycles < 1:
            raise SimulationError(f"cycles must be >= 1, got {cycles}")
        sim = self.sim
        now = sim._now_ns
        first = self._memo_edge if now == self._memo_at else self.next_edge(now)
        ns = first + (cycles - 1) * self._period_ns - now
        if ns > 0.0:
            time_ns = now + ns
            _heappush(sim._heap, (int(time_ns * 1000.0 + 0.5), time_ns,
                                  sim._sequence, callback, None))
            sim._sequence += 1
        else:
            sim._immediate.append((callback, None))

    def align(self) -> Delay:
        """Command: suspend until the next rising edge (one-cycle alignment)."""
        return self.wait_cycles(1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ClockDomain {self.name} {self._freq_mhz:.1f}MHz>"
