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
from typing import Optional

from repro.sim.kernel import Delay, SimulationError, Simulator

_EDGE_EPSILON = 1e-9


class ClockDomain:
    """A periodic clock with a frequency in MHz and an optional phase offset."""

    __slots__ = ("sim", "name", "_freq_mhz", "_period_ns", "_phase_ns", "_edge_cache")

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
        # (window_lo, window_hi, edge): the next-edge result for any query
        # strictly inside (window_lo, window_hi).  Invalidated on retune.
        self._edge_cache = (0.0, 0.0, 0.0)

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
        self._edge_cache = (0.0, 0.0, 0.0)

    @property
    def phase_ns(self) -> float:
        return self._phase_ns

    @phase_ns.setter
    def phase_ns(self, value: float) -> None:
        self._phase_ns = value
        self._edge_cache = (0.0, 0.0, 0.0)

    @property
    def period_ns(self) -> float:
        """Cached clock period (recomputed only when the clock is retuned)."""
        return self._period_ns

    def cycles_to_ns(self, cycles: float) -> float:
        """Duration of ``cycles`` clock cycles in nanoseconds."""
        return cycles * self.period_ns

    def ns_to_cycles(self, ns: float) -> float:
        """Number of (fractional) cycles spanned by ``ns`` nanoseconds."""
        return ns / self.period_ns

    # ------------------------------------------------------------------ #
    # Edge arithmetic
    # ------------------------------------------------------------------ #
    def next_edge(self, at: Optional[float] = None) -> float:
        """Absolute time of the first rising edge strictly after ``at``.

        The last answer is cached per domain with a conservative validity
        window: any query strictly inside the same clock period (away from
        the edges by a guard margin) reuses the cached edge instead of
        paying the floor-division — components that align repeatedly within
        one cycle (FIFO pushes, NoC injections) hit the cache.  Queries
        near a period boundary recompute exactly, so cached and uncached
        answers are always bit-identical.
        """
        if at is None:
            at = self.sim.now
        cache = self._edge_cache
        if cache[0] < at < cache[1]:
            return cache[2]
        period = self._period_ns
        phase = self._phase_ns
        ticks = math.floor((at - phase) / period + _EDGE_EPSILON) + 1
        first = phase + ticks * period
        # The exact validity region is [first - (1+eps)*period, first -
        # eps*period); a generous guard keeps the cached window well inside
        # it despite float rounding of the division above.
        guard = period * 1e-6
        self._edge_cache = (first - period + guard, first - guard, first)
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
        """Command: suspend until the ``cycles``-th rising edge after now."""
        now = self.sim.now
        target = self.edge_after(now, cycles)
        return Delay(max(0.0, target - now))

    def align(self) -> Delay:
        """Command: suspend until the next rising edge (one-cycle alignment)."""
        return self.wait_cycles(1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ClockDomain {self.name} {self._freq_mhz:.1f}MHz>"
