"""Programmable clock generator for the eFPGA clock domain.

The Control Hub "either divides the system clock, or integrates a separate
PLL for finer control over the generation of the FPGA clock" (Sec. II-E);
Dolly exposes the frequency to software.  The generator owns the eFPGA
:class:`~repro.sim.ClockDomain` and retunes it, clamped to the accelerator's
post-route maximum frequency when one is known.
"""

from __future__ import annotations

from typing import Optional

from repro.sim import ClockDomain, Simulator


class ProgrammableClockGenerator:
    """Sets the eFPGA frequency (a system-clock divider setting is one such
    frequency), clamped to the accelerator's Fmax."""

    def __init__(
        self,
        sim: Simulator,
        initial_mhz: float = 100.0,
        name: str = "fpga-clkgen",
    ) -> None:
        self.name = name
        self.fpga_domain = ClockDomain(sim, initial_mhz, name=f"{name}.clk")
        self.max_mhz: Optional[float] = None

    # ------------------------------------------------------------------ #
    # Configuration
    # ------------------------------------------------------------------ #
    def set_max_frequency(self, max_mhz: Optional[float]) -> None:
        """Record the accelerator's Fmax; later retunes are clamped to it."""
        self.max_mhz = max_mhz
        if max_mhz is not None and self.fpga_domain.freq_mhz > max_mhz:
            self.fpga_domain.freq_mhz = max_mhz

    def clamp(self, mhz: float) -> float:
        """The frequency :meth:`set_frequency` would actually settle at."""
        if self.max_mhz is not None:
            return min(mhz, self.max_mhz)
        return mhz

    def set_frequency(self, mhz: float) -> float:
        """PLL mode: set an arbitrary frequency (clamped to Fmax); returns it."""
        if mhz <= 0:
            raise ValueError(f"frequency must be positive, got {mhz}")
        mhz = self.clamp(mhz)
        self.fpga_domain.freq_mhz = mhz
        return mhz

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def frequency_mhz(self) -> float:
        return self.fpga_domain.freq_mhz

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ProgrammableClockGenerator {self.frequency_mhz:.1f}MHz>"
