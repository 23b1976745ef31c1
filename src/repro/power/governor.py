"""Per-domain DVFS governors.

A governor is a simulation process that wakes once per *epoch*, closes the
energy-accounting epoch (:meth:`EnergyModel.sample`), and decides the next
eFPGA frequency.  Retuning goes through the existing retune path — the
Control Hub's :class:`~repro.fpga.clocking.ProgrammableClockGenerator` —
so the accelerator Fmax clamp, the clock-edge memo reset and the
AsyncFifo visible-time memo invalidation all behave exactly as they do for
software-initiated retunes.

Three policies ship:

* :class:`FixedGovernor` — never retunes; it only keeps the per-epoch power
  trace ticking so Fixed runs are comparable against DVFS runs.
* :class:`LadderGovernor` — classic utilization-threshold stepping over a
  discrete frequency ladder: race-to-max when the eFPGA shows activity,
  step down one rung per idle epoch.
* :class:`EnergyCapGovernor` — keeps the epoch-average power under a
  budget: step down while over budget, step back up when comfortably under.

All decisions depend only on simulated state, so governed runs are exactly
as deterministic as ungoverned ones.
"""

from __future__ import annotations

from typing import Optional, Sequence, TYPE_CHECKING

from repro.sim import Delay

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.platform.dolly import DollySystem
    from repro.power.model import EnergyModel, EpochSample

#: Default frequency ladder (MHz).  ``set_frequency`` clamps every rung to
#: the installed accelerator's Fmax, so a ladder may effectively top out
#: below its nominal maximum.
DEFAULT_LADDER = (50.0, 100.0, 200.0, 400.0)


class Governor:
    """Base class: the epoch loop, the retune plumbing and the trace."""

    kind = "fixed"

    def __init__(self, epoch_ns: float = 1000.0, name: str = "") -> None:
        if epoch_ns <= 0:
            raise ValueError(f"governor epoch must be positive, got {epoch_ns}")
        self.epoch_ns = epoch_ns
        self.name = name or f"governor.{self.kind}"
        self.energy: Optional["EnergyModel"] = None
        self.clock_generator = None
        self.retunes = 0
        self.process = None

    # ------------------------------------------------------------------ #
    # Wiring
    # ------------------------------------------------------------------ #
    def attach(self, system: "DollySystem"):
        """Bind to ``system`` and start the epoch process; returns it."""
        if system.energy is None:
            raise RuntimeError(
                f"{self.name}: system {system.config.name} was built without "
                "power modeling (set PowerConfig(enabled=True))"
            )
        self.energy = system.energy
        if system.adapter is not None:
            self.clock_generator = system.adapter.clock_generator
        self.process = system.sim.process(self._run(), name=self.name)
        return self.process

    # ------------------------------------------------------------------ #
    # The epoch loop
    # ------------------------------------------------------------------ #
    def _run(self):
        epoch = Delay(self.epoch_ns)
        while True:
            yield epoch
            sample = self.energy.sample()
            target = self.decide(sample)
            if target is not None and self.clock_generator is not None:
                # Compare against what the generator would settle at: a
                # ladder rung above the accelerator's Fmax clamps to Fmax,
                # and repeating that request must not count (or act) as a
                # retune every epoch.
                target = self.clock_generator.clamp(target)
                if abs(target - self.clock_generator.frequency_mhz) > 1e-9:
                    self.clock_generator.set_frequency(target)
                    self.retunes += 1

    def decide(self, sample: "EpochSample") -> Optional[float]:
        """Return the next eFPGA frequency in MHz, or ``None`` to hold."""
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name} epoch={self.epoch_ns}ns>"


class FixedGovernor(Governor):
    """No DVFS: the baseline every policy is compared against."""

    kind = "fixed"

    def __init__(self, freq_mhz: Optional[float] = None, epoch_ns: float = 1000.0,
                 name: str = "") -> None:
        super().__init__(epoch_ns=epoch_ns, name=name)
        self.freq_mhz = freq_mhz

    def attach(self, system: "DollySystem"):
        process = super().attach(system)
        if self.freq_mhz is not None and self.clock_generator is not None:
            self.clock_generator.set_frequency(self.freq_mhz)
        return process


class _LadderBase(Governor):
    """Shared rung bookkeeping for the stepping policies."""

    def __init__(self, freqs_mhz: Sequence[float] = DEFAULT_LADDER,
                 epoch_ns: float = 1000.0, name: str = "") -> None:
        super().__init__(epoch_ns=epoch_ns, name=name)
        freqs = tuple(sorted(float(f) for f in freqs_mhz))
        if not freqs or any(f <= 0 for f in freqs):
            raise ValueError(f"frequency ladder must be positive, got {freqs_mhz}")
        self.freqs_mhz = freqs
        self._rung = len(freqs) - 1

    def attach(self, system: "DollySystem"):
        process = super().attach(system)
        if self.clock_generator is not None:
            # Pin the starting point to the current (top) rung so every
            # policy is compared over the same frequency range, whatever
            # frequency the accelerator was installed at.
            self.clock_generator.set_frequency(self.freqs_mhz[self._rung])
        return process

    def _set_rung(self, rung: int) -> float:
        self._rung = max(0, min(len(self.freqs_mhz) - 1, rung))
        return self.freqs_mhz[self._rung]


class LadderGovernor(_LadderBase):
    """Utilization-threshold stepping: race to max on activity, ease down.

    ``up_threshold``/``down_threshold`` are fractions of elapsed eFPGA
    cycles that were *active* (the accelerator's own toggling, not
    memory-wait).  An idle accelerator sits at exactly zero, so the default
    thresholds amount to "any activity -> top rung, none -> step down" —
    race-to-idle, the policy that wins on bursty workloads.  ``patience``
    is the down-step hysteresis: only after that many *consecutive* idle
    epochs does the governor start descending, so sub-epoch gaps inside a
    burst (the accelerator briefly blocked on memory or on the command
    FIFO) do not bounce the clock.
    """

    kind = "ladder"

    def __init__(self, freqs_mhz: Sequence[float] = DEFAULT_LADDER,
                 up_threshold: float = 0.02, down_threshold: float = 0.002,
                 boost_to_max: bool = True, patience: int = 2,
                 epoch_ns: float = 1000.0, name: str = "") -> None:
        super().__init__(freqs_mhz=freqs_mhz, epoch_ns=epoch_ns, name=name)
        if not (0.0 <= down_threshold <= up_threshold <= 1.0):
            raise ValueError(
                f"need 0 <= down_threshold <= up_threshold <= 1, "
                f"got {down_threshold}/{up_threshold}"
            )
        if patience < 1:
            raise ValueError(f"patience must be >= 1, got {patience}")
        self.up_threshold = up_threshold
        self.down_threshold = down_threshold
        self.boost_to_max = boost_to_max
        self.patience = patience
        self._idle_epochs = 0

    def decide(self, sample: "EpochSample") -> Optional[float]:
        utilization = sample.fpga_utilization
        if utilization > self.down_threshold:
            # Any non-idle epoch — including mid-band ones that trigger no
            # step — restarts the "consecutive idle epochs" count.
            self._idle_epochs = 0
            if utilization >= self.up_threshold:
                if self.boost_to_max:
                    return self._set_rung(len(self.freqs_mhz) - 1)
                return self._set_rung(self._rung + 1)
            return None
        self._idle_epochs += 1
        if self._idle_epochs >= self.patience:
            return self._set_rung(self._rung - 1)
        return None


class EnergyCapGovernor(_LadderBase):
    """Keeps epoch-average power below ``budget_mw`` by stepping down."""

    kind = "energy_cap"

    def __init__(self, budget_mw: float, freqs_mhz: Sequence[float] = DEFAULT_LADDER,
                 headroom: float = 0.8, epoch_ns: float = 1000.0,
                 name: str = "") -> None:
        super().__init__(freqs_mhz=freqs_mhz, epoch_ns=epoch_ns, name=name)
        if budget_mw <= 0:
            raise ValueError(f"power budget must be positive, got {budget_mw}")
        if not (0.0 < headroom < 1.0):
            raise ValueError(f"headroom must be in (0, 1), got {headroom}")
        self.budget_mw = budget_mw
        self.headroom = headroom

    def decide(self, sample: "EpochSample") -> Optional[float]:
        power = sample.avg_power_mw
        if power > self.budget_mw:
            return self._set_rung(self._rung - 1)
        if power < self.budget_mw * self.headroom:
            return self._set_rung(self._rung + 1)
        return None
