"""Event-driven energy accounting: :class:`PowerConfig`, :class:`PowerProbe`
and :class:`EnergyModel`.

The paper's evaluation sweeps the eFPGA clock (20-500 MHz) against a fixed
1 GHz system clock precisely because frequency trades latency against
power; this module supplies the missing half of that trade-off.  The model
follows the standard CMOS decomposition:

* **Dynamic energy** is charged per *event* — cache access, directory
  lookup, DRAM row activation, NoC flit-hop, committed core cycle, active
  eFPGA cycle — counted by :class:`PowerProbe` hooks in the component hot
  paths, plus per-clock-cycle clock-tree energy derived arithmetically from
  elapsed time and the domain frequency.  Every on-chip dynamic charge
  scales with the square of the supply voltage, which itself follows a
  linear V/f curve (:meth:`PowerConfig.vdd_at`) — the reason DVFS saves
  energy at all.  DRAM row activations are the one exception: DRAM is
  off-chip on its own fixed supply, so they are charged flat.
* **Static (leakage) energy** is proportional to silicon area x time,
  using the Table I / Table II areas from :mod:`repro.platform.area`, and
  scales linearly with the supply voltage.

The probe hooks are *default-off*: every instrumented component carries a
``power_probe`` attribute that is ``None`` unless a system was built with
``PowerConfig(enabled=True)``, and each hook is a single attribute load
plus a ``None`` test.  With power modeling disabled the simulated timing is
bit-identical to an uninstrumented build (the hooks never touch the event
timeline either way) and the wall-clock cost is unmeasurable; with it
enabled the accounting stays out of the kernel entirely — energy is
integrated only at epoch boundaries (:meth:`EnergyModel.sample`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, TYPE_CHECKING

from repro.sim.stats import StatSet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (platform -> power)
    from repro.platform.dolly import DollySystem
    from repro.sim.clock import ClockDomain


@dataclass
class PowerConfig:
    """Technology constants of the energy model (45 nm-ish defaults).

    ``enabled`` gates everything: a disabled config (the default) builds no
    :class:`EnergyModel` and leaves every ``power_probe`` hook ``None``, so
    the simulator behaves exactly as before this subsystem existed.

    The per-event energies are picojoules *at nominal voltage*; they are
    deliberately round, literature-plausible numbers (CACTI/DSENT order of
    magnitude), not calibrated silicon measurements — the evaluation uses
    them for *relative* comparisons (CPU_ONLY vs DUET vs FPSOC, governor vs
    governor), which is also how the paper treats its own area model.
    """

    enabled: bool = False

    # -- voltage / frequency curve ------------------------------------- #
    #: Supply voltage at (and above) ``nominal_mhz``.
    vdd_nominal_v: float = 1.0
    #: Supply floor reached as the clock approaches zero.
    vdd_min_v: float = 0.6
    #: Frequency at which ``vdd_nominal_v`` applies (the 1 GHz system clock).
    nominal_mhz: float = 1000.0

    # -- dynamic energy per event (pJ at nominal voltage) ---------------- #
    core_cycle_pj: float = 1.8          # one committed in-order pipeline cycle
    cache_access_pj: float = 4.0        # one L1+L2 private-cache access
    directory_lookup_pj: float = 2.5    # one LLC/directory request lookup
    dram_activation_pj: float = 40.0    # one DRAM row activation (LLC miss)
    noc_flit_hop_pj: float = 0.8        # one flit crossing one link
    fpga_active_cycle_pj: float = 6.0   # one eFPGA cycle of LUT toggling
    #: Clock-tree energy per clock cycle, busy or idle (per domain).
    sys_clock_tree_pj: float = 0.9      # per system-clock cycle per tile
    fpga_clock_tree_pj: float = 1.6     # per eFPGA-clock cycle

    # -- static power ---------------------------------------------------- #
    #: Leakage power density at nominal voltage (mW per mm^2 of silicon).
    leakage_mw_per_mm2: float = 0.12

    def __post_init__(self) -> None:
        if self.nominal_mhz <= 0:
            raise ValueError(f"nominal_mhz must be positive, got {self.nominal_mhz}")
        if self.vdd_nominal_v <= 0 or self.vdd_min_v <= 0:
            raise ValueError("supply voltages must be positive")
        if self.vdd_min_v > self.vdd_nominal_v:
            raise ValueError(
                f"vdd_min_v ({self.vdd_min_v}) cannot exceed "
                f"vdd_nominal_v ({self.vdd_nominal_v})"
            )
        if self.leakage_mw_per_mm2 < 0:
            raise ValueError("leakage density cannot be negative")

    # ------------------------------------------------------------------ #
    # Voltage / frequency scaling
    # ------------------------------------------------------------------ #
    def vdd_at(self, freq_mhz: float) -> float:
        """Supply voltage required for ``freq_mhz`` (linear V/f, clamped)."""
        fraction = min(1.0, max(0.0, freq_mhz / self.nominal_mhz))
        return self.vdd_min_v + (self.vdd_nominal_v - self.vdd_min_v) * fraction

    def dynamic_scale(self, freq_mhz: float) -> float:
        """Dynamic-energy multiplier at ``freq_mhz`` (``(V/Vnom)^2``)."""
        ratio = self.vdd_at(freq_mhz) / self.vdd_nominal_v
        return ratio * ratio

    def static_scale(self, freq_mhz: float) -> float:
        """Leakage-power multiplier at ``freq_mhz`` (``V/Vnom``)."""
        return self.vdd_at(freq_mhz) / self.vdd_nominal_v


class PowerProbe:
    """The shared event-counter bundle the component hooks increment.

    One probe serves a whole system: hooks do ``probe.field += n`` with a
    plain slotted attribute, no dict lookup, no allocation.  The
    :class:`EnergyModel` reads (and diffs) the fields at epoch boundaries.
    """

    __slots__ = (
        "core_active_cycles",
        "cache_accesses",
        "directory_lookups",
        "dram_activations",
        "noc_flit_hops",
        "fpga_active_cycles",
    )

    def __init__(self) -> None:
        self.core_active_cycles = 0
        self.cache_accesses = 0
        self.directory_lookups = 0
        self.dram_activations = 0
        self.noc_flit_hops = 0
        self.fpga_active_cycles = 0

    def snapshot(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fields = ", ".join(f"{k}={v}" for k, v in self.snapshot().items())
        return f"<PowerProbe {fields}>"


@dataclass
class EpochSample:
    """What :meth:`EnergyModel.sample` returns for one accounting epoch."""

    t_start_ns: float
    t_end_ns: float
    #: Per-category dynamic energy plus ``static`` leakage, in picojoules.
    energy_pj: Dict[str, float]
    total_pj: float
    fpga_freq_mhz: Optional[float]
    fpga_active_cycles: int
    #: Active eFPGA cycles / elapsed eFPGA cycles (0.0 with no eFPGA).
    fpga_utilization: float

    @property
    def elapsed_ns(self) -> float:
        return self.t_end_ns - self.t_start_ns

    @property
    def avg_power_mw(self) -> float:
        """Average power over the epoch (pJ / ns == mW)."""
        elapsed = self.elapsed_ns
        return self.total_pj / elapsed if elapsed > 0 else 0.0


class EnergyModel:
    """Integrates probe counters into per-domain energy, epoch by epoch.

    Lifecycle: :func:`repro.platform.dolly.build_system` constructs one when
    ``config.power.enabled`` and calls :meth:`attach_system`, which installs
    the shared :class:`PowerProbe` on every instrumented component.
    Accelerator installation later reports the synthesized eFPGA area
    through :meth:`set_efpga_area` (before that the eFPGA contributes no
    leakage — there is no programmed silicon to leak).  :meth:`sample`
    closes the current epoch: it diffs the probe against the last snapshot,
    converts counts to picojoules at the *current* domain voltages, adds
    clock-tree and leakage energy for the elapsed wall (simulated) time,
    accumulates the running totals and (optionally) appends to the
    ``power_mw`` / ``fpga_mhz`` / ``energy_pj`` traces in :attr:`stats`.

    Governors call :meth:`sample` once per epoch *before* retuning, so each
    epoch is integrated at the frequency that actually applied to it.
    """

    def __init__(self, config: PowerConfig, sim, name: str = "energy") -> None:
        # Imported here, not at module level: platform.config imports this
        # module for PowerConfig, so importing repro.platform at import time
        # would be circular.
        from repro.platform.area import AreaModel

        self.config = config
        self.sim = sim
        self.name = name
        self.probe = PowerProbe()
        self.stats = StatSet(f"{name}.stats")
        self.area_model = AreaModel()
        self.sys_domain: Optional["ClockDomain"] = None
        self.fpga_domain: Optional["ClockDomain"] = None
        self.num_tiles = 0
        #: Leakage areas (mm^2) by domain; eFPGA area arrives at install time.
        self.core_area_mm2 = 0.0
        self.adapter_area_mm2 = 0.0
        self.efpga_area_mm2 = 0.0
        self.totals_pj: Dict[str, float] = {}
        self.total_pj = 0.0
        self.epochs = 0
        self._last_time_ns = 0.0
        self._last_counts = self.probe.snapshot()
        # run_programs() marks its measured window through these.
        self._window_start_pj: Optional[float] = None
        self._window_start_breakdown: Dict[str, float] = {}
        self.last_window_pj: Optional[float] = None
        self.last_window_breakdown: Dict[str, float] = {}
        self.last_window_start_ns: Optional[float] = None
        self.last_window_end_ns: Optional[float] = None

    # ------------------------------------------------------------------ #
    # Wiring
    # ------------------------------------------------------------------ #
    def attach_system(self, system: "DollySystem") -> None:
        """Install the probe on every instrumented component of ``system``."""
        probe = self.probe
        self.sys_domain = system.sys_clock
        self.num_tiles = system.config.num_tiles
        config = system.config
        self.core_area_mm2 = self.area_model.processor_only_area(config.num_processors)
        if config.kind.has_fpga:
            self.adapter_area_mm2 = self.area_model.adapter_area(config.num_memory_hubs)
        system.network.power_probe = probe
        system.memory.power_probe = probe
        for directory in system.directories:
            directory.power_probe = probe
        for core in system.cores:
            core.power_probe = probe
            core.cache.power_probe = probe
        adapter = system.adapter
        if adapter is not None:
            self.fpga_domain = adapter.fpga_domain
            for hub in adapter.memory_hubs:
                # Duet Proxy Caches are PrivateCacheAgent subclasses, so the
                # cache-access hook covers them; FPSoC slow caches likewise.
                hub.cache.power_probe = probe

    def attach_accelerator(self, accelerator, efpga_area_mm2: float) -> None:
        """Hook the installed accelerator and record the eFPGA silicon area."""
        accelerator.power_probe = self.probe
        self.set_efpga_area(efpga_area_mm2)

    def set_efpga_area(self, area_mm2: float) -> None:
        self.efpga_area_mm2 = area_mm2

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #
    def sample(self) -> EpochSample:
        """Close the epoch ending now; returns its :class:`EpochSample`."""
        config = self.config
        now = self.sim.now
        t_start = self._last_time_ns
        elapsed = now - t_start
        counts = self.probe.snapshot()
        last = self._last_counts
        delta = {name: counts[name] - last[name] for name in counts}

        sys_freq = self.sys_domain.freq_mhz if self.sys_domain is not None else config.nominal_mhz
        fpga_freq = self.fpga_domain.freq_mhz if self.fpga_domain is not None else None
        sys_dyn = config.dynamic_scale(sys_freq)
        fpga_dyn = config.dynamic_scale(fpga_freq) if fpga_freq is not None else 0.0

        energy: Dict[str, float] = {
            "core": delta["core_active_cycles"] * config.core_cycle_pj * sys_dyn,
            "cache": delta["cache_accesses"] * config.cache_access_pj * sys_dyn,
            "directory": delta["directory_lookups"] * config.directory_lookup_pj * sys_dyn,
            # DRAM is off-chip on its own supply: no on-chip voltage scaling.
            "dram": delta["dram_activations"] * config.dram_activation_pj,
            "noc": delta["noc_flit_hops"] * config.noc_flit_hop_pj * sys_dyn,
            "fpga": delta["fpga_active_cycles"] * config.fpga_active_cycle_pj * fpga_dyn,
        }
        # Clock trees toggle every cycle, busy or idle: cycles = ns * GHz.
        energy["clock"] = (
            elapsed * (sys_freq / 1000.0) * config.sys_clock_tree_pj
            * self.num_tiles * sys_dyn
        )
        fpga_util = 0.0
        if fpga_freq is not None and elapsed > 0:
            fpga_cycles = elapsed * (fpga_freq / 1000.0)
            energy["clock"] += fpga_cycles * config.fpga_clock_tree_pj * fpga_dyn
            if fpga_cycles > 0:
                fpga_util = min(1.0, delta["fpga_active_cycles"] / fpga_cycles)
        # Leakage: power density x area x time, linear in voltage.
        leak_area_sys = self.core_area_mm2 + self.adapter_area_mm2
        static_mw = leak_area_sys * config.leakage_mw_per_mm2 * config.static_scale(sys_freq)
        if fpga_freq is not None:
            static_mw += (self.efpga_area_mm2 * config.leakage_mw_per_mm2
                          * config.static_scale(fpga_freq))
        energy["static"] = static_mw * elapsed  # mW x ns == pJ

        total = 0.0
        totals = self.totals_pj
        for category, pj in energy.items():
            total += pj
            totals[category] = totals.get(category, 0.0) + pj
        self.total_pj += total
        self.epochs += 1
        self._last_time_ns = now
        self._last_counts = counts

        sample = EpochSample(
            t_start_ns=t_start,
            t_end_ns=now,
            energy_pj=energy,
            total_pj=total,
            fpga_freq_mhz=fpga_freq,
            fpga_active_cycles=delta["fpga_active_cycles"],
            fpga_utilization=fpga_util,
        )
        if elapsed > 0:
            stats = self.stats
            stats.series("power_mw").record(now, sample.avg_power_mw)
            stats.series("energy_pj").record(now, total)
            if fpga_freq is not None:
                stats.series("fpga_mhz").record(now, fpga_freq)
        return sample

    # ------------------------------------------------------------------ #
    # Measured-window bookkeeping (driven by DollySystem.run_programs)
    # ------------------------------------------------------------------ #
    def begin_window(self) -> None:
        """Flush accounting and mark the start of a measured run window."""
        self.sample()
        self._window_start_pj = self.total_pj
        self._window_start_breakdown = dict(self.totals_pj)
        self.last_window_start_ns = self.sim.now

    def end_window(self) -> None:
        """Close the measured window; totals land in ``last_window_*``."""
        self.sample()
        start = self._window_start_pj
        if start is None:
            raise RuntimeError(f"{self.name}: end_window() without begin_window()")
        self.last_window_pj = self.total_pj - start
        start_breakdown = self._window_start_breakdown
        self.last_window_breakdown = {
            category: self.totals_pj[category] - start_breakdown.get(category, 0.0)
            for category in self.totals_pj
        }
        self.last_window_end_ns = self.sim.now
        self._window_start_pj = None

    def window_series(self, name: str) -> "TimeSeries":  # noqa: F821
        """The samples of trace ``name`` that fall inside the last window.

        Returns a fresh :class:`~repro.sim.stats.TimeSeries` restricted to
        ``(start, end]`` of the last measured window — epochs closed during
        setup before the window or during the post-run drain are excluded,
        keeping trace-derived statistics consistent with the window-scoped
        energy totals.
        """
        from repro.sim.stats import TimeSeries

        source = self.stats.series(name)
        start = self.last_window_start_ns
        end = self.last_window_end_ns
        clipped = TimeSeries(name)
        if start is None or end is None:
            return clipped
        for time_ns, value in zip(source.times, source.values):
            if start < time_ns <= end:
                clipped.record(time_ns, value)
        return clipped

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    @property
    def last_window_avg_power_mw(self) -> float:
        """Average power over the last measured window (pJ / ns == mW)."""
        if (self.last_window_pj is None or self.last_window_start_ns is None
                or self.last_window_end_ns is None):
            return 0.0
        duration = self.last_window_end_ns - self.last_window_start_ns
        return self.last_window_pj / duration if duration > 0 else 0.0

    @property
    def total_nj(self) -> float:
        return self.total_pj / 1000.0

    def breakdown_nj(self) -> Dict[str, float]:
        return {category: pj / 1000.0 for category, pj in sorted(self.totals_pj.items())}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<EnergyModel {self.name} total={self.total_nj:.1f}nJ epochs={self.epochs}>"
