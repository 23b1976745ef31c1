"""Shared plumbing for the application benchmarks.

Every benchmark follows the Sec. V-D methodology:

* the processor-only baseline runs the algorithm in "bare metal" software
  with a warm cache;
* the accelerated versions (FPSoC and Duet) install the soft accelerator,
  set the eFPGA clock to the accelerator's post-route Fmax (Table II), start
  from a cold accelerator cache, and include every communication and
  synchronization overhead in the measured runtime;
* speedup is runtime(CPU) / runtime(system), and the Area-Delay Product uses
  the area model of :mod:`repro.platform.area`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.fpga.accelerator import SoftAccelerator
from repro.fpga.synthesis import SynthesisResult
from repro.platform.area import AreaModel
from repro.platform.config import DollyConfig, SystemKind
from repro.platform.dolly import DollySystem, build_system
from repro.power.model import PowerConfig


@dataclass
class WorkloadParams:
    """Knobs shared by all benchmarks (problem sizes live in each module)."""

    num_processors: int = 1
    num_memory_hubs: int = 1
    fpga_mhz: Optional[float] = None
    seed: int = 2023
    #: Enable energy accounting for this run (``None`` keeps it off — the
    #: default, under which timing is bit-identical to pre-power builds).
    power: Optional[PowerConfig] = None


@dataclass
class BenchmarkResult:
    """One (benchmark, system) measurement."""

    benchmark: str
    system: SystemKind
    system_name: str
    runtime_ns: float
    correct: bool
    checksum: Any = None
    num_processors: int = 1
    num_memory_hubs: int = 0
    fpga_mhz: Optional[float] = None
    efpga_area_mm2: float = 0.0
    chip_area_mm2: float = 0.0
    extra: Dict[str, Any] = field(default_factory=dict)

    def speedup_over(self, baseline: "BenchmarkResult") -> float:
        return baseline.runtime_ns / self.runtime_ns if self.runtime_ns > 0 else 0.0

    def adp(self) -> float:
        return self.chip_area_mm2 * self.runtime_ns

    def normalized_adp(self, baseline: "BenchmarkResult") -> float:
        return self.adp() / baseline.adp() if baseline.adp() > 0 else 0.0


def build_benchmark_system(kind: SystemKind, params: WorkloadParams) -> DollySystem:
    """Build the system-under-test for one benchmark run."""
    power = params.power if params.power is not None else PowerConfig()
    if kind is SystemKind.CPU_ONLY:
        config = DollyConfig.cpu_only(params.num_processors, power=power)
    elif kind is SystemKind.DUET:
        config = DollyConfig.dolly(params.num_processors, params.num_memory_hubs,
                                   fpga_mhz=params.fpga_mhz, power=power)
    else:
        config = DollyConfig.fpsoc(params.num_processors, params.num_memory_hubs,
                                   fpga_mhz=params.fpga_mhz, power=power)
    return build_system(config)


def build_accelerated_system(kind: SystemKind, params: WorkloadParams,
                             accelerator: SoftAccelerator, registers,
                             soft_cache=None) -> Tuple[DollySystem, SynthesisResult]:
    """Build a Duet or FPSoC system, install ``accelerator`` at
    ``params.fpga_mhz`` (its post-route Fmax when ``None``) and start it."""
    system = build_benchmark_system(kind, params)
    synthesis = system.install_accelerator(
        accelerator, registers=registers, fpga_mhz=params.fpga_mhz, soft_cache=soft_cache
    )
    system.start_accelerator()
    return system, synthesis


def finalize_result(
    benchmark: str,
    kind: SystemKind,
    system: DollySystem,
    runtime_ns: float,
    correct: bool,
    checksum: Any = None,
    synthesis: Optional[SynthesisResult] = None,
    extra: Optional[Dict[str, Any]] = None,
) -> BenchmarkResult:
    """Attach area accounting to a raw runtime measurement.

    An accelerated run passes the ``synthesis`` of its accelerator: its area
    is the eFPGA area, and its ``fmax_mhz`` leads ``extra``.
    """
    efpga_area_mm2 = 0.0
    extra = dict(extra or {})
    if synthesis is not None:
        efpga_area_mm2 = synthesis.area_mm2
        extra = {"fmax_mhz": synthesis.fmax_mhz, **extra}
    area_model = AreaModel()
    processors = system.config.num_processors
    hubs = system.config.num_memory_hubs
    if kind is SystemKind.CPU_ONLY:
        chip_area = area_model.processor_only_area(processors)
    elif kind is SystemKind.FPSOC:
        chip_area = area_model.fpsoc_area(processors, efpga_area_mm2)
    else:
        chip_area = area_model.duet_area(processors, hubs, efpga_area_mm2)
    fpga_mhz = None
    if system.fpga_domain is not None:
        fpga_mhz = system.fpga_domain.freq_mhz
    energy = system.energy
    if energy is not None and energy.last_window_pj is not None:
        energy_nj = energy.last_window_pj / 1000.0
        extra["energy_nj"] = energy_nj
        extra["energy_breakdown_nj"] = {
            category: pj / 1000.0
            for category, pj in sorted(energy.last_window_breakdown.items())
        }
        extra["avg_power_mw"] = energy.last_window_avg_power_mw
    return BenchmarkResult(
        benchmark=benchmark,
        system=kind,
        system_name=system.config.name,
        runtime_ns=runtime_ns,
        correct=correct,
        checksum=checksum,
        num_processors=processors,
        num_memory_hubs=hubs,
        fpga_mhz=fpga_mhz,
        efpga_area_mm2=efpga_area_mm2,
        chip_area_mm2=chip_area,
        extra=extra,
    )
