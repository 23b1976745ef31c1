"""The Duet Adapter: one Control Hub plus one or more Memory Hubs.

The adapter is the non-intrusive glue between the mesh and an embedded
FPGA: it owns the programmable clock generator (and hence the eFPGA clock
domain), composes the hubs, wires the exception handler so that any latched
error deactivates every Memory Hub in the adapter (Sec. II-B), and carries
out accelerator installation — synthesis, bitstream generation, programming,
register-layout configuration and memory-port hookup — the job the paper's
toolchain (Yosys, VTR, PRGA, Catapult) performs offline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

from repro.core.control_hub import ControlHub, ControlHubConfig
from repro.core.exceptions import DuetError, ErrorCode, ExceptionHandler
from repro.core.feature_switches import FeatureSwitches
from repro.core.memory_hub import MODE_DUET, MODE_FPSOC, MemoryHub
from repro.core.registers import RegisterLayout, RegisterSpec
from repro.core.soft_cache import SoftCacheConfig
from repro.cpu.mmio import MmioMap
from repro.fpga.accelerator import AcceleratorEnvironment, SoftAccelerator
from repro.fpga.bitstream import Bitstream
from repro.fpga.clocking import ProgrammableClockGenerator
from repro.fpga.synthesis import SynthesisModel, SynthesisResult
from repro.mem.address import AddressMap
from repro.mem.config import MemoryConfig
from repro.mem.dram import MainMemory
from repro.noc import TileRouter
from repro.sim import ClockDomain, Simulator


@dataclass
class AdapterConfig:
    """Static configuration of one Duet Adapter."""

    #: ``duet`` (Proxy Caches + Shadow Registers) or ``fpsoc`` (slow caches,
    #: shadow registers downgraded to normal soft registers).
    mode: str = MODE_DUET
    #: Synchronizer depth of every clock-domain-crossing FIFO.
    sync_stages: int = 2
    #: Initial eFPGA clock frequency (MHz); retuned at installation time.
    initial_fpga_mhz: float = 100.0
    control_hub: ControlHubConfig = field(default_factory=ControlHubConfig)

    def __post_init__(self) -> None:
        if self.mode not in (MODE_DUET, MODE_FPSOC):
            raise ValueError(f"unknown adapter mode {self.mode!r}")
        if self.mode == MODE_FPSOC:
            # The FPSoC baseline has no fast-domain shadow registers.
            self.control_hub = ControlHubConfig(
                downgrade_shadow=True,
                mmio_service_cycles=self.control_hub.mmio_service_cycles,
            )


class DuetAdapter:
    """Composition of a Control Hub and ``len(memory_tile_routers)+...`` Memory Hubs."""

    def __init__(
        self,
        sim: Simulator,
        sys_domain: ClockDomain,
        control_tile_router: TileRouter,
        memory_tile_routers: Sequence[TileRouter],
        address_map: AddressMap,
        mem_config: MemoryConfig,
        memory: MainMemory,
        mmio_map: MmioMap,
        config: Optional[AdapterConfig] = None,
        name: str = "duet",
        control_tile_has_memory_hub: bool = True,
    ) -> None:
        self.sim = sim
        self.sys_domain = sys_domain
        self.config = config or AdapterConfig()
        self.name = name
        self.memory = memory
        self.address_map = address_map

        self.clock_generator = ProgrammableClockGenerator(
            sim, initial_mhz=self.config.initial_fpga_mhz, name=f"{name}.clkgen"
        )
        self.exceptions = ExceptionHandler(sim, sys_domain, name=f"{name}.exc")
        self.control_hub = ControlHub(
            sim,
            sys_domain,
            control_tile_router,
            mmio_map,
            self.clock_generator,
            config=self.config.control_hub,
            exceptions=self.exceptions,
            name=f"{name}.ctrl",
        )
        self.memory_hubs: List[MemoryHub] = []
        hub_routers: List[TileRouter] = []
        if control_tile_has_memory_hub:
            hub_routers.append(control_tile_router)
        hub_routers.extend(memory_tile_routers)
        for index, router in enumerate(hub_routers):
            hub = MemoryHub(
                sim,
                sys_domain,
                self.fpga_domain,
                router,
                address_map,
                mem_config,
                memory,
                name=f"{name}.mh{index}",
                target=f"mh{index}",
                mode=self.config.mode,
                sync_stages=self.config.sync_stages,
                exceptions=self.exceptions,
            )
            self.memory_hubs.append(hub)
        # Any latched error deactivates every Memory Hub in this adapter.
        self.exceptions.on_error(self._on_error)
        self.control_hub.set_hub_activation_hook(self._apply_hub_activation_mask)
        self.installed_accelerator: Optional[SoftAccelerator] = None

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def fpga_domain(self) -> ClockDomain:
        return self.clock_generator.fpga_domain

    @property
    def mode(self) -> str:
        return self.config.mode

    @property
    def num_memory_hubs(self) -> int:
        return len(self.memory_hubs)

    def register_addr(self, index: int) -> int:
        """MMIO address of soft register ``index`` (software-driver helper)."""
        return self.control_hub.register_addr(index)

    def control_addr(self, offset: int) -> int:
        return self.control_hub.control_addr(offset)

    # ------------------------------------------------------------------ #
    # Error / activation plumbing
    # ------------------------------------------------------------------ #
    def _on_error(self, code: ErrorCode) -> None:
        for hub in self.memory_hubs:
            hub.deactivate()

    def _apply_hub_activation_mask(self, mask: int) -> None:
        for index, hub in enumerate(self.memory_hubs):
            if mask & (1 << index):
                hub.activate()
            else:
                hub.deactivate()

    def deactivate_hubs(self) -> None:
        for hub in self.memory_hubs:
            hub.deactivate()

    def activate_hubs(self) -> None:
        for hub in self.memory_hubs:
            hub.activate()

    # ------------------------------------------------------------------ #
    # Accelerator installation
    # ------------------------------------------------------------------ #
    def install_accelerator(
        self,
        accelerator: SoftAccelerator,
        registers: Optional[Union[RegisterLayout, Sequence[RegisterSpec]]] = None,
        fpga_mhz: Optional[float] = None,
        soft_cache: Union[bool, SoftCacheConfig, None] = None,
        enable_atomics: bool = False,
        physical_memory_access: bool = True,
    ) -> SynthesisResult:
        """Run the full installation flow and attach ``accelerator``.

        This is the zero-simulated-time variant used by experiments; the
        timed programming path is
        :func:`~repro.core.control_hub.transfer_bitstream`, which the serving
        layer drives.
        Returns the synthesis result (Fmax, area, utilization) so callers can
        build Table II and the ADP figures.
        """
        synthesis = SynthesisModel().implement(accelerator.design)
        bitstream = Bitstream.generate(accelerator.design, synthesis.fabric)

        # Programming: hubs must be inactive while the fabric is reconfigured.
        self.deactivate_hubs()
        self.control_hub.program_instantly(bitstream)
        self.activate_hubs()

        # Clocking: never faster than the post-route Fmax.
        self.clock_generator.set_max_frequency(synthesis.fmax_mhz)
        self.clock_generator.set_frequency(fpga_mhz if fpga_mhz is not None else synthesis.fmax_mhz)

        # Software interface.
        if registers is None:
            registers = RegisterLayout([])
        elif not isinstance(registers, RegisterLayout):
            registers = RegisterLayout(list(registers))
        self.control_hub.configure_registers(registers)

        # Memory ports (optionally behind soft caches).
        ports = []
        needed = accelerator.design.mem_ports
        if needed > len(self.memory_hubs):
            raise DuetError(
                f"{accelerator.name} needs {needed} memory hubs, "
                f"adapter {self.name!r} has {len(self.memory_hubs)}"
            )
        soft_cache_config: Optional[SoftCacheConfig]
        if soft_cache is True:
            soft_cache_config = SoftCacheConfig()
        elif isinstance(soft_cache, SoftCacheConfig):
            soft_cache_config = soft_cache
        else:
            soft_cache_config = None
        for hub in self.memory_hubs[:needed]:
            if enable_atomics:
                hub.switches.set(FeatureSwitches.ATOMICS_ENABLED, True)
            if not physical_memory_access:
                hub.switches.set(FeatureSwitches.TLB_ENABLED, True)
            if soft_cache_config is not None and self.mode == MODE_DUET:
                ports.append(hub.soft_cached_port(soft_cache_config))
            else:
                ports.append(hub.fpga_port())

        environment = AcceleratorEnvironment(
            sim=self.sim,
            domain=self.fpga_domain,
            mem_ports=ports,
            registers=self.control_hub.fpga_registers,
        )
        accelerator.attach(environment)
        self.installed_accelerator = accelerator
        return synthesis

    def start_accelerator(self):
        """Release the accelerator's reset; returns its behaviour process."""
        if self.installed_accelerator is None:
            raise DuetError(f"{self.name}: no accelerator installed")
        return self.installed_accelerator.start()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<DuetAdapter {self.name} mode={self.mode} hubs={self.num_memory_hubs} "
            f"fpga={self.fpga_domain.freq_mhz:.0f}MHz>"
        )
