"""Dolly system builder: wires every substrate into one simulated chip."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.adapter import DuetAdapter
from repro.cpu.core import Core, CpuContext
from repro.cpu.mmio import MmioMap, MmioPort
from repro.fpga.accelerator import SoftAccelerator
from repro.fpga.synthesis import SynthesisResult
from repro.mem.address import AddressMap
from repro.mem.directory import DirectoryShard
from repro.mem.dram import MainMemory
from repro.mem.private_cache import PrivateCacheAgent
from repro.mem.protocol import CoherenceState
from repro.noc import NocNetwork, TileRouter
from repro.platform.config import DollyConfig, SystemKind
from repro.platform.tiles import TilePlan
from repro.power.model import EnergyModel
from repro.sim import ClockDomain, Process, SimulationError, Simulator

#: A workload assignment: (core index, program, positional args).
ProgramAssignment = Tuple[int, Callable[..., Any], Tuple[Any, ...]]


@dataclass
class DollySystem:
    """A fully-wired simulated chip plus convenience drivers."""

    config: DollyConfig
    plan: TilePlan
    sim: Simulator
    sys_clock: ClockDomain
    network: NocNetwork
    memory: MainMemory
    address_map: AddressMap
    mmio_map: MmioMap
    routers: List[TileRouter]
    directories: List[DirectoryShard]
    cores: List[Core]
    adapter: Optional[DuetAdapter] = None
    #: The energy accounting layer; ``None`` unless the system was built
    #: with ``PowerConfig(enabled=True)`` (see ``docs/power.md``).
    energy: Optional[EnergyModel] = None
    extra: Dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # Accelerator installation
    # ------------------------------------------------------------------ #
    def install_accelerator(
        self,
        accelerator: SoftAccelerator,
        registers=None,
        fpga_mhz: Optional[float] = None,
        soft_cache=None,
        enable_atomics: bool = False,
        physical_memory_access: bool = True,
    ) -> SynthesisResult:
        """Install ``accelerator`` onto the system's eFPGA (Duet or FPSoC)."""
        if self.adapter is None:
            raise RuntimeError(f"{self.config.name} has no eFPGA to program")
        result = self.adapter.install_accelerator(
            accelerator,
            registers=registers,
            fpga_mhz=fpga_mhz if fpga_mhz is not None else self.config.fpga_mhz,
            soft_cache=soft_cache,
            enable_atomics=enable_atomics,
            physical_memory_access=physical_memory_access,
        )
        if self.energy is not None:
            self.energy.attach_accelerator(accelerator, result.area_mm2)
        return result

    def start_accelerator(self) -> Process:
        if self.adapter is None:
            raise RuntimeError(f"{self.config.name} has no eFPGA to start")
        return self.adapter.start_accelerator()

    # ------------------------------------------------------------------ #
    # Software execution
    # ------------------------------------------------------------------ #
    def run_programs(
        self,
        assignments: Sequence[ProgramAssignment],
        max_events: int = 80_000_000,
        until: Optional[float] = None,
        drain_ns: float = 5_000.0,
    ) -> Tuple[List[Any], float]:
        """Run one program per assignment to completion.

        Returns the list of program results (in assignment order) and the
        elapsed simulated time in nanoseconds, measured from the first
        instruction to the completion of the last program — the "total
        runtime" quantity used for the speedup figures.  After the programs
        finish, the simulation is drained for ``drain_ns`` more so that
        still-running hardware (e.g. an accelerator consuming its stop
        command) can settle; the drain is not part of the reported runtime.
        """
        start = self.sim.now
        energy = self.energy
        if energy is not None:
            # Close the pre-run epoch so the measured window's energy is
            # exactly the window's (setup and drain are accounted outside).
            energy.begin_window()
        sim = self.sim
        remaining = len(assignments)

        def counted(ctx: CpuContext, program: Callable[..., Any], args: Tuple[Any, ...]):
            # Stop the run in the callback in which the last program returns.
            nonlocal remaining
            result = yield from program(ctx, *args)
            remaining -= 1
            if not remaining:
                sim.stop()
            return result

        processes = []
        for core_index, program, args in assignments:
            core = self.cores[core_index]
            processes.append(core.run(counted, program, args,
                                      name=f"{core.name}.{program.__name__}"))
        if not remaining:
            # No program to wait for: stop after the first callback.
            sim.stop()
        sim.run(until=until, max_events=max_events)
        unfinished = [process for process in processes if not process.finished]
        if unfinished:
            raise SimulationError(
                f"{len(unfinished)} program(s) did not finish on {self.config.name}"
            )
        elapsed = self.sim.now - start
        if energy is not None:
            energy.end_window()
        if drain_ns > 0:
            self.sim.run(until=self.sim.now + drain_ns, max_events=max_events)
        return [process.done.value for process in processes], elapsed

    def run_single(self, program: Callable[..., Any], *args: Any, core: int = 0,
                   max_events: int = 80_000_000) -> Tuple[Any, float]:
        """Run one program on one core; returns (result, elapsed_ns)."""
        results, elapsed = self.run_programs([(core, program, args)], max_events=max_events)
        return results[0], elapsed

    def context(self, core: int = 0) -> CpuContext:
        return self.cores[core].context

    # ------------------------------------------------------------------ #
    # Cache warm-up (processor-only baselines start warm, Sec. V-A)
    # ------------------------------------------------------------------ #
    def warm_cache(self, core_index: int, base_addr: int, size_bytes: int,
                   modified: bool = False) -> None:
        """Pre-install a region into one core's private cache and the directory."""
        agent = self.cores[core_index].cache
        state = CoherenceState.MODIFIED if modified else CoherenceState.SHARED
        for line in self.address_map.lines_spanning(base_addr, size_bytes):
            agent.debug_install(line, state)
            home = self.address_map.home_tile(line)
            self.directories[home].debug_install(line, (agent.node, agent.target), modified)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def kind(self) -> SystemKind:
        return self.config.kind

    @property
    def fpga_domain(self) -> Optional[ClockDomain]:
        return self.adapter.fpga_domain if self.adapter is not None else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DollySystem {self.config.name} tiles={self.plan.width}x{self.plan.height}>"


def build_system(config: DollyConfig) -> DollySystem:
    """Assemble a complete system for ``config``."""
    plan = TilePlan.plan(config)
    sim = Simulator()
    sys_clock = ClockDomain(sim, config.system_mhz, "sys")
    network = NocNetwork(sim, sys_clock, topology=plan.topology())
    memory = MainMemory(config.memory)
    all_tiles = plan.all_tiles
    address_map = AddressMap(config.memory, home_tiles=all_tiles)
    mmio_map = MmioMap()

    routers = [TileRouter(network, node) for node in all_tiles]
    directories = [
        DirectoryShard(sim, sys_clock, routers[node], address_map, config.memory, memory)
        for node in all_tiles
    ]

    cores: List[Core] = []
    for index, node in enumerate(plan.processor_tiles):
        agent = PrivateCacheAgent(
            sim, sys_clock, routers[node], address_map, config.memory, memory,
            name=f"core{index}.l2",
        )
        mmio = MmioPort(sim, sys_clock, routers[node], mmio_map, name=f"core{index}.mmio")
        cores.append(
            Core(sim, sys_clock, index, agent, mmio=mmio, config=config.core,
                 name=f"core{index}")
        )

    adapter: Optional[DuetAdapter] = None
    if config.kind is not SystemKind.CPU_ONLY:
        control_router = routers[plan.control_tile]
        memory_routers = [routers[node] for node in plan.memory_tiles]
        adapter = DuetAdapter(
            sim,
            sys_clock,
            control_router,
            memory_routers,
            address_map,
            config.memory,
            memory,
            mmio_map,
            config=config.adapter_config(),
            name=f"{config.name}.adapter",
            control_tile_has_memory_hub=config.num_memory_hubs > 0,
        )

    system = DollySystem(
        config=config,
        plan=plan,
        sim=sim,
        sys_clock=sys_clock,
        network=network,
        memory=memory,
        address_map=address_map,
        mmio_map=mmio_map,
        routers=routers,
        directories=directories,
        cores=cores,
        adapter=adapter,
    )
    if config.power.enabled:
        system.energy = EnergyModel(config.power, sim, name=f"{config.name}.energy")
        system.energy.attach_system(system)
    return system
