"""System-level configuration: the Dolly-PpMm naming scheme of Sec. IV."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.core.adapter import AdapterConfig
from repro.core.memory_hub import MODE_DUET, MODE_FPSOC
from repro.cpu.core import CoreConfig
from repro.mem.config import MemoryConfig
from repro.noc.topology import TOPOLOGY_KINDS
from repro.power.model import PowerConfig


class SystemKind(enum.Enum):
    """The three systems compared throughout the evaluation."""

    CPU_ONLY = "cpu"
    DUET = "duet"
    FPSOC = "fpsoc"

    @property
    def has_fpga(self) -> bool:
        return self is not SystemKind.CPU_ONLY


@dataclass
class DollyConfig:
    """Configuration of one simulated chip (Dolly-PpMm or a baseline).

    ``num_processors`` is the paper's ``p`` and ``num_memory_hubs`` its ``m``.
    The processors and the hardware cache system run at ``system_mhz``
    (1 GHz in the evaluation, Sec. V-A); the eFPGA clock is set per
    experiment, bounded by the installed accelerator's Fmax.
    ``noc_topology`` selects the interconnect fabric: ``"mesh"`` (the
    paper's P-Mesh, the default), ``"torus"``, ``"ring"`` or ``"crossbar"``
    — see ``docs/noc.md`` for the trade-offs.  ``power`` enables the energy
    accounting layer of :mod:`repro.power` (disabled by default, in which
    case timing is bit-identical to a build without the power subsystem —
    see ``docs/power.md``).
    """

    num_processors: int = 1
    num_memory_hubs: int = 1
    kind: SystemKind = SystemKind.DUET
    system_mhz: float = 1000.0
    fpga_mhz: Optional[float] = None
    sync_stages: int = 2
    noc_topology: str = "mesh"
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    core: CoreConfig = field(default_factory=CoreConfig)
    power: PowerConfig = field(default_factory=PowerConfig)

    def __post_init__(self) -> None:
        if self.num_processors < 1:
            raise ValueError("a system needs at least one processor")
        if self.num_memory_hubs < 0:
            raise ValueError("the number of memory hubs cannot be negative")
        if self.kind is SystemKind.CPU_ONLY and self.num_memory_hubs:
            raise ValueError("a processor-only system has no memory hubs")
        if self.system_mhz <= 0:
            raise ValueError(
                f"system_mhz must be positive, got {self.system_mhz} "
                "(the system clock drives every hard component)"
            )
        if self.fpga_mhz is not None and self.fpga_mhz <= 0:
            raise ValueError(
                f"fpga_mhz must be positive when set, got {self.fpga_mhz} "
                "(leave it None to run at the accelerator's post-route Fmax)"
            )
        # Validate the topology name here, at configuration time, so a typo
        # fails immediately with the full list of valid fabrics instead of
        # surfacing later inside make_topology during system construction.
        # Case and surrounding whitespace are normalized first, so
        # ``noc_topology="Mesh"`` selects the mesh rather than erroring.
        normalized = str(self.noc_topology).strip().lower()
        if normalized not in TOPOLOGY_KINDS:
            known = ", ".join(sorted(TOPOLOGY_KINDS))
            raise ValueError(
                f"unknown NoC topology {self.noc_topology!r}; "
                f"valid topologies: {known}"
            )
        self.noc_topology = normalized
        # The adapter fields are checked by the AdapterConfig the system
        # builds from them; build one here so a bad value fails now, not
        # deep inside build_system.
        if self.kind.has_fpga:
            self.adapter_config()

    # ------------------------------------------------------------------ #
    # Naming and layout helpers
    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        if self.kind is SystemKind.CPU_ONLY:
            return f"CPU-P{self.num_processors}"
        prefix = "Dolly" if self.kind is SystemKind.DUET else "FPSoC"
        return f"{prefix}-P{self.num_processors}M{self.num_memory_hubs}"

    @property
    def num_adapter_tiles(self) -> int:
        """One C-tile plus one M-tile per Memory Hub beyond the first."""
        if self.kind is SystemKind.CPU_ONLY:
            return 0
        return 1 + max(0, self.num_memory_hubs - 1)

    @property
    def num_tiles(self) -> int:
        return self.num_processors + self.num_adapter_tiles

    @property
    def adapter_mode(self) -> str:
        return MODE_DUET if self.kind is SystemKind.DUET else MODE_FPSOC

    def adapter_config(self) -> AdapterConfig:
        return AdapterConfig(
            mode=self.adapter_mode,
            sync_stages=self.sync_stages,
            initial_fpga_mhz=self.fpga_mhz or 100.0,
        )

    @classmethod
    def dolly(cls, processors: int, memory_hubs: int, **kwargs) -> "DollyConfig":
        """Shorthand for the paper's Dolly-PpMm naming."""
        return cls(num_processors=processors, num_memory_hubs=memory_hubs,
                   kind=SystemKind.DUET, **kwargs)

    @classmethod
    def fpsoc(cls, processors: int, memory_hubs: int, **kwargs) -> "DollyConfig":
        return cls(num_processors=processors, num_memory_hubs=memory_hubs,
                   kind=SystemKind.FPSOC, **kwargs)

    @classmethod
    def cpu_only(cls, processors: int, **kwargs) -> "DollyConfig":
        return cls(num_processors=processors, num_memory_hubs=0,
                   kind=SystemKind.CPU_ONLY, **kwargs)
