"""Silicon area model: Table I constants, eFPGA areas and ADP.

Table I of the paper reports the area and typical frequency of Dolly's hard
components (Ariane, the P-Mesh socket, the FPGA Manager + Soft Register
Interface, and the Coherent Memory Interface), scaled to 45 nm with a linear
MOSFET scaling model.  The evaluation then uses Area-Delay-Product (ADP) to
compare area efficiency: the processor-only baseline counts processors plus
the hardware cache system; the FPSoC adds the eFPGA silicon; Dolly further
adds the Duet Adapters (Sec. V-D).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional


@dataclass(frozen=True)
class Table1Row:
    """One row of Table I."""

    component: str
    technology: str
    area_mm2: float
    freq_mhz: float
    scaled_area_mm2: float
    scaled_freq_mhz: float


#: Table I, verbatim from the paper (45 nm-scaled columns included).
TABLE1_ROWS: List[Table1Row] = [
    Table1Row("Ariane", "GlobalFoundries 22nm FDX", 0.39, 910.0, 1.56, 455.0),
    Table1Row("P-Mesh Socket", "IBM 32nm SOI", 0.55, 1000.0, 1.10, 711.0),
    Table1Row("FPGA Mgr + Soft Reg Intf", "FreePDK45", 0.21, 925.0, 0.21, 925.0),
    Table1Row("Coherent Memory Intf", "FreePDK45", 0.04, 1250.0, 0.04, 1250.0),
]


class AreaModel:
    """Chip-level area accounting used for the ADP comparison of Fig. 12."""

    def __init__(self, rows: Optional[Iterable[Table1Row]] = None) -> None:
        rows = list(rows) if rows is not None else TABLE1_ROWS
        self._by_component: Dict[str, Table1Row] = {row.component: row for row in rows}

    # ------------------------------------------------------------------ #
    # Component areas (45 nm-scaled)
    # ------------------------------------------------------------------ #
    @property
    def ariane_mm2(self) -> float:
        return self._by_component["Ariane"].scaled_area_mm2

    @property
    def pmesh_socket_mm2(self) -> float:
        return self._by_component["P-Mesh Socket"].scaled_area_mm2

    @property
    def control_hub_mm2(self) -> float:
        return self._by_component["FPGA Mgr + Soft Reg Intf"].scaled_area_mm2

    @property
    def coherent_mem_intf_mm2(self) -> float:
        return self._by_component["Coherent Memory Intf"].scaled_area_mm2

    @property
    def reference_block_mm2(self) -> float:
        """The Table II normalization unit: one Ariane plus one P-Mesh socket."""
        return self.ariane_mm2 + self.pmesh_socket_mm2

    # ------------------------------------------------------------------ #
    # System areas
    # ------------------------------------------------------------------ #
    def processor_only_area(self, num_processors: int) -> float:
        """Processors plus the hardware cache system (one socket per core)."""
        return num_processors * (self.ariane_mm2 + self.pmesh_socket_mm2)

    def adapter_area(self, num_memory_hubs: int) -> float:
        """Duet Adapter hard logic: Control Hub + per-hub coherent interfaces.

        Each adapter tile (the C-tile and every M-tile) also carries a P-Mesh
        socket, which is counted here because those tiles exist only to host
        the adapter.
        """
        adapter_tiles = max(1, num_memory_hubs) if num_memory_hubs >= 0 else 1
        adapter_tiles = 1 + max(0, num_memory_hubs - 1)
        return (
            self.control_hub_mm2
            + num_memory_hubs * self.coherent_mem_intf_mm2
            + adapter_tiles * self.pmesh_socket_mm2
        )

    def fpsoc_area(self, num_processors: int, efpga_mm2: float) -> float:
        """FPSoC baseline: processor-only area plus the eFPGA silicon."""
        return self.processor_only_area(num_processors) + efpga_mm2

    def duet_area(self, num_processors: int, num_memory_hubs: int, efpga_mm2: float) -> float:
        """Dolly: FPSoC area plus the Duet Adapter hard logic."""
        return self.fpsoc_area(num_processors, efpga_mm2) + self.adapter_area(num_memory_hubs)

    # ------------------------------------------------------------------ #
    # Area-Delay Product
    # ------------------------------------------------------------------ #
    @staticmethod
    def adp(area_mm2: float, runtime_ns: float) -> float:
        return area_mm2 * runtime_ns

    def normalized_adp(
        self,
        area_mm2: float,
        runtime_ns: float,
        baseline_area_mm2: float,
        baseline_runtime_ns: float,
    ) -> float:
        """ADP relative to a baseline (lower is better, as in Fig. 12 bottom)."""
        baseline = self.adp(baseline_area_mm2, baseline_runtime_ns)
        if baseline <= 0:
            raise ValueError("baseline ADP must be positive")
        return self.adp(area_mm2, runtime_ns) / baseline
