"""Island-style eFPGA fabric resource model.

The fabric is a grid of tiles.  Most columns hold configurable logic blocks
(CLBs, each with ``luts_per_clb`` fracturable LUT6s and as many flip-flops);
every ``bram_column_period``-th column holds Block RAMs; a small number of
columns hold hard multipliers (DSPs).  This mirrors the VTR flagship
architecture the paper maps its accelerators onto
(``k6_frac_N10_frac_chain_mem32K_40nm``, an Altera Stratix-IV-like device).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class FabricSpec:
    """Per-tile capacities and silicon-area constants of the fabric family."""

    luts_per_clb: int = 10
    ffs_per_clb: int = 20
    bram_kbits_per_tile: int = 32
    dsps_per_tile: int = 1
    #: One column of BRAM tiles for every ``bram_column_period`` CLB columns.
    bram_column_period: int = 8
    #: One column of DSP tiles for every ``dsp_column_period`` CLB columns.
    dsp_column_period: int = 16

    # Silicon area per tile (mm^2, 45 nm-scaled) including its share of the
    # routing fabric and configuration memory.  Values chosen so that the
    # accelerators of Table II land near their reported normalized areas.
    clb_tile_area_mm2: float = 0.0145
    bram_tile_area_mm2: float = 0.0190
    dsp_tile_area_mm2: float = 0.0260

    #: Configuration bits per tile (drives bitstream size / programming time).
    config_bits_per_tile: int = 1024


@dataclass
class FabricInstance:
    """A concrete fabric: a ``columns`` x ``rows`` grid of tiles."""

    spec: FabricSpec
    columns: int
    rows: int

    def __post_init__(self) -> None:
        if self.columns < 1 or self.rows < 1:
            raise ValueError("fabric must have at least one column and one row")

    # ------------------------------------------------------------------ #
    # Column accounting
    # ------------------------------------------------------------------ #
    @property
    def bram_columns(self) -> int:
        return self.columns // (self.spec.bram_column_period + 1)

    @property
    def dsp_columns(self) -> int:
        return self.columns // (self.spec.dsp_column_period + 1)

    @property
    def clb_columns(self) -> int:
        return self.columns - self.bram_columns - self.dsp_columns

    # ------------------------------------------------------------------ #
    # Capacities
    # ------------------------------------------------------------------ #
    @property
    def total_clbs(self) -> int:
        return self.clb_columns * self.rows

    @property
    def total_bram_kbits(self) -> int:
        return self.bram_columns * self.rows * self.spec.bram_kbits_per_tile

    @property
    def total_bram_tiles(self) -> int:
        return self.bram_columns * self.rows

    @property
    def total_dsps(self) -> int:
        return self.dsp_columns * self.rows * self.spec.dsps_per_tile

    @property
    def total_tiles(self) -> int:
        return self.columns * self.rows

    # ------------------------------------------------------------------ #
    # Area and configuration
    # ------------------------------------------------------------------ #
    @property
    def area_mm2(self) -> float:
        spec = self.spec
        return (
            self.total_clbs * spec.clb_tile_area_mm2
            + self.total_bram_tiles * spec.bram_tile_area_mm2
            + self.dsp_columns * self.rows * spec.dsp_tile_area_mm2
        )

    @property
    def config_bits(self) -> int:
        return self.total_tiles * self.spec.config_bits_per_tile

    # ------------------------------------------------------------------ #
    # Region grid (partial reconfiguration)
    # ------------------------------------------------------------------ #
    def region_columns(self, regions: int) -> tuple:
        """Split the fabric into ``regions`` contiguous column bands.

        PRGA-style partial reconfiguration treats the fabric as an array of
        regions, each with its own configuration chain; a band covers whole
        columns so its configuration bits are a multiple of the per-tile
        bits.  Columns divide as evenly as possible, extras to the leftmost
        bands, so the split is deterministic.
        """
        if regions < 1:
            raise ValueError(f"need at least one region, got {regions}")
        if regions > self.columns:
            raise ValueError(
                f"cannot split {self.columns} columns into {regions} regions"
            )
        base, extra = divmod(self.columns, regions)
        return tuple(base + (1 if index < extra else 0)
                     for index in range(regions))

    def region_tile_capacities(self, regions: int) -> tuple:
        """Tiles per region band (the capacity the placement ladder packs)."""
        return tuple(cols * self.rows for cols in self.region_columns(regions))

    def region_config_bits(self, regions: int) -> tuple:
        """Configuration bits per region band.

        Sums to :attr:`config_bits` exactly; each entry is what one
        region-granular reprogram transfers through the Control Hub.
        """
        bits = self.spec.config_bits_per_tile
        return tuple(tiles * bits for tiles in self.region_tile_capacities(regions))

    def fits(self, clbs: int, bram_kbits: int, dsps: int) -> bool:
        """Whether a design needing the given resources fits this fabric."""
        return (
            clbs <= self.total_clbs
            and bram_kbits <= self.total_bram_kbits
            and dsps <= self.total_dsps
        )

    @classmethod
    def minimal_for(
        cls, spec: FabricSpec, clbs: int, bram_kbits: int, dsps: int, slack: float = 1.15
    ) -> "FabricInstance":
        """Smallest near-square fabric that fits the given resources.

        ``slack`` reserves headroom for routing congestion, matching the way
        real place-and-route cannot use 100% of a device.
        """
        clbs = max(1, math.ceil(clbs * slack))
        bram_kbits = max(0, bram_kbits)
        dsps = max(0, dsps)
        side = max(2, math.isqrt(clbs) + 1)
        while True:
            candidate = cls(spec, columns=side, rows=side)
            if candidate.fits(clbs, bram_kbits, dsps):
                return candidate
            side += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FabricInstance {self.columns}x{self.rows} {self.area_mm2:.2f}mm2>"
