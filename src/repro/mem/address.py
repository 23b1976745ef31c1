"""Address arithmetic and home-shard interleaving.

The LLC is distributed across all tiles (one shard per P-Mesh socket); a
cache line's *home* shard — the tile whose directory slice owns it — is
determined by low-order line-address interleaving, the same scheme OpenPiton
uses.
"""

from __future__ import annotations

from typing import List

from repro.mem.config import MemoryConfig


class AddressMap:
    """Line math plus the line-to-home-tile mapping."""

    def __init__(self, config: MemoryConfig, home_tiles: List[int]) -> None:
        if not home_tiles:
            raise ValueError("at least one home tile is required")
        self.config = config
        self.home_tiles = list(home_tiles)
        self._line_shift = config.line_bytes.bit_length() - 1

    # ------------------------------------------------------------------ #
    # Line / word arithmetic
    # ------------------------------------------------------------------ #
    def line_of(self, addr: int) -> int:
        """Return the line-aligned address containing ``addr``."""
        return (addr >> self._line_shift) << self._line_shift

    def line_index(self, addr: int) -> int:
        """Return the line number (address divided by the line size)."""
        return addr >> self._line_shift

    def lines_spanning(self, addr: int, size_bytes: int) -> List[int]:
        """Return every line-aligned address touched by ``[addr, addr+size)``."""
        if size_bytes <= 0:
            return []
        first = self.line_of(addr)
        last = self.line_of(addr + size_bytes - 1)
        step = self.config.line_bytes
        return list(range(first, last + step, step))

    # ------------------------------------------------------------------ #
    # Home mapping
    # ------------------------------------------------------------------ #
    def home_tile(self, addr: int) -> int:
        """Return the tile hosting the LLC shard / directory slice for ``addr``."""
        return self.home_tiles[self.line_index(addr) % len(self.home_tiles)]
