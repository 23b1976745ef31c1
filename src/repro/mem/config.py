"""Memory system configuration.

Defaults follow the Dolly prototype described in Sec. IV of the paper:
16-byte cache lines, 8 KB L1D, private write-back 8 KB L2, 64 KB LLC shard
per tile, and an L2 store port limited to 8 bytes (the paper calls this out
as the reason CPU-pull bandwidth tops out below eFPGA-pull bandwidth).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class MemoryConfig:
    """Sizes, associativities and latencies of the cache hierarchy."""

    line_bytes: int = 16
    word_bytes: int = 8

    l1_size_bytes: int = 8 * 1024
    l1_assoc: int = 4
    l1_latency_cycles: int = 1

    l2_size_bytes: int = 8 * 1024
    l2_assoc: int = 4
    l2_latency_cycles: int = 3

    llc_shard_size_bytes: int = 64 * 1024
    llc_assoc: int = 4
    llc_latency_cycles: int = 6

    dram_latency_ns: float = 60.0

    #: Maximum store size supported by the private L2 port (paper Sec. V-C).
    max_store_bytes: int = 8

    #: MSHR-style limit on outstanding misses per private cache agent.
    max_outstanding_misses: int = 8

    def __post_init__(self) -> None:
        if self.line_bytes <= 0 or self.line_bytes & (self.line_bytes - 1):
            raise ValueError(f"line_bytes must be a power of two, got {self.line_bytes}")
        if self.word_bytes <= 0 or self.line_bytes % self.word_bytes:
            raise ValueError("word_bytes must divide line_bytes")
        for name in ("l1", "l2"):
            size = getattr(self, f"{name}_size_bytes")
            assoc = getattr(self, f"{name}_assoc")
            if size % (self.line_bytes * assoc):
                raise ValueError(f"{name} size must be a multiple of line_bytes * assoc")

    @property
    def words_per_line(self) -> int:
        return self.line_bytes // self.word_bytes
