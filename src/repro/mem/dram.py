"""Main memory: a flat-latency DRAM model with a functional backing store.

The backing store keeps word-granular values so that workloads (locks,
queues, sorted arrays, graph frontiers) can round-trip real data through the
simulated memory system.  Values are kept globally coherent — the timing
model, not per-cache data copies, is what the evaluation measures.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.mem.config import MemoryConfig
from repro.sim import StatSet


class MainMemory:
    """Word-addressable backing store with a fixed access latency."""

    def __init__(self, config: MemoryConfig, latency_ns: Optional[float] = None) -> None:
        self.config = config
        self.latency_ns = config.dram_latency_ns if latency_ns is None else latency_ns
        self._words: Dict[int, int] = {}
        self.stats = StatSet("dram")
        # Hot-loop stat objects, resolved once instead of per access.
        self._c_reads = self.stats.counter("reads")
        self._c_writes = self.stats.counter("writes")
        self._c_rmw = self.stats.counter("rmw")
        #: Energy-accounting hook (see ``repro.power``); ``None`` unless the
        #: system was built with ``PowerConfig(enabled=True)``.  Row
        #: activations are charged where DRAM latency is charged — on LLC
        #: misses in the directory — not on functional backing-store reads,
        #: which also fire on cache hits.
        self.power_probe = None
        self._next_alloc = 0x1000_0000

    # ------------------------------------------------------------------ #
    # Functional access (zero-time; timing is charged by the caller)
    # ------------------------------------------------------------------ #
    # read_word and write_word run on every load and store, so they
    # inline _align.
    def read_word(self, addr: int) -> int:
        self._c_reads.value += 1
        word = self.config.word_bytes
        return self._words.get(addr // word * word, 0)

    def write_word(self, addr: int, value: int) -> None:
        self._c_writes.value += 1
        word = self.config.word_bytes
        self._words[addr // word * word] = value

    def read_modify_write(self, addr: int, fn) -> int:
        """Atomically apply ``fn(old) -> new``; returns the old value."""
        aligned = self._align(addr)
        old = self._words.get(aligned, 0)
        self._words[aligned] = fn(old)
        self._c_rmw.value += 1
        return old

    def _align(self, addr: int) -> int:
        return (addr // self.config.word_bytes) * self.config.word_bytes

    # ------------------------------------------------------------------ #
    # Simple bump allocator for workloads
    # ------------------------------------------------------------------ #
    def allocate(self, size_bytes: int, align: Optional[int] = None) -> int:
        """Reserve a region of the simulated address space and return its base."""
        align = align or self.config.line_bytes
        base = ((self._next_alloc + align - 1) // align) * align
        self._next_alloc = base + size_bytes
        return base

    def __len__(self) -> int:
        return len(self._words)
