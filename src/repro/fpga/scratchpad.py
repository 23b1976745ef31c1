"""BRAM scratchpad: non-coherent memory local to the soft accelerator.

The synthetic bandwidth benchmark of Sec. V-C has the eFPGA stage data in "a
simple scratchpad memory"; the PDES task scheduler keeps versioned cacheline
copies in its non-coherent memory.  The scratchpad lives entirely in the
eFPGA clock domain: one read or write port access per FPGA cycle.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.sim import ClockDomain, StatSet


class Scratchpad:
    """A word-addressable BRAM block in the FPGA clock domain."""

    def __init__(
        self,
        domain: ClockDomain,
        size_bytes: int,
        word_bytes: int = 8,
        ports: int = 1,
        name: str = "scratchpad",
    ) -> None:
        if size_bytes <= 0 or word_bytes <= 0:
            raise ValueError("scratchpad geometry must be positive")
        self.domain = domain
        self.size_bytes = size_bytes
        self.word_bytes = word_bytes
        self.ports = ports
        self.name = name
        self._words: Dict[int, int] = {}
        self.stats = StatSet(f"{name}.stats")

    @property
    def capacity_words(self) -> int:
        return self.size_bytes // self.word_bytes

    @property
    def bram_kbits(self) -> int:
        return (self.size_bytes * 8) // 1024

    def _check(self, index: int) -> None:
        if not (0 <= index < self.capacity_words):
            raise IndexError(f"{self.name}: word index {index} out of range")

    # ------------------------------------------------------------------ #
    # Timed access (one FPGA cycle per ``ports`` words)
    # ------------------------------------------------------------------ #
    def read(self, index: int):
        """Timed read of one word (generator)."""
        self._check(index)
        yield self.domain.wait_cycles(1)
        self.stats.counter("reads").increment()
        return self._words.get(index, 0)

    def write(self, index: int, value: int):
        """Timed write of one word (generator)."""
        self._check(index)
        yield self.domain.wait_cycles(1)
        self.stats.counter("writes").increment()
        self._words[index] = value
        return None

    # ------------------------------------------------------------------ #
    # Untimed access (for checking results after simulation)
    # ------------------------------------------------------------------ #
    def peek(self, index: int) -> int:
        self._check(index)
        return self._words.get(index, 0)
