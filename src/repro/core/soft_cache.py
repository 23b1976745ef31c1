"""Soft Cache: an optional, eFPGA-emulated cache in front of a Memory Hub.

Each Proxy Cache "can be configured at eFPGA programming time to support an
optional, bi-directionally coherent, soft cache built out of eFPGA
resources" (Sec. II-C).  The soft cache is tightly integrated into the
accelerator datapath (hits cost one eFPGA cycle), must be write-through
(write buffering allowed), and receives invalidations, line fills and write
acks in order from the Proxy Cache — but never acknowledges them, which is
what keeps the slow clock domain off the coherence critical path.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from repro.fpga.accelerator import FpgaMemoryPort
from repro.mem.cache_store import SetAssociativeCache
from repro.mem.protocol import CoherenceState
from repro.sim import ClockDomain, Event, Simulator, StatSet


@dataclass
class SoftCacheConfig:
    """Geometry and policy of one soft cache."""

    size_bytes: int = 4096
    assoc: int = 2
    line_bytes: int = 16
    word_bytes: int = 8
    hit_cycles: int = 1
    write_buffer_depth: int = 4

    def __post_init__(self) -> None:
        for name in ("size_bytes", "assoc", "line_bytes", "word_bytes",
                     "write_buffer_depth"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.line_bytes % self.word_bytes:
            raise ValueError(
                f"line_bytes ({self.line_bytes}) must be a whole number of "
                f"{self.word_bytes}-byte words")
        if self.hit_cycles < 0:
            raise ValueError(
                f"hit_cycles cannot be negative, got {self.hit_cycles}")

    @property
    def bram_kbits(self) -> int:
        return (self.size_bytes * 8) // 1024


class SoftCache(FpgaMemoryPort):
    """A write-through, optionally write-buffered cache in the FPGA domain."""

    def __init__(
        self,
        sim: Simulator,
        domain: ClockDomain,
        base_port: FpgaMemoryPort,
        config: Optional[SoftCacheConfig] = None,
        name: str = "softcache",
    ) -> None:
        self.sim = sim
        self.domain = domain
        self.base_port = base_port
        self.config = config or SoftCacheConfig()
        self.name = name
        self.tags = SetAssociativeCache(
            self.config.size_bytes, self.config.line_bytes, self.config.assoc, name=f"{name}.store"
        )
        # Functional word values per resident line.
        self._line_words: Dict[int, Dict[int, int]] = {}
        self._write_buffer: Deque[Tuple[int, int]] = deque()
        self._write_space: Optional[Event] = None
        self._write_kick: Optional[Event] = None
        self.stats = StatSet(f"{name}.stats")
        self.sim.process(self._drain_writes(), name=f"{name}.write-drain")

    # ------------------------------------------------------------------ #
    # Geometry helpers
    # ------------------------------------------------------------------ #
    def _line_of(self, addr: int) -> int:
        return addr - (addr % self.config.line_bytes)

    def _word_of(self, addr: int) -> int:
        return addr - (addr % self.config.word_bytes)

    # ------------------------------------------------------------------ #
    # FpgaMemoryPort interface
    # ------------------------------------------------------------------ #
    def load(self, addr: int):
        line = self._line_of(addr)
        word = self._word_of(addr)
        yield self.domain.wait_cycles(self.config.hit_cycles)
        # Pending buffered writes forward to reads of the same word.
        for buffered_addr, buffered_value in reversed(self._write_buffer):
            if self._word_of(buffered_addr) == word:
                self.stats.counter("raw_forwards").increment()
                return buffered_value
        entry = self.tags.lookup(line)
        if entry is not None and word in self._line_words.get(line, {}):
            self.stats.counter("hits").increment()
            return self._line_words[line][word]
        self.stats.counter("misses").increment()
        words = yield from self.base_port.load_line(line)
        self._install(line, words)
        return self._line_words[line].get(word, 0)

    def load_line(self, addr: int) -> List[int]:
        line = self._line_of(addr)
        yield self.domain.wait_cycles(self.config.hit_cycles)
        entry = self.tags.lookup(line)
        if entry is not None and line in self._line_words:
            self.stats.counter("hits").increment()
            return self._words_as_list(line)
        self.stats.counter("misses").increment()
        words = yield from self.base_port.load_line(line)
        self._install(line, words)
        return list(words)

    def store(self, addr: int, value: int):
        """Write-through store: buffered locally, pushed to the hub in order."""
        line = self._line_of(addr)
        word = self._word_of(addr)
        yield self.domain.wait_cycles(self.config.hit_cycles)
        # Write-allocate: a store miss installs the line.
        if self.tags.peek(line) is None:
            self._install(line, [])
        self._line_words.setdefault(line, {})[word] = value
        while len(self._write_buffer) >= self.config.write_buffer_depth:
            self._write_space = self.sim.event(f"{self.name}.wb-space")
            yield self._write_space
        self._write_buffer.append((addr, value))
        self.stats.counter("stores").increment()
        if self._write_kick is not None and not self._write_kick.triggered:
            self._write_kick.succeed()
        return None

    def amo(self, addr: int, fn):
        """Atomics bypass the soft cache and go straight to the Proxy Cache."""
        yield self.domain.wait_cycles(self.config.hit_cycles)
        self.invalidate_line(self._line_of(addr))
        old = yield from self.base_port.amo(addr, fn)
        return old

    # ------------------------------------------------------------------ #
    # Invalidation input (from the Proxy Cache, no acknowledgement)
    # ------------------------------------------------------------------ #
    def invalidate_line(self, line_addr: int) -> None:
        line = self._line_of(line_addr)
        if self.tags.invalidate(line) is not None:
            self.stats.counter("invalidations").increment()
        self._line_words.pop(line, None)

    def flush(self) -> None:
        """Drop every cached line (used around reconfiguration)."""
        self.tags.invalidate_all()
        self._line_words.clear()

    # ------------------------------------------------------------------ #
    # Write-buffer drain
    # ------------------------------------------------------------------ #
    def _drain_writes(self):
        while True:
            while not self._write_buffer:
                self._write_kick = self.sim.event(f"{self.name}.wb-kick")
                yield self._write_kick
            addr, value = self._write_buffer.popleft()
            if self._write_space is not None and not self._write_space.triggered:
                self._write_space.succeed()
            yield from self.base_port.store(addr, value)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _install(self, line: int, words: List[int]) -> None:
        victim = self.tags.insert(line, CoherenceState.SHARED)
        if victim is not None:
            self._line_words.pop(victim.line_addr, None)
        word_map = {}
        for offset, value in enumerate(words):
            word_map[line + offset * self.config.word_bytes] = value
        self._line_words[line] = word_map

    def _words_as_list(self, line: int) -> List[int]:
        count = self.config.line_bytes // self.config.word_bytes
        word_map = self._line_words.get(line, {})
        return [word_map.get(line + i * self.config.word_bytes, 0) for i in range(count)]

    @property
    def hit_rate(self) -> float:
        return self.tags.hit_rate
