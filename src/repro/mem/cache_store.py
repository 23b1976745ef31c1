"""Set-associative tag store with LRU replacement.

This is the structural model shared by every cache in the system: the L1 and
private L2 of each core, the LLC shards, the hardware Proxy Cache of each
Memory Hub, and the eFPGA-emulated Soft Caches.  Only tags and per-line
metadata are stored — functional data lives in :class:`repro.mem.dram.MainMemory`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from repro.mem.protocol import CoherenceState

_INVALID = CoherenceState.INVALID

#: The set every cache set starts as: shared by all of them, read-only.
#: :meth:`SetAssociativeCache.insert` gives a set its own ``OrderedDict``
#: on its first line, so the many sets that never hold one cost nothing.
_EMPTY_SET: "OrderedDict[int, CacheEntry]" = OrderedDict()


@dataclass
class CacheEntry:
    """Metadata for one resident cache line."""

    line_addr: int
    state: CoherenceState = CoherenceState.INVALID
    dirty: bool = False
    #: Virtual page number stored beside the physical tag (Sec. II-D: the
    #: Proxy Cache keeps the VPN to reverse-map invalidations into a
    #: virtually-tagged soft cache).
    virtual_page: Optional[int] = None
    meta: Dict[str, Any] = field(default_factory=dict)

    @property
    def valid(self) -> bool:
        return self.state is not CoherenceState.INVALID


class SetAssociativeCache:
    """A classic set-associative cache with true-LRU replacement."""

    def __init__(self, size_bytes: int, line_bytes: int, assoc: int, name: str = "cache") -> None:
        if size_bytes <= 0 or line_bytes <= 0 or assoc <= 0:
            raise ValueError("cache geometry must be positive")
        if size_bytes % (line_bytes * assoc):
            raise ValueError(
                f"{name}: size {size_bytes} not divisible by line*assoc "
                f"({line_bytes}*{assoc})"
            )
        self.size_bytes = size_bytes
        self.line_bytes = line_bytes
        self.assoc = assoc
        self.name = name
        self.num_sets = size_bytes // (line_bytes * assoc)
        # Each set is an OrderedDict keyed by line address; LRU at the front.
        self._sets: List["OrderedDict[int, CacheEntry]"] = [_EMPTY_SET] * self.num_sets
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------ #
    # Geometry helpers
    # ------------------------------------------------------------------ #
    def set_index(self, line_addr: int) -> int:
        return (line_addr // self.line_bytes) % self.num_sets

    # ------------------------------------------------------------------ #
    # Lookup / insert / invalidate
    # ------------------------------------------------------------------ #
    # lookup and peek run on every cache access, so they inline set_index
    # and CacheEntry.valid.
    def lookup(self, line_addr: int, touch: bool = True) -> Optional[CacheEntry]:
        """Return the resident entry for ``line_addr`` (None on miss)."""
        cache_set = self._sets[(line_addr // self.line_bytes) % self.num_sets]
        entry = cache_set.get(line_addr)
        if entry is None or entry.state is _INVALID:
            self.misses += 1
            return None
        if touch:
            cache_set.move_to_end(line_addr)
        self.hits += 1
        return entry

    def peek(self, line_addr: int) -> Optional[CacheEntry]:
        """Lookup without updating LRU or hit/miss statistics."""
        entry = self._sets[(line_addr // self.line_bytes) % self.num_sets].get(line_addr)
        if entry is not None and entry.state is not _INVALID:
            return entry
        return None

    def insert(
        self,
        line_addr: int,
        state: CoherenceState,
        dirty: bool = False,
        virtual_page: Optional[int] = None,
    ) -> Optional[CacheEntry]:
        """Install ``line_addr``; returns the evicted victim entry, if any."""
        index = self.set_index(line_addr)
        cache_set = self._sets[index]
        if cache_set is _EMPTY_SET:
            cache_set = self._sets[index] = OrderedDict()
        victim: Optional[CacheEntry] = None
        if line_addr not in cache_set and len(cache_set) >= self.assoc:
            _, victim = cache_set.popitem(last=False)
            self.evictions += 1
        entry = CacheEntry(line_addr, state=state, dirty=dirty, virtual_page=virtual_page)
        cache_set[line_addr] = entry
        cache_set.move_to_end(line_addr)
        return victim

    def invalidate(self, line_addr: int) -> Optional[CacheEntry]:
        """Remove ``line_addr``; returns the removed entry (None if absent)."""
        cache_set = self._sets[self.set_index(line_addr)]
        return cache_set.pop(line_addr, None)

    def invalidate_all(self) -> int:
        """Flush every line; returns the number of lines removed."""
        removed = len(self)
        self._sets = [_EMPTY_SET] * self.num_sets
        return removed

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return sum(len(cache_set) for cache_set in self._sets)

    def __contains__(self, line_addr: int) -> bool:
        return self.peek(line_addr) is not None

    def entries(self) -> Iterator[CacheEntry]:
        for cache_set in self._sets:
            yield from cache_set.values()

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SetAssociativeCache {self.name} {self.size_bytes}B "
            f"{self.num_sets}x{self.assoc} lines={len(self)}>"
        )
