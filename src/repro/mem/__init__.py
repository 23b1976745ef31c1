"""Cache-coherent memory hierarchy (the OpenPiton P-Mesh substitute).

Dolly's memory system (Sec. IV): per-core private write-back L2 caches, a
shared L3 (LLC) distributed as 64 KB shards across all tiles, and a
directory-based MESI protocol over the 2D-mesh NoC.  This package models
that system at transaction level:

* :class:`AddressMap` — line math and home-shard interleaving.
* :class:`SetAssociativeCache` — LRU tag store used by L1/L2/LLC/proxy/soft
  caches.
* :class:`PrivateCacheAgent` — an L1 + private L2 pair that speaks the
  directory protocol; it is also reused (unmodified, as in the paper) as the
  hardware half of the Duet Proxy Cache.
* :class:`DirectoryShard` — an LLC shard plus its slice of the directory.
* :class:`MainMemory` — flat-latency DRAM with a word-granular backing store
  so workloads can keep functional values in simulated memory.
"""

from repro.mem.address import AddressMap
from repro.mem.cache_store import CacheEntry, SetAssociativeCache
from repro.mem.config import MemoryConfig
from repro.mem.dram import MainMemory
from repro.mem.protocol import CoherenceState, DirectoryState
from repro.mem.directory import DirectoryShard
from repro.mem.private_cache import PrivateCacheAgent

__all__ = [
    "AddressMap",
    "CacheEntry",
    "SetAssociativeCache",
    "MemoryConfig",
    "MainMemory",
    "CoherenceState",
    "DirectoryState",
    "DirectoryShard",
    "PrivateCacheAgent",
]
