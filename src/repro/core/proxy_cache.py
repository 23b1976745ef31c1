"""The hardware Proxy Cache.

The Proxy Cache is the heart of Duet's hybrid cache organization
(Sec. II-C): a private, local, *hardware* cache that participates in the
platform's directory-MESI protocol on behalf of the eFPGA and exposes a
simple Load/Store interface to it.  Dolly builds it by "adding a coherent
memory interface to the unmodified P-Mesh L2 cache", and this model does the
same: :class:`ProxyCache` is the unmodified
:class:`~repro.mem.private_cache.PrivateCacheAgent` (running in the fast,
processor clock domain) plus the two properties that make the organization
work:

* it **never requires nor accepts acknowledgements from the soft cache** —
  invalidations are forwarded into the eFPGA fire-and-forget through the
  Memory Hub's ordered FIFO, so coherence responses are never delayed by the
  slow clock domain;
* in the paper it also stores the **virtual page number beside the
  physical tag** of each line so invalidations can be reverse-mapped into
  a virtually-tagged soft cache (Sec. II-D); nothing in this model
  reverse-maps an invalidation by virtual page, so it keeps no such map.
"""

from __future__ import annotations

from repro.mem.address import AddressMap
from repro.mem.config import MemoryConfig
from repro.mem.dram import MainMemory
from repro.mem.private_cache import PrivateCacheAgent
from repro.noc import TileRouter
from repro.sim import ClockDomain, Simulator


class ProxyCache(PrivateCacheAgent):
    """A private cache agent acting as the eFPGA's coherence proxy."""

    def __init__(
        self,
        sim: Simulator,
        domain: ClockDomain,
        tile_router: TileRouter,
        address_map: AddressMap,
        config: MemoryConfig,
        memory: MainMemory,
        name: str = "",
        target: str = "proxy",
    ) -> None:
        # The Proxy Cache has no L1 in front of it: the eFPGA-side soft cache
        # (if any) plays that role, in the slow clock domain.
        super().__init__(
            sim,
            domain,
            tile_router,
            address_map,
            config,
            memory,
            name=name or f"proxy@{tile_router.node}",
            target=target,
            include_l1=False,
        )
