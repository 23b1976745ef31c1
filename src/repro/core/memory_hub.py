"""Memory Hub: the eFPGA's coherent window onto the memory system.

Each Duet Adapter contains one or more Memory Hubs, "each attached to the
NoC using an independent connection" (Sec. II-B).  A hub bundles

* the hardware :class:`~repro.core.proxy_cache.ProxyCache` (or, for the
  FPSoC baseline, a :class:`~repro.core.slow_cache.SlowCacheAgent`),
* an exception handler with timeout and parity checks,
* a bank of feature switches,
* a :class:`~repro.core.tlb.Tlb` for virtualized accelerators, and
* the clock-domain-crossing FIFOs that carry accelerator requests in and
  responses / invalidations out.

The accelerator-facing interface is :class:`HubMemoryPort`, the simple
Load/Store protocol of Sec. II-C.  Invalidation forwarding into a soft
cache is fire-and-forget: the Proxy Cache never waits for the eFPGA.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from repro.core.exceptions import DuetError, ErrorCode, ExceptionHandler
from repro.core.feature_switches import FeatureSwitches
from repro.core.proxy_cache import ProxyCache
from repro.core.slow_cache import SlowCacheAgent
from repro.core.soft_cache import SoftCache, SoftCacheConfig
from repro.core.tlb import PageFault, Tlb
from repro.fpga.accelerator import FpgaMemoryPort
from repro.mem.address import AddressMap
from repro.mem.config import MemoryConfig
from repro.mem.dram import MainMemory
from repro.noc import TileRouter
from repro.sim import AsyncFifo, ClockDomain, Event, Simulator, StatSet

#: Cache-organization modes for the FPGA side of a Memory Hub.
MODE_DUET = "duet"      # hardware Proxy Cache in the fast clock domain
MODE_FPSOC = "fpsoc"    # FPGA-side cache in the slow clock domain


class HubMemoryPort(FpgaMemoryPort):
    """The accelerator-facing Load/Store interface of one Memory Hub."""

    def __init__(self, hub: "MemoryHub") -> None:
        self.hub = hub

    # -- blocking operations -------------------------------------------- #
    def load(self, addr: int):
        event = yield from self.issue("load", addr)
        value = yield from self._complete(event)
        return value

    def load_line(self, addr: int):
        event = yield from self.issue("load_line", addr)
        value = yield from self._complete(event)
        return value

    def store(self, addr: int, value: int):
        event = yield from self.issue("store", addr, value)
        yield from self._complete(event)
        return None

    def amo(self, addr: int, fn):
        event = yield from self.issue("amo", addr, fn=fn)
        value = yield from self._complete(event)
        return value

    # -- pipelined (split-transaction) operations ------------------------ #
    def issue(self, op: str, addr: int, value: int = 0, fn=None, corrupt: bool = False):
        """Issue a request without waiting; returns its completion event."""
        completion = yield from self.hub._issue_from_fpga(op, addr, value, fn, corrupt)
        return completion

    def _complete(self, event: Event):
        value, error = yield event
        if error is not None:
            raise DuetError(error)
        return value

    def wait(self, event: Event):
        """Wait for a previously issued request and return its value."""
        value = yield from self._complete(event)
        return value


class MemoryHub:
    """One Memory Hub of a Duet Adapter."""

    def __init__(
        self,
        sim: Simulator,
        sys_domain: ClockDomain,
        fpga_domain: ClockDomain,
        tile_router: TileRouter,
        address_map: AddressMap,
        config: MemoryConfig,
        memory: MainMemory,
        name: str = "",
        target: str = "mh",
        mode: str = MODE_DUET,
        sync_stages: int = 2,
        switches: Optional[FeatureSwitches] = None,
        exceptions: Optional[ExceptionHandler] = None,
    ) -> None:
        if mode not in (MODE_DUET, MODE_FPSOC):
            raise ValueError(f"unknown Memory Hub mode {mode!r}")
        self.sim = sim
        self.sys_domain = sys_domain
        self.fpga_domain = fpga_domain
        self.node = tile_router.node
        self.address_map = address_map
        self.config = config
        self.memory = memory
        self.name = name or f"memhub@{self.node}"
        self.mode = mode
        self.switches = switches or FeatureSwitches(f"{self.name}.switches")
        self.exceptions = exceptions or ExceptionHandler(sim, sys_domain, name=f"{self.name}.exc")
        self.tlb = Tlb(sim, sys_domain, name=f"{self.name}.tlb")
        self.stats = StatSet(f"{self.name}.stats")

        if mode == MODE_DUET:
            self.cache = ProxyCache(
                sim, sys_domain, tile_router, address_map, config, memory,
                name=f"{self.name}.proxy", target=target,
            )
        else:
            self.cache = SlowCacheAgent(
                sim, fpga_domain, sys_domain, tile_router, address_map, config, memory,
                name=f"{self.name}.slowcache", target=target, sync_stages=sync_stages,
            )
        self.cache.add_line_listener(self._on_line_lost)

        # FPGA <-> hub CDC FIFOs (only exercised in Duet mode; in FPSoC mode
        # the accelerator datapath talks to the slow cache directly).
        self._req_fifo = AsyncFifo(sim, fpga_domain, sys_domain, capacity=16,
                                   sync_stages=sync_stages, name=f"{self.name}.req")
        self._resp_fifo = AsyncFifo(sim, sys_domain, fpga_domain, capacity=16,
                                    sync_stages=sync_stages, name=f"{self.name}.resp")
        self._inv_fifo = AsyncFifo(sim, sys_domain, fpga_domain, capacity=64,
                                   sync_stages=sync_stages, name=f"{self.name}.inv")
        self._pending: Dict[int, Event] = {}
        self._request_ids = itertools.count()
        self._soft_caches: List[SoftCache] = []
        if mode == MODE_DUET:
            sim.process(self._server(), name=f"{self.name}.server")
            sim.process(self._response_dispatcher(), name=f"{self.name}.resp-dispatch")

    # ------------------------------------------------------------------ #
    # Activation / configuration
    # ------------------------------------------------------------------ #
    @property
    def active(self) -> bool:
        return self.switches.enabled(FeatureSwitches.ACTIVE)

    def deactivate(self) -> None:
        """Stop accepting eFPGA requests; the Proxy Cache stays coherent."""
        self.switches.set(FeatureSwitches.ACTIVE, False)

    def activate(self) -> None:
        self.switches.set(FeatureSwitches.ACTIVE, True)

    def fpga_port(self) -> FpgaMemoryPort:
        """The raw (hard-cache-only) port handed to the accelerator."""
        if self.mode == MODE_FPSOC:
            return _SlowCachePort(self)
        return HubMemoryPort(self)

    def soft_cached_port(self, config: Optional[SoftCacheConfig] = None) -> SoftCache:
        """Wrap the hub port in a soft cache and enable invalidation forwarding."""
        if self.mode == MODE_FPSOC:
            raise DuetError(
                "the FPSoC baseline hardens the FPGA-side cache; soft caches "
                "are only supported on Duet Memory Hubs"
            )
        soft_cache = SoftCache(
            self.sim, self.fpga_domain, HubMemoryPort(self), config,
            name=f"{self.name}.softcache",
        )
        self.connect_soft_cache(soft_cache)
        return soft_cache

    def connect_soft_cache(self, soft_cache: SoftCache) -> None:
        """Route forwarded invalidations into ``soft_cache`` (no acks back)."""
        self.switches.set(FeatureSwitches.FORWARD_INVALIDATIONS, True)
        self._soft_caches.append(soft_cache)
        self.sim.process(self._invalidation_drain(soft_cache),
                         name=f"{self.name}.inv-drain")

    # ------------------------------------------------------------------ #
    # FPGA-side request path (Duet mode)
    # ------------------------------------------------------------------ #
    def _issue_from_fpga(self, op: str, addr: int, value: int, fn, corrupt: bool):
        request_id = next(self._request_ids)
        completion = self.sim.event(f"{self.name}.req#{request_id}")
        self._pending[request_id] = completion
        self.stats.counter(f"fpga_{op}").increment()
        yield from self._req_fifo.put((request_id, op, addr, value, fn, corrupt))
        return completion

    def _server(self):
        """Fast-domain server: pops eFPGA requests and serves them concurrently."""
        while True:
            request = yield from self._req_fifo.get()
            self.sim.process(self._serve_one(request), name=f"{self.name}.serve")

    def _serve_one(self, request: Tuple):
        request_id, op, addr, value, fn, corrupt = request
        if not self.active:
            yield from self._respond(request_id, None, "memory hub deactivated")
            return None
        if not self.exceptions.check_parity({"corrupt": corrupt}):
            self.deactivate()
            yield from self._respond(request_id, None, "parity error on eFPGA output")
            return None
        if self.switches.enabled(FeatureSwitches.TLB_ENABLED):
            try:
                addr = yield from self.tlb.translate(addr)
            except PageFault as fault:
                self.exceptions.raise_error(ErrorCode.PAGE_FAULT_FATAL)
                self.deactivate()
                yield from self._respond(request_id, None, str(fault))
                return None
        result = None
        if op == "load":
            result = yield from self.cache.load(addr)
        elif op == "load_line":
            line = self.address_map.line_of(addr)
            yield from self.cache.load(line)
            result = [
                self.memory.read_word(line + offset * self.config.word_bytes)
                for offset in range(self.config.words_per_line)
            ]
        elif op == "store":
            yield from self.cache.store(addr, value)
        elif op == "amo":
            if not self.switches.enabled(FeatureSwitches.ATOMICS_ENABLED):
                yield from self._respond(request_id, None, "atomics are disabled")
                return None
            result = yield from self.cache.amo(addr, fn)
        else:
            yield from self._respond(request_id, None, f"unknown operation {op!r}")
            return None
        yield from self._respond(request_id, result, None)
        return None

    def _respond(self, request_id: int, value, error: Optional[str]):
        yield from self._resp_fifo.put((request_id, value, error))
        return None

    def _response_dispatcher(self):
        """FPGA-domain process completing the accelerator's pending requests."""
        while True:
            request_id, value, error = yield from self._resp_fifo.get()
            completion = self._pending.pop(request_id, None)
            if completion is not None and not completion.triggered:
                completion.succeed((value, error))

    # ------------------------------------------------------------------ #
    # Invalidation forwarding (fire-and-forget, Sec. II-C)
    # ------------------------------------------------------------------ #
    def _on_line_lost(self, line_addr: int, reason: str) -> None:
        if not self.switches.enabled(FeatureSwitches.FORWARD_INVALIDATIONS):
            return
        self.stats.counter("invalidations_forwarded").increment()
        self._inv_fifo.try_put(line_addr)

    def _invalidation_drain(self, soft_cache: SoftCache):
        while True:
            line_addr = yield from self._inv_fifo.get()
            yield self.fpga_domain.wait_cycles(1)
            soft_cache.invalidate_line(line_addr)


class _SlowCachePort(FpgaMemoryPort):
    """FPSoC mode: the accelerator talks to the slow cache in its own domain."""

    def __init__(self, hub: MemoryHub) -> None:
        self.hub = hub

    def load(self, addr: int):
        value = yield from self.hub.cache.load(addr)
        return value

    def load_line(self, addr: int):
        line = self.hub.address_map.line_of(addr)
        yield from self.hub.cache.load(line)
        return [
            self.hub.memory.read_word(line + offset * self.hub.config.word_bytes)
            for offset in range(self.hub.config.words_per_line)
        ]

    def store(self, addr: int, value: int):
        yield from self.hub.cache.store(addr, value)
        return None

    def amo(self, addr: int, fn):
        value = yield from self.hub.cache.amo(addr, fn)
        return value
