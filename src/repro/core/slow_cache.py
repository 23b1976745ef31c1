"""The FPSoC-style "slow cache": an FPGA-side private cache in the slow domain.

The paper's FPSoC baseline (Sec. V-D) "moves the P-Mesh L2 cache into the
eFPGA's (slow) clock domain": the cache logic runs at the eFPGA frequency
and every coherence message entering or leaving it pays the clock-domain
crossing.  That is exactly what Figs. 5a/5b illustrate and what makes
"CPU pull w/ slow cache" and "eFPGA pull w/ slow cache" scale so poorly in
Figs. 9 and 10.

:class:`SlowCacheAgent` reuses the unmodified
:class:`~repro.mem.private_cache.PrivateCacheAgent` protocol logic but (a)
clocks it in the eFPGA domain and (b) interposes asynchronous FIFOs between
the agent and the mesh in both directions.
"""

from __future__ import annotations

from repro.mem.address import AddressMap
from repro.mem.config import MemoryConfig
from repro.mem.dram import MainMemory
from repro.mem.private_cache import PrivateCacheAgent
from repro.noc import MessagePlane, NocMessage, TileRouter
from repro.noc.port import NocPort
from repro.sim import AsyncFifo, ClockDomain, Event, Simulator


class _CdcOutboundPort:
    """Looks like a :class:`NocPort` but stages sends through a CDC FIFO."""

    def __init__(self, agent: "SlowCacheAgent", real_port: NocPort, fifo: AsyncFifo) -> None:
        self._agent = agent
        self._real_port = real_port
        self._fifo = fifo
        self.node = real_port.node
        self.target = real_port.target

    def send(self, dst_node: int, dst_target: str, kind: str, **kwargs) -> Event:
        delivered = self._agent.sim.event("slow-cache-send")
        # A full outbound FIFO still stages the send (unbounded model) so
        # protocol messages are never lost, but the overflow is counted.
        if self._fifo.is_full:
            self._agent.stats.counter("outbound_fifo_overflow").increment()
        self._fifo.force_put(("send", (dst_node, dst_target, kind), kwargs, delivered))
        return delivered

    def reply(self, original: NocMessage, kind: str, **kwargs) -> Event:
        return self.send(
            original.meta["reply_node"],
            original.meta["reply_target"],
            kind,
            addr=original.addr,
            plane=MessagePlane.RESPONSE,
            **kwargs,
        )


class SlowCacheAgent(PrivateCacheAgent):
    """A private cache agent living in the eFPGA clock domain (FPSoC model)."""

    def __init__(
        self,
        sim: Simulator,
        fpga_domain: ClockDomain,
        sys_domain: ClockDomain,
        tile_router: TileRouter,
        address_map: AddressMap,
        config: MemoryConfig,
        memory: MainMemory,
        name: str = "",
        target: str = "slowcache",
        sync_stages: int = 2,
        include_l1: bool = False,
    ) -> None:
        self.sys_domain = sys_domain
        # CDC FIFOs must exist before super().__init__ calls _attach().
        self._inbound = AsyncFifo(sim, sys_domain, fpga_domain, capacity=64,
                                  sync_stages=sync_stages, name=f"{name or target}.in")
        self._outbound = AsyncFifo(sim, fpga_domain, sys_domain, capacity=64,
                                   sync_stages=sync_stages, name=f"{name or target}.out")
        super().__init__(
            sim,
            fpga_domain,
            tile_router,
            address_map,
            config,
            memory,
            name=name or f"slowcache@{tile_router.node}",
            target=target,
            include_l1=include_l1,
        )
        self.sim.process(self._pump_inbound(), name=f"{self.name}.pump-in")
        self.sim.process(self._pump_outbound(), name=f"{self.name}.pump-out")

    # ------------------------------------------------------------------ #
    # NoC attachment with CDC in both directions
    # ------------------------------------------------------------------ #
    def _attach(self, tile_router: TileRouter, target: str):
        real_port = tile_router.port(target, self._on_noc_arrival)
        return _CdcOutboundPort(self, real_port, self._outbound)

    def _on_noc_arrival(self, message: NocMessage) -> None:
        """NoC delivery lands in the fast domain; stage it across the CDC."""
        # Never drop protocol traffic: extend beyond nominal capacity.
        if self._inbound.is_full:
            self.stats.counter("inbound_fifo_overflow").increment()
        self._inbound.force_put(message)

    def _pump_inbound(self):
        while True:
            message = yield from self._inbound.get()
            # The slow cache controller examines the message on its own clock.
            yield self.domain.wait_cycles(1)
            self._handle(message)

    def _pump_outbound(self):
        while True:
            action, destination, kwargs, delivered = yield from self._outbound.get()
            dst_node, dst_target, kind = destination
            real_port = self._real_port
            event = real_port.send(dst_node, dst_target, kind, **kwargs)
            event.add_callback(lambda value, done=delivered: None if done.triggered
                               else done.succeed(value))

    @property
    def _real_port(self) -> NocPort:
        return self.port._real_port
