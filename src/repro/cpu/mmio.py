"""Memory-mapped I/O over the NoC.

On-chip MMIOs are how processors talk to the Duet Adapter's Control Hub
(soft registers, shadow registers, feature switches, FPGA manager).  The
paper stresses that MMIOs "typically adhere to a strict memory ordering
model, e.g. I/O ordering" (Sec. II-F): the processor issues at most one
MMIO at a time and stalls until the response returns.  That stall is what
makes normal (eFPGA-resident) soft registers expensive and Shadow Registers
valuable, so the model enforces it faithfully.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.noc import MessagePlane, NocMessage, TileRouter
from repro.sim import ClockDomain, Event, Simulator, StatSet


class MmioError(RuntimeError):
    """Raised for unmapped MMIO addresses or malformed device responses."""


@dataclass(frozen=True)
class MmioRegion:
    """One device's address window."""

    base: int
    size: int
    node: int
    target: str
    name: str = ""

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.base + self.size


class MmioMap:
    """Global routing table from MMIO addresses to (tile, target) endpoints."""

    def __init__(self) -> None:
        self._regions: List[MmioRegion] = []
        self._next_base = 0xF000_0000

    def register(
        self, size: int, node: int, target: str, name: str = "", base: Optional[int] = None
    ) -> MmioRegion:
        """Allocate (or place at ``base``) a window and route it to a device."""
        if base is None:
            base = self._next_base
        region = MmioRegion(base=base, size=size, node=node, target=target, name=name)
        for existing in self._regions:
            if base < existing.base + existing.size and existing.base < base + size:
                raise MmioError(f"MMIO region {name!r} overlaps {existing.name!r}")
        self._regions.append(region)
        self._next_base = max(self._next_base, base + size)
        # Keep regions line-aligned-ish for readability of traces.
        self._next_base = (self._next_base + 0xFFF) & ~0xFFF
        return region

    def resolve(self, addr: int) -> MmioRegion:
        for region in self._regions:
            if region.contains(addr):
                return region
        raise MmioError(f"MMIO address 0x{addr:x} is not mapped")

    @property
    def regions(self) -> List[MmioRegion]:
        return list(self._regions)


class MmioPort:
    """A core's MMIO unit: strictly ordered, one outstanding access."""

    def __init__(
        self,
        sim: Simulator,
        domain: ClockDomain,
        tile_router: TileRouter,
        mmio_map: MmioMap,
        name: str = "",
        target: str = "mmio",
    ) -> None:
        self.sim = sim
        self.domain = domain
        self.node = tile_router.node
        self.mmio_map = mmio_map
        self.name = name or f"mmio@{self.node}"
        self.port = tile_router.port(target, self._handle)
        self._pending: Dict[int, Event] = {}
        self._busy = False
        self._waiters: List[Event] = []
        self.stats = StatSet(f"{self.name}.stats")

    # ------------------------------------------------------------------ #
    # Client interface (drive with ``yield from``)
    # ------------------------------------------------------------------ #
    def read(self, addr: int):
        """Strictly ordered MMIO read; returns the device's response value."""
        response = yield from self._transact("mmio_read", addr, None)
        return response.meta.get("value", 0)

    def write(self, addr: int, value: int):
        """Strictly ordered MMIO write; returns once the device acknowledged."""
        yield from self._transact("mmio_write", addr, value)
        return None

    def _transact(self, kind: str, addr: int, value: Optional[int]):
        region = self.mmio_map.resolve(addr)
        while self._busy:
            waiter = self.sim.event(f"{self.name}.order-wait")
            self._waiters.append(waiter)
            yield waiter
        self._busy = True
        yield self.domain.wait_cycles(1)
        self.stats.counter(kind).increment()
        started = self.sim.now
        done = self.sim.event(f"{self.name}.{kind}@{addr:x}")
        delivery = self.port.send(
            region.node,
            region.target,
            kind,
            addr=addr,
            size_bytes=8 if kind == "mmio_write" else 0,
            plane=MessagePlane.REQUEST,
            value=value,
        )
        message: NocMessage = delivery.value if delivery.triggered else None
        self._pending[addr] = done
        response = yield done
        self._pending.pop(addr, None)
        self.stats.histogram(f"{kind}_latency_ns").record(self.sim.now - started)
        self._busy = False
        if self._waiters:
            self._waiters.pop(0).succeed()
        return response

    # ------------------------------------------------------------------ #
    # Response handling
    # ------------------------------------------------------------------ #
    def _handle(self, message: NocMessage) -> None:
        if message.kind != "mmio_resp":
            raise MmioError(f"{self.name}: unexpected message {message.kind!r}")
        pending = self._pending.get(message.addr)
        if pending is None:
            raise MmioError(f"{self.name}: unsolicited MMIO response for 0x{message.addr:x}")
        pending.succeed(message)

    def mean_latency_ns(self, kind: str = "mmio_read") -> float:
        return self.stats.histogram(f"{kind}_latency_ns").mean
