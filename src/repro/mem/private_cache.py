"""Private cache agent: an L1 + write-back L2 pair speaking directory MESI.

One agent backs every core (its L1D + private L2) and — unchanged, exactly
as the paper does with the P-Mesh L2 ("Dolly implements the Proxy Cache by
adding a coherent memory interface to the unmodified P-Mesh L2 cache") —
every Memory Hub's Proxy Cache.  The agent exposes blocking ``load`` /
``store`` / ``amo`` generators to its client and reacts to directory
forwards (invalidations, ownership transfers) independently of whatever the
client is doing, which is what lets a core wait on its own miss while still
acknowledging invalidations.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.mem.address import AddressMap
from repro.mem.cache_store import SetAssociativeCache
from repro.mem.config import MemoryConfig
from repro.mem.dram import MainMemory
from repro.mem.protocol import CoherenceState, MsgKind
from repro.noc import MessagePlane, NocMessage, TileRouter
from repro.sim import ClockDomain, Event, Simulator, StatSet

#: Callback invoked when the agent loses a line (invalidation / ownership
#: transfer).  The Duet Memory Hub uses this hook to forward invalidations
#: into the eFPGA-emulated soft cache without requiring an acknowledgement.
LineListener = Callable[[int, str], None]


class PrivateCacheAgent:
    """A coherent private cache (L1 + L2) attached to one NoC tile."""

    def __init__(
        self,
        sim: Simulator,
        domain: ClockDomain,
        tile_router: TileRouter,
        address_map: AddressMap,
        config: MemoryConfig,
        memory: MainMemory,
        name: str = "",
        target: str = "l2",
        include_l1: bool = True,
    ) -> None:
        self.sim = sim
        self.domain = domain
        self.node = tile_router.node
        self.address_map = address_map
        self.config = config
        self.memory = memory
        self.name = name or f"l2@{self.node}"
        self.target = target
        self.port = self._attach(tile_router, target)
        self.include_l1 = include_l1
        self.l1 = (
            SetAssociativeCache(
                config.l1_size_bytes, config.line_bytes, config.l1_assoc, name=f"{self.name}.l1"
            )
            if include_l1
            else None
        )
        self.l2 = SetAssociativeCache(
            config.l2_size_bytes, config.line_bytes, config.l2_assoc, name=f"{self.name}.l2"
        )
        self._pending: Dict[int, Event] = {}
        self._writeback_buffer: Dict[int, bool] = {}
        self._mshr_free: Optional[Event] = None
        self._line_listeners: list = []
        #: Energy-accounting hook (see ``repro.power``); ``None`` unless the
        #: system was built with ``PowerConfig(enabled=True)``.
        self.power_probe = None
        self.stats = StatSet(f"{self.name}.stats")
        # Hot-loop stat objects, resolved once instead of per access.
        self._c_loads = self.stats.counter("loads")
        self._c_l1_hits = self.stats.counter("l1_hits")
        self._c_l2_hits = self.stats.counter("l2_hits")
        self._c_load_misses = self.stats.counter("load_misses")
        self._c_stores = self.stats.counter("stores")
        self._c_store_hits = self.stats.counter("store_hits")
        self._c_store_misses = self.stats.counter("store_misses")
        self._c_amos = self.stats.counter("amos")
        self._c_evictions = self.stats.counter("evictions")
        self._c_invalidations = self.stats.counter("invalidations")
        self._c_fwd_get_s = self.stats.counter("fwd_get_s")
        self._c_fwd_get_m = self.stats.counter("fwd_get_m")
        self._miss_wait_name = f"{self.name}.miss"
        self._fwd_name = f"{self.name}-fwd"

    def _attach(self, tile_router: TileRouter, target: str):
        """Create the agent's NoC port.

        Subclasses (notably the FPSoC-style slow cache, which lives in the
        eFPGA clock domain) override this to interpose clock-domain-crossing
        FIFOs between the agent and the mesh.
        """
        return tile_router.port(target, self._handle)

    # ------------------------------------------------------------------ #
    # Client-facing blocking interface (drive with ``yield from``)
    # ------------------------------------------------------------------ #
    def load(self, addr: int, size_bytes: int = 8) -> Any:
        """Read ``addr``; returns the functional word value."""
        line = self.start_load(addr)
        yield self.domain.wait_cycles(self.config.l1_latency_cycles)
        if self.l1_hit(line):
            return self.memory.read_word(addr)
        value = yield from self.load_past_l1(addr, line)
        return value

    # A load is start_load, an l1_latency_cycles wait, l1_hit and, on a
    # miss, load_past_l1.  CpuContext.spin_until runs the first three from
    # kernel callbacks, so each exists once, here.
    def start_load(self, addr: int) -> int:
        """Count one load arriving at the L1; returns its line address."""
        self._c_loads.value += 1
        probe = self.power_probe
        if probe is not None:
            probe.cache_accesses += 1
        return self.address_map.line_of(addr)

    def l1_hit(self, line: int) -> bool:
        """Probe the L1 for ``line`` (an LRU touch and a hit or miss count)."""
        # An L1 hit needs the line still readable in the L2.  lookup and
        # peek return valid entries only, and every valid state can read.
        l1 = self.l1
        if l1 is not None and l1.lookup(line) is not None and self.l2.peek(line) is not None:
            self._c_l1_hits.value += 1
            return True
        return False

    def load_past_l1(self, addr: int, line: int) -> Any:
        """The rest of a load that missed the L1: the L2, then a miss."""
        yield self.domain.wait_cycles(self.config.l2_latency_cycles)
        if self.l2.lookup(line) is not None:
            self._c_l2_hits.value += 1
            self._fill_l1(line)
            return self.memory.read_word(addr)
        self._c_load_misses.value += 1
        yield from self._miss(line, want_modified=False)
        self._fill_l1(line)
        return self.memory.read_word(addr)

    def store(self, addr: int, value: int = 0, size_bytes: int = 8) -> None:
        """Write ``value`` to ``addr``; obtains write permission first."""
        if size_bytes > self.config.max_store_bytes:
            raise ValueError(
                f"{self.name}: store of {size_bytes}B exceeds the "
                f"{self.config.max_store_bytes}B L2 store port"
            )
        line = self.address_map.line_of(addr)
        self._c_stores.value += 1
        probe = self.power_probe
        if probe is not None:
            probe.cache_accesses += 1
        yield self.domain.wait_cycles(self.config.l1_latency_cycles)
        yield self.domain.wait_cycles(self.config.l2_latency_cycles)
        entry = self.l2.lookup(line)
        if entry is not None and entry.state.can_write:
            self._c_store_hits.value += 1
            entry.state = CoherenceState.MODIFIED
            entry.dirty = True
        else:
            self._c_store_misses.value += 1
            yield from self._miss(line, want_modified=True)
        self._fill_l1(line)
        self.memory.write_word(addr, value)
        return None

    def amo(self, addr: int, fn: Callable[[int], int]) -> int:
        """Atomic read-modify-write (LR/SC or AMO equivalent); returns the old value."""
        line = self.address_map.line_of(addr)
        self._c_amos.value += 1
        probe = self.power_probe
        if probe is not None:
            probe.cache_accesses += 1
        yield self.domain.wait_cycles(self.config.l1_latency_cycles)
        yield self.domain.wait_cycles(self.config.l2_latency_cycles)
        entry = self.l2.lookup(line)
        if entry is None or not entry.state.can_write:
            yield from self._miss(line, want_modified=True)
        else:
            entry.state = CoherenceState.MODIFIED
            entry.dirty = True
        self._fill_l1(line)
        old = self.memory.read_modify_write(addr, fn)
        return old

    def flush_line(self, addr: int) -> None:
        """Write back and drop one line (used by explicit cache flushes)."""
        line = self.address_map.line_of(addr)
        entry = self.l2.peek(line)
        if entry is None:
            return
        yield self.domain.wait_cycles(self.config.l2_latency_cycles)
        self._drop_line(line, notify="flush")
        yield from self._evict(line, entry.state)
        return None

    # ------------------------------------------------------------------ #
    # State inspection / warm-up
    # ------------------------------------------------------------------ #
    def state_of(self, addr: int) -> CoherenceState:
        entry = self.l2.peek(self.address_map.line_of(addr))
        return entry.state if entry is not None else CoherenceState.INVALID

    def debug_install(self, addr: int, state: CoherenceState) -> None:
        """Directly install a line (pre-simulation warm-up only)."""
        line = self.address_map.line_of(addr)
        self.l2.insert(line, state, dirty=state is CoherenceState.MODIFIED)
        self._fill_l1(line)

    def add_line_listener(self, listener: LineListener) -> None:
        """Register a callback fired whenever the agent loses a line."""
        self._line_listeners.append(listener)

    # ------------------------------------------------------------------ #
    # Miss handling
    # ------------------------------------------------------------------ #
    def _miss(self, line: int, want_modified: bool):
        # Every wait loops back to the pending check: a miss to this line
        # that another request sent while this one waited for an MSHR must
        # be joined, not duplicated.
        while True:
            pending = self._pending.get(line)
            if pending is not None:
                yield pending
                entry = self.l2.peek(line)
                if entry is not None and (
                    entry.state.can_write if want_modified else entry.state.can_read
                ):
                    return None
            elif len(self._pending) >= self.config.max_outstanding_misses:
                if self._mshr_free is None:
                    self._mshr_free = self.sim.event(f"{self.name}.mshr-free")
                yield self._mshr_free
            else:
                break
        completion = Event(self.sim, self._miss_wait_name)
        self._pending[line] = completion
        home = self.address_map.home_tile(line)
        kind = MsgKind.GET_M if want_modified else MsgKind.GET_S
        self.port.send(home, "llc", kind, addr=line, plane=MessagePlane.REQUEST)
        response: NocMessage = yield completion
        grant = response.meta.get("grant", "S")
        state = {
            "M": CoherenceState.MODIFIED,
            "E": CoherenceState.EXCLUSIVE,
            "S": CoherenceState.SHARED,
        }[grant]
        victim = self.l2.insert(line, state, dirty=state is CoherenceState.MODIFIED)
        del self._pending[line]
        if self._mshr_free is not None:
            self._mshr_free.succeed()
            self._mshr_free = None
        if victim is not None and victim.valid:
            if self.l1 is not None:
                self.l1.invalidate(victim.line_addr)
            self._notify_listeners(victim.line_addr, "evicted")
            yield from self._evict(victim.line_addr, victim.state)
        return None

    def _evict(self, line: int, state: CoherenceState):
        home = self.address_map.home_tile(line)
        if state is CoherenceState.MODIFIED:
            kind = MsgKind.PUT_M
            size = self.config.line_bytes
        else:
            kind = MsgKind.PUT_S
            size = 0
        self._c_evictions.value += 1
        self._writeback_buffer[line] = True
        self.port.send(home, "llc", kind, addr=line, plane=MessagePlane.REQUEST, size_bytes=size)
        yield self.domain.wait_cycles(1)
        return None

    # ------------------------------------------------------------------ #
    # NoC message handling (always reactive, never blocks the client)
    # ------------------------------------------------------------------ #
    def _handle(self, message: NocMessage) -> None:
        if message.kind == MsgKind.DATA:
            line = self.address_map.line_of(message.addr)
            completion = self._pending.get(line)
            if completion is None:
                raise RuntimeError(f"{self.name}: unsolicited Data for line 0x{line:x}")
            completion.succeed(message)
        elif message.kind == MsgKind.PUT_ACK:
            line = self.address_map.line_of(message.addr)
            self._writeback_buffer.pop(line, None)
        elif message.kind in (MsgKind.INV, MsgKind.FWD_GET_S, MsgKind.FWD_GET_M):
            self.sim.process(self._serve_forward(message), name=self._fwd_name)
        else:
            raise RuntimeError(f"{self.name}: unexpected message kind {message.kind!r}")

    def _serve_forward(self, message: NocMessage):
        line = self.address_map.line_of(message.addr)
        yield self.domain.wait_cycles(self.config.l2_latency_cycles)
        if message.kind == MsgKind.INV:
            self._c_invalidations.value += 1
            self._drop_line(line, notify="invalidated")
            self.port.reply(message, MsgKind.INV_ACK)
        elif message.kind == MsgKind.FWD_GET_S:
            self._c_fwd_get_s.value += 1
            entry = self.l2.peek(line)
            if entry is not None:
                entry.state = CoherenceState.SHARED
                entry.dirty = False
            requester = (message.meta["requester_node"], message.meta["requester_target"])
            self.port.send(
                requester[0],
                requester[1],
                MsgKind.DATA,
                addr=line,
                plane=MessagePlane.RESPONSE,
                size_bytes=self.config.line_bytes,
                grant="S",
            )
            self.port.reply(message, MsgKind.WB_DATA, size_bytes=self.config.line_bytes)
        elif message.kind == MsgKind.FWD_GET_M:
            self._c_fwd_get_m.value += 1
            self._drop_line(line, notify="invalidated")
            requester = (message.meta["requester_node"], message.meta["requester_target"])
            self.port.send(
                requester[0],
                requester[1],
                MsgKind.DATA,
                addr=line,
                plane=MessagePlane.RESPONSE,
                size_bytes=self.config.line_bytes,
                grant="M",
            )
            self.port.reply(message, MsgKind.TRANSFER_ACK)
        return None

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _fill_l1(self, line: int) -> None:
        if self.l1 is not None:
            self.l1.insert(line, CoherenceState.SHARED)

    def _drop_line(self, line: int, notify: str) -> None:
        if self.l1 is not None:
            self.l1.invalidate(line)
        self.l2.invalidate(line)
        self._notify_listeners(line, notify)

    def _notify_listeners(self, line: int, reason: str) -> None:
        for listener in self._line_listeners:
            listener(line, reason)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PrivateCacheAgent {self.name} node={self.node}>"
