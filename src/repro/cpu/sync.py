"""Software synchronization primitives built on the coherent memory system.

The processor-only baselines of the hardware-augmentation benchmarks rely on
these: PDES arbitrates its shared event queue with MCS locks (the paper
cites Mellor-Crummey & Scott), and BFS synchronizes its frontier queues with
a spin lock plus a sense-reversing barrier.  Their contention — cache-line
ping-pong on the lock word — is exactly the software overhead the
eFPGA-emulated schedulers and lock-free queues eliminate, so the primitives
are implemented with real atomics over the simulated memory system rather
than being approximated with fixed delays.  Every wait polls through
:meth:`~repro.cpu.core.CpuContext.spin_until`, the one spin loop.
"""

from __future__ import annotations

from typing import Dict

from repro.cpu.core import CpuContext
from repro.mem.dram import MainMemory


def _is_zero(value: int) -> bool:
    return value == 0


class SpinLock:
    """A test-and-test-and-set spin lock on a single memory word."""

    def __init__(self, memory: MainMemory, name: str = "spinlock") -> None:
        self.addr = memory.allocate(memory.config.line_bytes)
        self.name = name

    def acquire(self, ctx: CpuContext):
        while True:
            old = yield from ctx.swap(self.addr, 1)
            if old == 0:
                return None
            # Spin on a plain load until the lock looks free, then retry.
            yield from ctx.spin_until(self.addr, _is_zero)

    def release(self, ctx: CpuContext):
        yield from ctx.store(self.addr, 0)
        return None


class McsLock:
    """The MCS queue lock used by the paper's PDES baseline.

    Each contender spins on its own queue node (one cache line per core), so
    under contention the coherence traffic is a hand-off per critical
    section rather than a global ping-pong — but the hand-off latency is
    still what limits scaling, which is the effect the PDES benchmark needs
    to reproduce.
    """

    _NO_NODE = 0

    def __init__(self, memory: MainMemory, max_threads: int, name: str = "mcs") -> None:
        self.name = name
        self.memory = memory
        line = memory.config.line_bytes
        self.tail_addr = memory.allocate(line)
        # Per-thread queue nodes: a "locked" flag and a "next" pointer, each
        # on its own line to avoid false sharing.
        self._locked_addr: Dict[int, int] = {}
        self._next_addr: Dict[int, int] = {}
        for thread in range(max_threads):
            self._locked_addr[thread] = memory.allocate(line)
            self._next_addr[thread] = memory.allocate(line)

    def _node_id(self, thread: int) -> int:
        # Encode "thread t's node" as t+1 so 0 can mean "no node".
        return thread + 1

    def acquire(self, ctx: CpuContext, thread: int):
        my_locked = self._locked_addr[thread]
        my_next = self._next_addr[thread]
        yield from ctx.store(my_next, self._NO_NODE)
        yield from ctx.store(my_locked, 1)
        predecessor = yield from ctx.swap(self.tail_addr, self._node_id(thread))
        if predecessor == self._NO_NODE:
            return None
        # Link behind the predecessor and spin on our own flag.
        yield from ctx.store(self._next_addr[predecessor - 1], self._node_id(thread))
        yield from ctx.spin_until(my_locked, _is_zero)
        return None

    def release(self, ctx: CpuContext, thread: int):
        my_next = self._next_addr[thread]
        successor = yield from ctx.load(my_next)
        if successor == self._NO_NODE:
            # Nobody queued behind us (we think): try to swing tail back.
            swapped = yield from ctx.cas(self.tail_addr, self._node_id(thread), self._NO_NODE)
            if swapped:
                return None
            # A successor is in the middle of linking; wait for the link.
            successor = yield from ctx.spin_until(my_next, lambda value: value != self._NO_NODE)
        yield from ctx.store(self._locked_addr[successor - 1], 0)
        return None


class Barrier:
    """A sense-reversing centralized barrier for ``num_threads`` participants."""

    def __init__(self, memory: MainMemory, num_threads: int, name: str = "barrier") -> None:
        if num_threads < 1:
            raise ValueError("barrier needs at least one participant")
        self.num_threads = num_threads
        self.name = name
        line = memory.config.line_bytes
        self.count_addr = memory.allocate(line)
        self.sense_addr = memory.allocate(line)
        # Per-thread local sense, kept in simulated memory for fidelity.
        self._local_sense: Dict[int, int] = {thread: 1 for thread in range(num_threads)}

    def wait(self, ctx: CpuContext, thread: int):
        local_sense = self._local_sense[thread]
        arrived = yield from ctx.fetch_add(self.count_addr, 1)
        if arrived + 1 == self.num_threads:
            # Last arrival: reset the count and flip the global sense.
            yield from ctx.store(self.count_addr, 0)
            yield from ctx.store(self.sense_addr, local_sense)
        else:
            yield from ctx.spin_until(self.sense_addr, lambda sense: sense == local_sense)
        self._local_sense[thread] = 1 - local_sense
        return None
