"""Queues used to connect components.

:class:`Channel` is a simple unbounded (or bounded) FIFO inside a single
clock domain — it is used for NoC injection queues and for modelling
hardware FIFOs whose two ends share a clock.

:class:`AsyncFifo` is the clock-domain-crossing FIFO described in Sec. IV of
the paper ("all asynchronous FIFOs are implemented with dual-clock RAMs and
Gray-coded, 2-stage synchronizers").  An item pushed on a source-domain edge
only becomes visible to the consumer ``sync_stages`` destination-domain
edges later; that hand-off latency is the CDC overhead that Figures 5, 6, 9
and 10 of the paper quantify.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator, Optional, Tuple

from repro.sim.clock import ClockDomain
from repro.sim.event import Event
from repro.sim.kernel import Delay, SimulationError, Simulator


class QueueFullError(SimulationError):
    """Raised by non-blocking puts when a bounded queue is full."""


class Channel:
    """A FIFO whose producer and consumer share a clock domain.

    ``get`` and ``put`` are sub-generators meant to be driven with
    ``yield from``.  ``try_put`` is the non-blocking variant.
    """

    def __init__(
        self,
        sim: Simulator,
        capacity: Optional[int] = None,
        latency_ns: float = 0.0,
        name: str = "channel",
    ) -> None:
        self.sim = sim
        self.capacity = capacity
        self.latency_ns = latency_ns
        self.name = name
        self._items: Deque[Tuple[float, Any]] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[Event] = deque()
        # Waiter-event names, precomputed once instead of per blocked call.
        self._get_wait_name = f"{name}.get-wait"
        self._put_wait_name = f"{name}.put-wait"

    def __len__(self) -> int:
        return len(self._items)

    @property
    def is_full(self) -> bool:
        return self.capacity is not None and len(self._items) >= self.capacity

    # ------------------------------------------------------------------ #
    # Non-blocking interface
    # ------------------------------------------------------------------ #
    def try_put(self, item: Any) -> None:
        if self.is_full:
            raise QueueFullError(f"channel {self.name!r} full (capacity={self.capacity})")
        self._items.append((self.sim.now + self.latency_ns, item))
        self._wake_getter()

    # ------------------------------------------------------------------ #
    # Blocking (generator) interface
    # ------------------------------------------------------------------ #
    def put(self, item: Any) -> Generator[Any, Any, None]:
        while self.is_full:
            waiter = Event(self.sim, self._put_wait_name)
            self._putters.append(waiter)
            yield waiter
        self._items.append((self.sim.now + self.latency_ns, item))
        self._wake_getter()

    def get(self) -> Generator[Any, Any, Any]:
        while not self._items:
            waiter = Event(self.sim, self._get_wait_name)
            self._getters.append(waiter)
            yield waiter
        ready_at, item = self._items.popleft()
        if ready_at > self.sim.now:
            yield Delay(ready_at - self.sim.now)
        self._wake_putter()
        return item

    # ------------------------------------------------------------------ #
    # Internal wakeups
    # ------------------------------------------------------------------ #
    def _wake_getter(self) -> None:
        if self._getters:
            self._getters.popleft().succeed()

    def _wake_putter(self) -> None:
        if self._putters:
            self._putters.popleft().succeed()


class AsyncFifo:
    """A dual-clock FIFO with an N-stage synchronizer on the read pointer.

    Timing model: a push is committed on the first *push-domain* rising edge
    at or after the put call; the pushed item becomes visible to the
    consumer on the ``sync_stages``-th *pop-domain* rising edge after the
    commit; a pop consumes the item on a pop-domain edge.  This reproduces
    the behaviour of Dolly's Gray-coded two-stage synchronizers, including
    the asymmetry between crossing into a slow domain (expensive) and
    crossing back into the fast domain (cheap relative to the slow period).
    """

    def __init__(
        self,
        sim: Simulator,
        push_domain: ClockDomain,
        pop_domain: ClockDomain,
        capacity: int = 8,
        sync_stages: int = 2,
        name: str = "async-fifo",
    ) -> None:
        if capacity < 1:
            raise SimulationError("AsyncFifo capacity must be >= 1")
        if sync_stages < 1:
            raise SimulationError("AsyncFifo sync_stages must be >= 1")
        self.sim = sim
        self.push_domain = push_domain
        self.pop_domain = pop_domain
        self.capacity = capacity
        self.sync_stages = sync_stages
        self.name = name
        self._items: Deque[Tuple[float, Any]] = deque()  # (visible_time, item)
        self._getters: Deque[Event] = deque()
        self._putters: Deque[Event] = deque()
        self._get_wait_name = f"{name}.get-wait"
        self._put_wait_name = f"{name}.put-wait"
        # (commit_time, period, phase, visible): memo of the last visibility
        # computation.  Producers that commit several items on the same
        # push-domain edge (a burst) resolve the pop-domain alignment once;
        # everything else goes through ClockDomain.next_edge.
        self._visible_cache = (-1.0, 0.0, 0.0, 0.0)
        self.total_pushed = 0
        self.total_popped = 0

    def __len__(self) -> int:
        return len(self._items)

    @property
    def is_full(self) -> bool:
        return len(self._items) >= self.capacity

    def _visible_time(self, commit_time: float) -> float:
        """When an item committed at ``commit_time`` becomes pop-visible."""
        pop_domain = self.pop_domain
        cache = self._visible_cache
        if (cache[0] == commit_time and cache[1] == pop_domain.period_ns
                and cache[2] == pop_domain.phase_ns):
            return cache[3]
        visible = pop_domain.edge_after(commit_time, self.sync_stages)
        self._visible_cache = (commit_time, pop_domain.period_ns,
                               pop_domain.phase_ns, visible)
        return visible

    # ------------------------------------------------------------------ #
    # Producer side
    # ------------------------------------------------------------------ #
    def put(self, item: Any) -> Generator[Any, Any, None]:
        """Push ``item``; blocks (in the push domain) while the FIFO is full."""
        # Align to the push-domain edge on which the write is committed.
        yield self.push_domain.align()
        while self.is_full:
            waiter = Event(self.sim, self._put_wait_name)
            self._putters.append(waiter)
            yield waiter
            yield self.push_domain.align()
        commit_time = self.sim.now
        self._items.append((self._visible_time(commit_time), item))
        self.total_pushed += 1
        self._wake_getter()

    def try_put(self, item: Any) -> bool:
        """Push without blocking; returns False if the FIFO is full.

        The commit is assumed to happen on the next push-domain edge, which
        is accurate for producers that already operate edge-aligned.
        """
        if self.is_full:
            return False
        self.force_put(item)
        return True

    def force_put(self, item: Any) -> None:
        """Push without blocking, beyond ``capacity`` if need be.

        Timed as :meth:`try_put`; for producers that must never drop an
        item and count their own overflows.
        """
        commit_time = self.push_domain.next_edge(self.sim.now)
        self._items.append((self._visible_time(commit_time), item))
        self.total_pushed += 1
        self._wake_getter()

    # ------------------------------------------------------------------ #
    # Consumer side
    # ------------------------------------------------------------------ #
    def get(self) -> Generator[Any, Any, Any]:
        """Pop the oldest item; blocks until one is visible in the pop domain."""
        while True:
            while not self._items:
                waiter = Event(self.sim, self._get_wait_name)
                self._getters.append(waiter)
                yield waiter
            visible_time, item = self._items[0]
            if visible_time > self.sim.now:
                yield Delay(visible_time - self.sim.now)
                continue
            self._items.popleft()
            self.total_popped += 1
            self._wake_putter()
            return item

    # ------------------------------------------------------------------ #
    # Internal wakeups
    # ------------------------------------------------------------------ #
    def _wake_getter(self) -> None:
        if self._getters:
            self._getters.popleft().succeed()

    def _wake_putter(self) -> None:
        if self._putters:
            self._putters.popleft().succeed()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<AsyncFifo {self.name} {self.push_domain.name}->{self.pop_domain.name} "
            f"depth={len(self._items)}/{self.capacity}>"
        )
