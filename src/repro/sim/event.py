"""One-shot simulation events.

An :class:`Event` is the rendezvous primitive of the kernel: processes wait
on it by yielding it, and any component may trigger it exactly once with an
optional value.  Triggering enqueues the waiters on the simulator's
immediate deque at the current simulation time — bypassing the time heap —
while preserving the order in which they registered.

Events can also *fail* (:meth:`Event.fail`): waiting processes then get the
exception thrown into their generator at the yield point instead of
receiving it as a value, which makes failure propagation explicit.  Plain
callbacks registered with :meth:`add_callback` are invoked with the
exception as their argument in that case; check :attr:`Event.ok` when that
distinction matters.
"""

from __future__ import annotations

from typing import Any, Callable, List


class Event:
    """A one-shot event carrying an optional value.

    Events are created through :meth:`repro.sim.Simulator.event` so that they
    know which simulator to schedule their callbacks on.

    Internally the waiter list mixes two kinds of entries: plain callables
    (from :meth:`add_callback`) and ``(resume, throw, resume_entry)``
    tuples (from :meth:`add_waiter`, used by the kernel for waiting
    processes; the third slot is a ready-made value-less deque entry).
    """

    __slots__ = ("sim", "name", "_callbacks", "_triggered", "_failed", "value")

    def __init__(self, sim: "Simulator", name: str = "") -> None:  # noqa: F821
        self.sim = sim
        self.name = name
        self._callbacks: List[Any] = []
        self._triggered = False
        self._failed = False
        self.value: Any = None

    @property
    def triggered(self) -> bool:
        """Whether :meth:`succeed` or :meth:`fail` has already been called."""
        return self._triggered

    @property
    def failed(self) -> bool:
        """Whether the event was triggered via :meth:`fail`."""
        return self._failed

    @property
    def ok(self) -> bool:
        """Triggered successfully (i.e. carries a result, not an exception)."""
        return self._triggered and not self._failed

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event, delivering ``value`` to every waiter.

        Waiters run at the current simulation time, in registration order,
        directly off the immediate deque (no heap round-trip); triggering an
        already-triggered event is an error because events are one-shot.
        """
        if self._triggered:
            raise RuntimeError(f"event {self.name!r} triggered twice")
        self._triggered = True
        self.value = value
        callbacks = self._callbacks
        if callbacks:
            immediate = self.sim._immediate
            if value is None:
                # Process waiters carry a ready-made value-less deque entry
                # (their third slot) — the hot channel/NoC hand-off wakeup
                # allocates nothing at all.
                for entry in callbacks:
                    immediate.append(entry[2] if type(entry) is tuple
                                     else (entry, None))
            else:
                for entry in callbacks:
                    immediate.append((entry[0], value) if type(entry) is tuple
                                     else (entry, value))
            callbacks.clear()
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as *failed*, propagating ``exception``.

        Waiting processes get ``exception`` thrown into their generator at
        the yield point; plain callbacks receive it as their argument.
        """
        if self._triggered:
            raise RuntimeError(f"event {self.name!r} triggered twice")
        if not isinstance(exception, BaseException):
            raise TypeError(f"Event.fail needs an exception, got {exception!r}")
        self._triggered = True
        self._failed = True
        self.value = exception
        callbacks = self._callbacks
        if callbacks:
            immediate = self.sim._immediate
            for entry in callbacks:
                immediate.append(
                    (entry[1] if type(entry) is tuple else entry, exception)
                )
            callbacks.clear()
        return self

    def add_callback(self, callback: Callable[[Any], None]) -> None:
        """Register ``callback(value)``; runs immediately if already triggered."""
        if self._triggered:
            self.sim._immediate.append((callback, self.value))
        else:
            self._callbacks.append(callback)

    def add_waiter(self, process: Any) -> None:
        """Register a waiting :class:`~repro.sim.kernel.Process` (kernel use).

        On success the process is resumed with the event's value; on failure
        the exception is thrown into it.
        """
        if self._triggered:
            pair = process._waiter_pair
            callback = pair[1] if self._failed else pair[0]
            self.sim._immediate.append((callback, self.value))
        else:
            self._callbacks.append(process._waiter_pair)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self._triggered:
            state = "pending"
        else:
            state = "failed" if self._failed else "triggered"
        return f"<Event {self.name or hex(id(self))} {state}>"

