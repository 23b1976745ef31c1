"""The discrete-event simulator and its coroutine process model.

Processes are plain Python generators.  They communicate with the kernel by
yielding commands:

* ``Delay(ns)`` or a plain number — suspend for that many nanoseconds.
* an :class:`~repro.sim.event.Event` — suspend until the event fires; the
  event's value is sent back into the generator (or, if the event *failed*,
  the exception is thrown into the generator at the yield point).
* ``None`` — yield the scheduler without advancing time (cooperative yield).
* ``Suspend(owner)`` — park the process and hand its wake-up to ``owner``,
  which runs it later from its own kernel callbacks (see :class:`Suspend`).

Sub-behaviours compose with ``yield from``, which is how the memory system,
the NoC and the Duet Adapter are layered without callback spaghetti.

Fast-path design (see ``docs/architecture.md`` for the invariants):

* **Integer-picosecond timeline.**  The kernel orders events on an integer
  picosecond clock (``now_ps``); the exact float-nanosecond value is carried
  alongside every heap entry and exposed unchanged through :attr:`Simulator.now`,
  so model arithmetic (clock-edge computation, latency sums) is identical to
  a float-keyed kernel bit for bit.  Heap entries sort by
  ``(time_ps, time_ns, sequence)`` — the float only breaks sub-picosecond
  ties, keeping the ordering exactly the classic ``(time_ns, sequence)``
  order while making the common comparison an integer one.
* **Immediate-run deque.**  Zero-delay callbacks (every ``Event.succeed``
  waiter, every cooperative yield, every process start) bypass the heap via
  a FIFO deque.  When the kernel advances to a new instant it first moves
  every remaining heap entry at exactly that instant (already in global
  scheduling order) onto the deque, so append order on the deque *is*
  global scheduling order and same-instant execution matches a pure-heap
  kernel exactly — without the O(log n) sift per zero-delay hop.
* **Allocation-light resume.**  ``Process`` pre-binds ``generator.send``
  and its resume method, reuses one immutable deque entry for every
  value-less wakeup, and creates its ``done`` event lazily (most processes
  are never waited on).  Queued entries follow a one-argument calling
  convention (``callback(argument)``) — non-unary external callbacks are
  adapted once at schedule time.
* **One run loop.**  :meth:`Simulator.run` drains the immediate deque in an
  inner loop, then advances the heap to its next instant.  Every caller —
  unbounded or bounded by ``max_events`` — runs that same loop, which
  checks the stop flag set by :meth:`Simulator.stop` and then
  ``max_events`` after every callback.
"""

from __future__ import annotations

import heapq
import sys
from collections import deque
from typing import Any, Callable, Generator, List, Optional, Tuple

from repro.sim.event import Event


def ns_to_ps(time_ns: float) -> int:
    """Convert float nanoseconds to the kernel's integer picoseconds."""
    return int(time_ns * 1000.0 + 0.5)


class SimulationError(RuntimeError):
    """Raised for kernel-level misuse (negative delays, exhausted run, ...)."""


class Delay:
    """A relative suspension of ``ns`` nanoseconds."""

    __slots__ = ("ns",)

    def __init__(self, ns: float) -> None:
        if ns < 0:
            raise SimulationError(f"negative delay: {ns}")
        self.ns = ns

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, Delay) and self.ns == other.ns

    def __hash__(self) -> int:
        return hash((Delay, self.ns))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Delay(ns={self.ns!r})"


class Suspend:
    """Command: park the process and hand its wake-up to a callback owner.

    Yielding ``Suspend(owner)`` calls ``owner(resume, throw)`` at once,
    still inside the callback that ran the process, and queues nothing.
    The process then stays parked until the owner calls ``resume(value)``
    (the ``yield`` returns ``value``) or ``throw(error)`` (the ``yield``
    raises ``error``), once per suspension.  Either call runs the generator
    synchronously, inside whatever callback the owner is in, and adds no
    event of its own; an owner that calls neither leaves the process
    unfinished.  This lets a model drive a repetitive wait with plain
    callbacks (``CpuContext.spin_until``) and wake the process only when
    its program has to continue.
    """

    __slots__ = ("owner",)

    def __init__(self, owner: Callable[[Callable[[Any], None],
                                        Callable[[BaseException], None]], None]) -> None:
        self.owner = owner

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Suspend(owner={self.owner!r})"


def _wrap_args(callback: Callable[..., None], args: Tuple[Any, ...]) -> Callable[[Any], None]:
    """Adapt a non-unary callback to the kernel's one-argument convention.

    Internally every queued entry is ``(callback, argument)`` and the run
    loop always calls ``callback(argument)`` — a fixed-arity call is
    cheaper than ``*``-unpacking, and the kernel's own callbacks (process
    resumes, event triggers) are all unary anyway.  External ``schedule``
    calls with zero or several extra arguments get this shim.
    """
    def _shim(_value: Any, _callback=callback, _args=args) -> None:
        _callback(*_args)
    return _shim


ProcessGenerator = Generator[Any, Any, Any]


class Process:
    """A running coroutine inside the simulator.

    The process's return value (``return x`` inside the generator) is
    delivered through :attr:`done`, an :class:`Event` other processes can
    wait on.  If the process *fails* — its generator raises, or it yields an
    unsupported command — :attr:`done` fails and registered waiters get the
    exception thrown into them rather than silently receiving it as a
    value; with no waiter registered the exception propagates out of
    :meth:`Simulator.run` instead (a failure must surface somewhere
    exactly once).
    """

    __slots__ = ("sim", "generator", "name", "_done", "_finished", "_send",
                 "_result", "_failure", "_resume_bound", "_resume_entry",
                 "_waiter_pair")

    def __init__(self, sim: "Simulator", generator: ProcessGenerator, name: str = "") -> None:
        self.sim = sim
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._done: Optional[Event] = None
        self._finished = False
        self._send = generator.send
        self._result: Any = None
        self._failure: Optional[BaseException] = None
        # Pre-bound resume method, immediate-deque entry and (resume, throw)
        # waiter pair — one allocation each for the process's lifetime
        # instead of one per wakeup. The deque entry is immutable, so the
        # same tuple object can sit in the queue any number of times.
        self._resume_bound = self._resume
        self._resume_entry = (self._resume_bound, None)
        # (resume, throw, ready-made value-less deque entry); see Event.
        self._waiter_pair = (self._resume_bound, self._throw, self._resume_entry)
        sim._immediate.append(self._resume_entry)

    @property
    def finished(self) -> bool:
        return self._finished

    @property
    def failed(self) -> bool:
        """Whether the process finished by raising (or yielding garbage)."""
        return self._failure is not None

    @property
    def done(self) -> Event:
        """The completion event, materialized on first access."""
        done = self._done
        if done is None:
            done = self._done = Event(self.sim, name=f"{self.name}.done")
            if self._finished:
                if self._failure is not None:
                    done.fail(self._failure)
                else:
                    done.succeed(self._result)
        return done

    # ------------------------------------------------------------------ #
    # Kernel-facing resume paths
    # ------------------------------------------------------------------ #
    def _finish(self, value: Any) -> None:
        self._finished = True
        if self._done is None:
            self._result = value
        else:
            self._done.succeed(value)

    def _finish_failed(self, error: BaseException) -> bool:
        """Record the failure; returns True if a waiter consumed it.

        When somebody is already waiting on :attr:`done`, the exception is
        theirs: it gets thrown into the waiter(s) and must *not* also
        propagate out of ``run()`` (that would abort the run before the
        waiter's throw executes and deliver the error twice).  With no
        waiter registered, the failure has no consumer and propagating out
        of ``run()`` is the only way to surface it.
        """
        self._finished = True
        self._failure = error
        done = self._done
        if done is not None:
            had_waiters = bool(done._callbacks)
            done.fail(error)
            return had_waiters
        return False

    def _resume(self, value: Any) -> None:
        if self._finished:
            return
        try:
            command = self._send(value)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        except BaseException as error:
            if self._finish_failed(error):
                return
            raise
        # Inlined dispatch for the hot commands; everything else (numbers,
        # processes, unsupported commands) falls through to _dispatch.
        if command is None:
            self.sim._immediate.append(self._resume_entry)
            return
        command_type = type(command)
        if command_type is Delay:
            ns = command.ns
            sim = self.sim
            if ns == 0.0:
                sim._immediate.append(self._resume_entry)
            else:
                time_ns = sim._now_ns + ns
                heapq.heappush(sim._heap, (int(time_ns * 1000.0 + 0.5), time_ns,
                                           sim._sequence, self._resume_bound, None))
                sim._sequence += 1
        elif command_type is Event:
            if command._triggered:
                command.add_waiter(self)
            else:
                command._callbacks.append(self._waiter_pair)
        else:
            self._dispatch(command)

    def _throw(self, error: BaseException) -> None:
        """Resume by raising ``error`` inside the generator (failure path)."""
        if self._finished:
            return
        try:
            command = self.generator.throw(error)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        except BaseException as err:
            if self._finish_failed(err):
                return
            raise
        self._dispatch(command)

    def _dispatch(self, command: Any) -> None:
        if command is None:
            self.sim._immediate.append(self._resume_entry)
        elif isinstance(command, Suspend):
            command.owner(self._resume_bound, self._throw)
        elif isinstance(command, Delay):
            self.sim.schedule(command.ns, self._resume_bound, None)
        elif isinstance(command, (int, float)):
            self.sim.schedule(float(command), self._resume_bound, None)
        elif isinstance(command, Event):
            command.add_waiter(self)
        elif isinstance(command, Process):
            command.done.add_waiter(self)
        else:
            error = SimulationError(
                f"process {self.name!r} yielded unsupported command {command!r}"
            )
            if not self._finish_failed(error):
                raise error

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "finished" if self._finished else "running"
        return f"<Process {self.name} {state} @{self.sim.now:.2f}ns>"


class Simulator:
    """A time-ordered event heap with deterministic tie-breaking.

    Time is kept internally in integer picoseconds (:attr:`now_ps`); the
    public API speaks float nanoseconds (:attr:`now`), and the exact float
    value of every scheduled instant is preserved alongside the integer key,
    so no model-visible quantization occurs.  Events scheduled at the same
    instant execute in scheduling order — including zero-delay events routed
    through the immediate deque — which gives the point-to-point ordering
    guarantees the NoC and the async FIFOs rely on.
    """

    def __init__(self) -> None:
        self._now_ns: float = 0.0
        self._now_ps: int = 0
        # Heap entries: (time_ps, time_ns, sequence, callback, args).
        self._heap: List[Tuple[int, float, int, Callable[..., None], Tuple[Any, ...]]] = []
        # Immediate entries (run at the current instant, FIFO): (callback, args).
        # Append order on this deque is global scheduling order: zero-delay
        # work is appended as it is scheduled, and when time advances the run
        # loop drains every remaining same-instant heap entry (already in
        # sequence order) onto it before running the first callback.
        self._immediate: "deque[Tuple[Callable[..., None], Tuple[Any, ...]]]" = deque()
        self._sequence = 0
        self.events_executed = 0
        # Set by stop(); the run loop checks it after every callback and
        # clears it when run() returns.
        self._stop = False

    # ------------------------------------------------------------------ #
    # Time
    # ------------------------------------------------------------------ #
    @property
    def now(self) -> float:
        """Current simulation time in (float) nanoseconds."""
        return self._now_ns

    @property
    def now_ps(self) -> int:
        """Current simulation time in integer picoseconds."""
        return self._now_ps

    # ------------------------------------------------------------------ #
    # Scheduling primitives
    # ------------------------------------------------------------------ #
    def schedule(self, delay_ns: float, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` after ``delay_ns`` nanoseconds."""
        if delay_ns < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay_ns})")
        if len(args) == 1:
            arg = args[0]
        else:
            callback = _wrap_args(callback, args)
            arg = None
        if delay_ns == 0.0:
            self._immediate.append((callback, arg))
        else:
            time_ns = self._now_ns + delay_ns
            heapq.heappush(self._heap, (int(time_ns * 1000.0 + 0.5), time_ns,
                                        self._sequence, callback, arg))
            self._sequence += 1

    def schedule_at(self, time_ns: float, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` at absolute time ``time_ns``."""
        now_ns = self._now_ns
        if time_ns < now_ns:
            raise SimulationError(
                f"cannot schedule at {time_ns} before current time {now_ns}"
            )
        if len(args) == 1:
            arg = args[0]
        else:
            callback = _wrap_args(callback, args)
            arg = None
        if time_ns == now_ns:
            self._immediate.append((callback, arg))
        else:
            heapq.heappush(self._heap, (int(time_ns * 1000.0 + 0.5), time_ns,
                                        self._sequence, callback, arg))
            self._sequence += 1

    def event(self, name: str = "") -> Event:
        """Create a fresh one-shot event bound to this simulator."""
        return Event(self, name=name)

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Register ``generator`` as a process starting at the current time."""
        return Process(self, generator, name=name)

    def timeout(self, ns: float) -> Delay:
        """Convenience constructor for a :class:`Delay` command."""
        return Delay(ns)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> float:
        """Execute queued events.

        ``until`` bounds simulated time (inclusive); ``max_events`` bounds the
        number of callbacks executed, which protects tests against accidental
        livelock.  A callback may call :meth:`stop` to end the run right
        after it returns — checked after every callback, including the
        zero-delay ones drained from the immediate deque, and before
        ``max_events``, so a run stopped on its last allowed callback
        returns, not raises.  Returns the simulation time when execution
        stopped.
        """
        heap = self._heap
        immediate = self._immediate
        heappop = heapq.heappop
        imm_popleft = immediate.popleft
        limit = sys.maxsize if max_events is None else max_events
        executed = 0
        try:
            while True:
                while immediate:
                    callback, arg = imm_popleft()
                    callback(arg)
                    executed += 1
                    if self._stop:
                        return self._now_ns
                    if executed >= limit:
                        raise self._exceeded(max_events)
                if not heap:
                    break
                head = heap[0]
                time_ns = head[1]
                if until is not None and time_ns > until:
                    self._now_ns = until
                    self._now_ps = ns_to_ps(until)
                    return until
                heappop(heap)
                time_ps = head[0]
                self._now_ps = time_ps
                self._now_ns = time_ns
                # Drain every remaining heap entry at exactly this instant
                # onto the immediate deque: they pop in global sequence
                # order, so the deque stays FIFO-consistent with the order
                # the schedule calls were made.
                while heap:
                    nxt = heap[0]
                    if nxt[0] != time_ps or nxt[1] != time_ns:
                        break
                    heappop(heap)
                    immediate.append((nxt[3], nxt[4]))
                head[3](head[4])
                executed += 1
                if self._stop:
                    return self._now_ns
                if executed >= limit:
                    raise self._exceeded(max_events)
        finally:
            self.events_executed += executed
            self._stop = False
        if until is not None and until > self._now_ns:
            self._now_ns = until
            self._now_ps = ns_to_ps(until)
        return self._now_ns

    def stop(self) -> None:
        """End the current :meth:`run` once the running callback returns.

        Events still queued — including the rest of the current instant —
        stay queued for the next ``run()``.  Called outside a run, it ends
        the next ``run()`` after that run's first callback.  Used to stop
        once all measured programs have finished even if background
        hardware keeps ticking.
        """
        self._stop = True

    def _exceeded(self, max_events: int) -> SimulationError:
        return SimulationError(
            f"simulation exceeded max_events={max_events} at t={self._now_ns}ns"
        )

    def run_process(
        self,
        generator: ProcessGenerator,
        name: str = "",
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> Any:
        """Run ``generator`` to completion and return its value.

        This is the main entry point used by the experiment runners: build a
        platform, hand the workload's top-level generator to
        :meth:`run_process`, and read off the result.  A failed process
        re-raises its exception here rather than returning it as a value.
        """
        process = self.process(generator, name=name)
        self.run(until=until, max_events=max_events)
        if not process.finished:
            raise SimulationError(
                f"process {process.name!r} did not finish (t={self.now}ns)"
            )
        if process.failed:
            raise process._failure
        return process.done.value

    @property
    def pending_events(self) -> int:
        """Number of callbacks still waiting (heap plus immediate deque)."""
        return len(self._heap) + len(self._immediate)

