"""The Soft Register Interface with Shadow Registers.

This module implements both halves of the Control Hub's register machinery:

* the **fast-domain side** that the processors reach via MMIO — for shadowed
  registers it responds without ever waiting on the eFPGA (the point of
  Sec. II-F), while normal soft registers are forwarded into the slow clock
  domain and the response crosses back;
* the **FPGA-domain side** (:class:`FpgaRegisterView`) handed to the soft
  accelerator, through which it reads parameters, pops FPGA-bound FIFOs,
  pushes CPU-bound results or tokens, and can claim a normal register to use
  it as a software/hardware barrier.

Both sides communicate exclusively through :class:`~repro.sim.AsyncFifo`
instances, so every value that crosses the clock boundary pays the same
Gray-coded synchronizer latency the RTL would.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Deque, Dict, Optional, Tuple

from repro.core.exceptions import ExceptionHandler
from repro.core.registers import RegisterKind, RegisterLayout, RegisterSpec
from repro.fpga.accelerator import RegisterFileView
from repro.sim import AsyncFifo, ClockDomain, Event, Simulator, StatSet

#: Value returned for reads of deactivated or unmapped registers ("bogus
#: data" per Sec. II-E, so the system is never halted).
BOGUS_VALUE = 0xBAD0BEEF
#: Values returned by token-FIFO reads.
TOKEN_AVAILABLE = 1
TOKEN_EMPTY = 0


class _RegisterState:
    """Per-register runtime state on both sides of the clock boundary."""

    def __init__(self, sim: Simulator, spec: RegisterSpec,
                 sys_domain: ClockDomain, fpga_domain: ClockDomain) -> None:
        self.spec = spec
        self.fast_value = 0
        self.fpga_value = 0
        capacity = max(spec.depth, 8)
        self.to_fpga = AsyncFifo(sim, sys_domain, fpga_domain, capacity=capacity,
                                 name=f"reg{spec.index}.to_fpga")
        self.from_fpga = AsyncFifo(sim, fpga_domain, sys_domain, capacity=capacity,
                                   name=f"reg{spec.index}.from_fpga")
        # Fast-domain staging of CPU-bound data / tokens (filled by the drain
        # process popping ``from_fpga``).
        self.cpu_bound: Deque[int] = deque()
        self.tokens = 0
        # Processor reads parked on an empty CPU-bound FIFO.
        self.read_waiters: Deque[Event] = deque()
        # True when the accelerator services this normal register itself
        # (barrier semantics) instead of the default register logic.
        self.claimed = False


class SoftRegisterInterface:
    """Fast-domain register file plus the default FPGA-side register logic."""

    def __init__(
        self,
        sim: Simulator,
        sys_domain: ClockDomain,
        fpga_domain: ClockDomain,
        exceptions: ExceptionHandler,
        name: str = "softreg",
        downgrade_shadow: bool = False,
    ) -> None:
        self.sim = sim
        self.sys_domain = sys_domain
        self.fpga_domain = fpga_domain
        self.exceptions = exceptions
        self.name = name
        self.downgrade_shadow = downgrade_shadow
        self._registers: Dict[int, _RegisterState] = {}
        self.layout: Optional[RegisterLayout] = None
        self.stats = StatSet(f"{name}.stats")
        self.fpga_view = FpgaRegisterView(self)
        self._pending_normal: Dict[int, Event] = {}
        self._normal_tokens = itertools.count()
        self._drain_kick: Optional[Event] = None
        self._server_kick: Optional[Event] = None
        self._processes_started = False
        # Dedicated round-trip path used to model non-shadowed (normal)
        # register accesses: the FPSoC baseline pays this for every access.
        self._ping_to_fpga = AsyncFifo(sim, sys_domain, fpga_domain, capacity=32,
                                       name=f"{name}.ping")
        self._pong_from_fpga = AsyncFifo(sim, fpga_domain, sys_domain, capacity=32,
                                         name=f"{name}.pong")
        self._pending_pings: Dict[int, Event] = {}
        self._ping_tokens = itertools.count()
        sim.process(self._ping_server(), name=f"{name}.ping-server")
        sim.process(self._pong_drain(), name=f"{name}.pong-drain")

    # ------------------------------------------------------------------ #
    # Configuration
    # ------------------------------------------------------------------ #
    def configure(self, layout: RegisterLayout) -> None:
        """Install an accelerator's register layout (at programming time).

        When ``downgrade_shadow`` is set (the FPSoC baseline), the register
        *kinds* — and therefore the accelerator-side behaviour — are kept,
        but every processor access pays the round trip into the slow clock
        domain instead of being answered by a fast-domain Shadow Register.
        """
        self.layout = layout
        self._registers = {
            spec.index: _RegisterState(self.sim, spec, self.sys_domain, self.fpga_domain)
            for spec in layout
        }
        if not self._processes_started:
            self.sim.process(self._drain_from_fpga(), name=f"{self.name}.drain")
            self.sim.process(self._fpga_default_server(), name=f"{self.name}.fpga-server")
            self._processes_started = True

    def _state(self, index: int) -> Optional[_RegisterState]:
        return self._registers.get(index)

    def spec_of(self, index: int) -> Optional[RegisterSpec]:
        state = self._state(index)
        return state.spec if state else None

    # ------------------------------------------------------------------ #
    # Fast-domain (processor MMIO) side
    # ------------------------------------------------------------------ #
    def cpu_write(self, index: int, value: int):
        """Handle a processor MMIO write; returns when it can be acknowledged."""
        state = self._state(index)
        if state is None:
            self.stats.counter("bogus_writes").increment()
            yield self.sys_domain.wait_cycles(1)
            return None
        kind = state.spec.kind
        self.stats.counter(f"write_{kind.value}").increment()
        if kind is not RegisterKind.NORMAL and self.downgrade_shadow:
            yield from self._slow_roundtrip()
        if kind is RegisterKind.NORMAL:
            yield from self._normal_access(state, op="normal_write", value=value)
        elif kind is RegisterKind.PLAIN:
            yield self.sys_domain.wait_cycles(1)
            state.fast_value = value
            # Forward into the eFPGA without waiting for it (Fig. 6b).
            self._push_to_fpga(state, ("write", value))
        elif kind is RegisterKind.FPGA_BOUND_FIFO:
            yield self.sys_domain.wait_cycles(1)
            while not state.to_fpga.try_put(("push", value)):
                # Backpressure: the FIFO toward the eFPGA is full.
                yield self.sys_domain.wait_cycles(1)
            self._kick(self._server_kick)
        else:
            # Writing a CPU-bound or token FIFO from the CPU side is reserved;
            # acknowledge immediately so I/O ordering is preserved.
            yield self.sys_domain.wait_cycles(1)
        return None

    def cpu_read(self, index: int):
        """Handle a processor MMIO read; returns the value to send back."""
        state = self._state(index)
        if state is None:
            self.stats.counter("bogus_reads").increment()
            yield self.sys_domain.wait_cycles(1)
            return BOGUS_VALUE
        kind = state.spec.kind
        self.stats.counter(f"read_{kind.value}").increment()
        if kind is not RegisterKind.NORMAL and self.downgrade_shadow:
            yield from self._slow_roundtrip()
        if kind is RegisterKind.NORMAL:
            value = yield from self._normal_access(state, op="normal_read")
            return value
        if kind is RegisterKind.PLAIN:
            yield self.sys_domain.wait_cycles(1)
            return state.fast_value
        if kind is RegisterKind.CPU_BOUND_FIFO:
            yield self.sys_domain.wait_cycles(1)
            if state.cpu_bound:
                return state.cpu_bound.popleft()
            waiter = self.sim.event(f"{self.name}.r{index}.wait")
            state.read_waiters.append(waiter)
            value = yield from self.exceptions.guard(waiter)
            if value is None and self.exceptions.has_error:
                return BOGUS_VALUE
            return value
        if kind is RegisterKind.TOKEN_FIFO:
            yield self.sys_domain.wait_cycles(1)
            if state.tokens > 0:
                state.tokens -= 1
                return TOKEN_AVAILABLE
            return TOKEN_EMPTY
        # FPGA-bound FIFOs read back their current occupancy.
        yield self.sys_domain.wait_cycles(1)
        return len(state.to_fpga)

    def _normal_access(self, state: _RegisterState, op: str, value: int = 0):
        """Round-trip a normal soft register access through the eFPGA."""
        token = next(self._normal_tokens)
        done = self.sim.event(f"{self.name}.normal#{token}")
        self._pending_normal[token] = done
        self._push_to_fpga(state, (op, value, token))
        result = yield from self.exceptions.guard(done)
        self._pending_normal.pop(token, None)
        if result is None and self.exceptions.has_error:
            return BOGUS_VALUE
        return result

    def _slow_roundtrip(self):
        """Pay a full fast->slow->fast crossing (non-shadowed register access)."""
        token = next(self._ping_tokens)
        done = self.sim.event(f"{self.name}.ping#{token}")
        self._pending_pings[token] = done
        self._ping_to_fpga.try_put(token)
        result = yield from self.exceptions.guard(done)
        self._pending_pings.pop(token, None)
        return result

    def _ping_server(self):
        """eFPGA-side logic answering non-shadowed register accesses."""
        while True:
            token = yield from self._ping_to_fpga.get()
            yield self.fpga_domain.wait_cycles(1)
            self._pong_from_fpga.try_put(token)

    def _pong_drain(self):
        while True:
            token = yield from self._pong_from_fpga.get()
            pending = self._pending_pings.pop(token, None)
            if pending is not None and not pending.triggered:
                pending.succeed(token)

    def _push_to_fpga(self, state: _RegisterState, item: Tuple) -> None:
        if not state.to_fpga.try_put(item):
            # The to-FPGA FIFO overflowed; hardware would drop or stall — the
            # model drops and counts it so tests can detect misconfiguration.
            self.stats.counter("to_fpga_overflow").increment()
            return
        self._kick(self._server_kick)

    # ------------------------------------------------------------------ #
    # Kick-driven service processes
    # ------------------------------------------------------------------ #
    def _kick(self, event: Optional[Event]) -> None:
        if event is not None and not event.triggered:
            event.succeed()

    def kick_drain(self) -> None:
        """Called from the FPGA-domain side after pushing toward the CPU."""
        self._kick(self._drain_kick)

    def _drain_from_fpga(self):
        """Fast-domain process applying accelerator pushes to the fast side."""
        while True:
            self._drain_kick = self.sim.event(f"{self.name}.drain-kick")
            progressed = True
            while progressed:
                progressed = False
                for index, state in list(self._registers.items()):
                    if len(state.from_fpga) == 0:
                        continue
                    item = yield from state.from_fpga.get()
                    yield self.sys_domain.wait_cycles(1)
                    self._apply_from_fpga(state, item)
                    progressed = True
            yield self._drain_kick

    def _apply_from_fpga(self, state: _RegisterState, item: Tuple) -> None:
        action, *rest = item
        if action == "sync":
            state.fast_value = rest[0]
        elif action == "push":
            state.cpu_bound.append(rest[0])
            if state.read_waiters and state.cpu_bound:
                state.read_waiters.popleft().succeed(state.cpu_bound.popleft())
        elif action == "token":
            state.tokens += 1
        elif action == "normal_done":
            token, value = rest
            pending = self._pending_normal.pop(token, None)
            if pending is not None and not pending.triggered:
                pending.succeed(value)
        else:  # pragma: no cover - defensive
            raise RuntimeError(f"{self.name}: unknown from-FPGA action {action!r}")

    def _fpga_default_server(self):
        """Default eFPGA-side register logic for PLAIN and unclaimed NORMAL registers."""
        while True:
            self._server_kick = self.sim.event(f"{self.name}.server-kick")
            progressed = True
            while progressed:
                progressed = False
                for index, state in list(self._registers.items()):
                    kind = state.spec.kind
                    if kind is RegisterKind.FPGA_BOUND_FIFO:
                        continue  # consumed by the accelerator via pop_request
                    if kind is RegisterKind.NORMAL and state.claimed:
                        continue  # consumed by the accelerator via wait_cpu_read
                    if len(state.to_fpga) == 0:
                        continue
                    # get() waits for the item to cross the clock boundary.
                    item = yield from state.to_fpga.get()
                    yield self.fpga_domain.wait_cycles(1)
                    self._apply_to_fpga_default(state, item)
                    progressed = True
            yield self._server_kick

    def _apply_to_fpga_default(self, state: _RegisterState, item: Tuple) -> None:
        action, *rest = item
        if action in ("write", "push"):
            state.fpga_value = rest[0]
        elif action == "normal_write":
            value, token = rest
            state.fpga_value = value
            state.from_fpga.try_put(("normal_done", token, value))
            self.kick_drain()
        elif action == "normal_read":
            _, token = rest
            state.from_fpga.try_put(("normal_done", token, state.fpga_value))
            self.kick_drain()
        else:  # pragma: no cover - defensive
            raise RuntimeError(f"{self.name}: unknown to-FPGA action {action!r}")


class FpgaRegisterView(RegisterFileView):
    """What the soft accelerator sees of the register interface."""

    def __init__(self, interface: SoftRegisterInterface) -> None:
        self._interface = interface

    @property
    def _fpga_domain(self) -> ClockDomain:
        return self._interface.fpga_domain

    def _state(self, index: int) -> _RegisterState:
        state = self._interface._state(index)
        if state is None:
            raise KeyError(f"register {index} is not configured")
        return state

    # -- values ---------------------------------------------------------- #
    def read(self, index: int):
        """Read the FPGA-side value of a PLAIN or NORMAL register."""
        state = self._state(index)
        yield self._fpga_domain.wait_cycles(1)
        return state.fpga_value

    def write(self, index: int, value: int):
        """Write the FPGA-side value; PLAIN registers also sync to the CPU side."""
        state = self._state(index)
        yield self._fpga_domain.wait_cycles(1)
        state.fpga_value = value
        if state.spec.kind is RegisterKind.PLAIN:
            state.from_fpga.try_put(("sync", value))
            self._interface.kick_drain()
        return None

    # -- FIFOs ------------------------------------------------------------ #
    def pop_request(self, index: int):
        """Blocking pop of an FPGA-bound FIFO (processor writes), in order."""
        state = self._state(index)
        item = yield from state.to_fpga.get()
        action, *rest = item
        if action != "push":  # pragma: no cover - defensive
            raise RuntimeError(f"unexpected item {item!r} in FPGA-bound FIFO {index}")
        return rest[0]

    def push_response(self, index: int, value: int = 0):
        """Push into a CPU-bound or token FIFO."""
        state = self._state(index)
        kind = state.spec.kind
        if kind is RegisterKind.TOKEN_FIFO:
            yield from state.from_fpga.put(("token", value))
        else:
            yield from state.from_fpga.put(("push", value))
        self._interface.kick_drain()
        return None

    # -- normal-register barrier reads ------------------------------------ #
    def wait_cpu_read(self, index: int):
        """Block until a processor reads normal register ``index``.

        Returns a completion callable; the accelerator acknowledges the read
        (unblocking the processor) by calling it with the response value.
        This models the "soft register as a barrier" idiom of Sec. II-F and
        the eFPGA-pull hand-off of Sec. V-C.
        """
        state = self._state(index)
        state.claimed = True
        while True:
            item = yield from state.to_fpga.get()
            action, *rest = item
            if action == "normal_read":
                _, token = rest
                interface = self._interface

                def _complete(value: int = 0, _token=token, _state=state) -> None:
                    _state.from_fpga.try_put(("normal_done", _token, value))
                    interface.kick_drain()

                return _complete
            if action == "normal_write":
                value, token = rest
                state.fpga_value = value
                state.from_fpga.try_put(("normal_done", token, value))
                self._interface.kick_drain()
            elif action in ("write", "push"):
                state.fpga_value = rest[0]
