"""In-order core timing model and the software-visible CPU context.

A "program" is a Python generator function taking a :class:`CpuContext` as
its first argument.  The context exposes the primitives a bare-metal C
program would compile down to — loads, stores, atomics, MMIO accesses and
blocks of pure compute — and charges time for each through the core's cache
agent, MMIO port and clock domain.  Programs compose with ``yield from``,
mirroring how the rest of the simulator is written.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional

from repro.cpu.mmio import MmioPort
from repro.mem.private_cache import PrivateCacheAgent
from repro.sim import ClockDomain, Process, Simulator, StatSet, Suspend


@dataclass
class CoreConfig:
    """Per-instruction costs of the in-order pipeline.

    The Ariane core is single-issue and in-order, so ALU work is one
    instruction per cycle; floating-point latency reflects the shared FPU.
    """

    issue_width: int = 1
    int_op_cycles: float = 1.0
    fp_op_cycles: float = 4.0
    branch_cycles: float = 1.0
    #: Fixed front-end overhead charged per memory instruction in addition
    #: to the cache access time.
    mem_issue_cycles: float = 1.0

    def __post_init__(self) -> None:
        if self.issue_width < 1:
            raise ValueError(f"issue_width must be >= 1, got {self.issue_width}")
        for name in ("int_op_cycles", "fp_op_cycles", "branch_cycles",
                     "mem_issue_cycles"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} cannot be negative, got {value}")


#: Instructions a spin-wait runs between two polls of its word
#: (see :meth:`CpuContext.spin_until`).
SPIN_PAUSE_INSTRUCTIONS = 2


class CpuContext:
    """What a program sees: the ISA-level interface of one core."""

    def __init__(self, core: "Core") -> None:
        self._core = core

    # -- identity ------------------------------------------------------- #
    @property
    def core_id(self) -> int:
        return self._core.core_id

    @property
    def sim(self) -> Simulator:
        return self._core.sim

    @property
    def now(self) -> float:
        return self._core.sim.now

    @property
    def memory(self):
        return self._core.cache.memory

    # -- compute -------------------------------------------------------- #
    def compute(self, instructions: float = 1.0, fp: bool = False):
        """Charge ``instructions`` worth of ALU/FPU work."""
        core = self._core
        yield core.domain.wait_cycles(core.charge(instructions, fp))
        return None

    def stall(self, cycles: int):
        """Explicitly stall the pipeline for ``cycles`` core cycles.

        A stall is pipeline idling, not toggling — it charges no dynamic
        core energy (the clock tree and leakage still accrue with time).
        """
        yield self._core.domain.wait_cycles(cycles)
        return None

    # -- memory --------------------------------------------------------- #
    def load(self, addr: int):
        core = self._core
        yield core.domain.wait_cycles(int(core.config.mem_issue_cycles))
        value = yield from core.cache.load(addr)
        core._c_loads.value += 1
        return value

    def spin_until(self, addr: int, done: Callable[[int], bool]):
        """Spin-wait on ``addr``: load it, and return the value once
        ``done(value)`` holds; otherwise run :data:`SPIN_PAUSE_INSTRUCTIONS`
        and load again.  Every synchronization primitive polls through here.

        The polls run as :class:`_SpinWait` callbacks; the process wakes
        only to return, or to finish a load that missed the L1 as an
        ordinary :meth:`load` tail would."""
        core = self._core
        spin = _SpinWait(core, addr, done)
        command = Suspend(spin.start)
        while True:
            value = yield command
            if value is not _L1_MISS:
                return value
            value = yield from core.cache.load_past_l1(addr, spin.line)
            core._c_loads.value += 1
            if done(value):
                return value
            yield from self.compute(SPIN_PAUSE_INSTRUCTIONS)

    def store(self, addr: int, value: int = 0):
        core = self._core
        yield core.domain.wait_cycles(int(core.config.mem_issue_cycles))
        yield from core.cache.store(addr, value)
        core._c_stores.value += 1
        return None

    def amo(self, addr: int, fn: Callable[[int], int]):
        """Atomic read-modify-write; returns the old value."""
        core = self._core
        yield core.domain.wait_cycles(int(core.config.mem_issue_cycles))
        old = yield from core.cache.amo(addr, fn)
        core._c_atomics.value += 1
        return old

    def cas(self, addr: int, expected: int, desired: int):
        """Compare-and-swap; returns True on success."""
        old = yield from self.amo(addr, lambda v: desired if v == expected else v)
        return old == expected

    def fetch_add(self, addr: int, delta: int):
        old = yield from self.amo(addr, lambda v: v + delta)
        return old

    def swap(self, addr: int, value: int):
        old = yield from self.amo(addr, lambda v: value)
        return old

    # -- MMIO ----------------------------------------------------------- #
    def mmio_read(self, addr: int):
        if self._core.mmio is None:
            raise RuntimeError(f"core {self.core_id} has no MMIO port")
        value = yield from self._core.mmio.read(addr)
        return value

    def mmio_write(self, addr: int, value: int):
        if self._core.mmio is None:
            raise RuntimeError(f"core {self.core_id} has no MMIO port")
        yield from self._core.mmio.write(addr, value)
        return None


#: What a :class:`_SpinWait` resumes its process with when the L1 misses.
_L1_MISS = object()


class _SpinWait:
    """The polls of one :meth:`CpuContext.spin_until`, run as kernel callbacks.

    A poll is three waits: the load's issue cycle, the L1 latency and the
    :data:`SPIN_PAUSE_INSTRUCTIONS` pause.  Each callback charges what the
    generator steps of :meth:`CpuContext.load` and :meth:`CpuContext.compute`
    charge at that point and queues the next wait from the same callback
    with :meth:`ClockDomain.call_after_cycles`, so the event order, the
    sequence numbers and every counter equal a ``yield from`` poll loop's;
    only the generator frames per poll are gone.  The process is resumed
    with the value once ``done(value)`` holds, with ``_L1_MISS`` when the
    L1 probe misses, and thrown into when ``done`` raises.
    """

    __slots__ = ("core", "agent", "addr", "done", "line", "issue_cycles", "l1_cycles",
                 "resume", "throw", "_on_issue", "_on_l1", "_on_pause")

    def __init__(self, core: "Core", addr: int, done: Callable[[int], bool]) -> None:
        self.core = core
        self.agent = core.cache
        self.addr = addr
        self.done = done
        self.line = 0
        self.issue_cycles = int(core.config.mem_issue_cycles)
        self.l1_cycles = core.cache.config.l1_latency_cycles
        self.resume: Optional[Callable[[Any], None]] = None
        self.throw: Optional[Callable[[BaseException], None]] = None
        # Bound once, not once per poll.
        self._on_issue = self._issued
        self._on_l1 = self._probed
        self._on_pause = self._paused

    def start(self, resume: Callable[[Any], None],
              throw: Callable[[BaseException], None]) -> None:
        """The :class:`Suspend` owner: take over the process and issue a load."""
        self.resume = resume
        self.throw = throw
        self.core.domain.call_after_cycles(self.issue_cycles, self._on_issue)

    def _issued(self, _: Any) -> None:
        agent = self.agent
        self.line = agent.start_load(self.addr)
        agent.domain.call_after_cycles(self.l1_cycles, self._on_l1)

    def _probed(self, _: Any) -> None:
        agent = self.agent
        if not agent.l1_hit(self.line):
            self.resume(_L1_MISS)
            return
        value = agent.memory.read_word(self.addr)
        core = self.core
        core._c_loads.value += 1
        try:
            done = self.done(value)
        except Exception as error:
            self.throw(error)
            return
        if done:
            self.resume(value)
        else:
            core.domain.call_after_cycles(core.charge(SPIN_PAUSE_INSTRUCTIONS), self._on_pause)

    def _paused(self, _: Any) -> None:
        self.core.domain.call_after_cycles(self.issue_cycles, self._on_issue)


#: A program is a callable producing a generator when given a CpuContext.
Program = Callable[..., Generator[Any, Any, Any]]


class Core:
    """One in-order processor: a clock domain, a cache agent and an MMIO port."""

    def __init__(
        self,
        sim: Simulator,
        domain: ClockDomain,
        core_id: int,
        cache: PrivateCacheAgent,
        mmio: Optional[MmioPort] = None,
        config: Optional[CoreConfig] = None,
        name: str = "",
    ) -> None:
        self.sim = sim
        self.domain = domain
        self.core_id = core_id
        self.cache = cache
        self.mmio = mmio
        self.config = config or CoreConfig()
        self.name = name or f"core{core_id}"
        #: Energy-accounting hook (see ``repro.power``); ``None`` unless the
        #: system was built with ``PowerConfig(enabled=True)``.
        self.power_probe = None
        self.stats = StatSet(f"{self.name}.stats")
        # Hot-loop stat objects, resolved once instead of per instruction.
        self._c_instructions = self.stats.counter("instructions")
        self._c_loads = self.stats.counter("loads")
        self._c_stores = self.stats.counter("stores")
        self._c_atomics = self.stats.counter("atomics")
        self.context = CpuContext(self)

    def charge(self, instructions: float, fp: bool = False) -> int:
        """Credit ``instructions`` of ALU/FPU work to the instruction count
        and the power probe; returns the whole cycles the work takes."""
        config = self.config
        per_op = config.fp_op_cycles if fp else config.int_op_cycles
        cycles = instructions * per_op / config.issue_width
        self._c_instructions.value += int(instructions)
        rounded = int(round(cycles)) if cycles > 1.0 else 1
        probe = self.power_probe
        if probe is not None:
            probe.core_active_cycles += rounded
        return rounded

    def run(self, program: Program, *args: Any, name: str = "", **kwargs: Any) -> Process:
        """Start ``program(ctx, *args, **kwargs)`` as a simulation process."""
        generator = program(self.context, *args, **kwargs)
        return self.sim.process(generator, name=name or f"{self.name}.{program.__name__}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Core {self.name} @{self.domain.freq_mhz:.0f}MHz>"
