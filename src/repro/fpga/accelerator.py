"""Soft accelerator base class and the environment it runs in.

A *soft accelerator* (the paper's umbrella term for fine-grained
accelerators and hardware-augmentation widgets) is modelled behaviourally: a
process in the eFPGA clock domain whose body expresses the pipeline's
latency and throughput, reading and writing memory through the Memory Hubs
and talking to software through the Control Hub's soft/shadow registers.

The accelerator does not know whether its memory ports go through a Proxy
Cache (Duet), a slow FPGA-side cache (the FPSoC baseline) or a soft cache —
the platform wires that up — which mirrors the paper's claim that the same
accelerator RTL runs on both Dolly and the FPSoC model.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional

from repro.fpga.synthesis import AcceleratorDesign
from repro.sim import ClockDomain, Simulator, StatSet


class FpgaMemoryPort(abc.ABC):
    """What a soft accelerator sees of one Memory Hub.

    The Proxy Cache reduces the protocol to "two request types (Load and
    Store) and three response types (LoadAck, StoreAck and Invalidation)"
    (Sec. II-C); atomics are an optional extension.  All methods are
    generators to be driven with ``yield from``.
    """

    @abc.abstractmethod
    def load(self, addr: int) -> Any:
        """Load one word; returns its value."""

    @abc.abstractmethod
    def store(self, addr: int, value: int) -> None:
        """Store one word (write-through as far as the accelerator knows)."""

    @abc.abstractmethod
    def load_line(self, addr: int) -> List[int]:
        """Load a full cache line; returns its words."""

    def amo(self, addr: int, fn: Callable[[int], int]) -> int:  # pragma: no cover
        """Optional atomic support (feature-switch controlled)."""
        raise NotImplementedError("this memory port does not support atomics")

    # -- split transactions ------------------------------------------------ #
    # Ports backed by a Duet Memory Hub support pipelined (issue/wait)
    # operation; other ports fall back to executing the operation eagerly,
    # which keeps accelerator code identical across cache organizations.
    def issue(self, op: str, addr: int, value: int = 0, fn: Callable[[int], int] = None,
              corrupt: bool = False):
        """Issue an operation; returns a handle to pass to :meth:`wait`."""
        if op == "load":
            result = yield from self.load(addr)
        elif op == "load_line":
            result = yield from self.load_line(addr)
        elif op == "store":
            result = yield from self.store(addr, value)
        elif op == "amo":
            result = yield from self.amo(addr, fn)
        else:
            raise ValueError(f"unknown memory operation {op!r}")
        return _CompletedOperation(result)

    def wait(self, handle):
        """Wait for a previously issued operation and return its result."""
        if isinstance(handle, _CompletedOperation):
            return handle.value
            yield  # pragma: no cover - keeps this a generator
        raise TypeError(f"unexpected completion handle {handle!r}")


@dataclass
class _CompletedOperation:
    """Handle returned by the eager fallback of :meth:`FpgaMemoryPort.issue`."""

    value: Any


class RegisterFileView(abc.ABC):
    """FPGA-side view of the Control Hub's soft register interface."""

    @abc.abstractmethod
    def read(self, index: int) -> Any:
        """Read soft register ``index`` (generator)."""

    @abc.abstractmethod
    def write(self, index: int, value: int) -> None:
        """Write soft register ``index`` (generator)."""

    @abc.abstractmethod
    def pop_request(self, index: int) -> Any:
        """Block until software pushes into FPGA-bound FIFO ``index`` (generator)."""

    @abc.abstractmethod
    def push_response(self, index: int, value: int) -> None:
        """Push into CPU-bound FIFO ``index`` (generator)."""


@dataclass
class AcceleratorEnvironment:
    """Everything the platform hands to a programmed accelerator."""

    sim: Simulator
    domain: ClockDomain
    mem_ports: List[FpgaMemoryPort] = field(default_factory=list)
    registers: Optional[RegisterFileView] = None


class SoftAccelerator(abc.ABC):
    """Base class for every behavioural accelerator in :mod:`repro.accel`."""

    #: Subclasses override with their post-synthesis resource descriptor.
    DESIGN: AcceleratorDesign = None

    def __init__(self, name: str = "") -> None:
        self.name = name or type(self).__name__
        self.env: Optional[AcceleratorEnvironment] = None
        self.stats = StatSet(f"{self.name}.stats")
        #: Energy-accounting hook (see ``repro.power``); installed by the
        #: platform when the hosting system has power modeling enabled.
        self.power_probe = None
        self._running = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def design(self) -> AcceleratorDesign:
        if self.DESIGN is None:
            raise NotImplementedError(f"{type(self).__name__} must define DESIGN")
        return self.DESIGN

    def attach(self, env: AcceleratorEnvironment) -> None:
        """Called by the platform once the bitstream is loaded."""
        required = self.design.mem_ports
        if len(env.mem_ports) < required:
            raise ValueError(
                f"{self.name} needs {required} memory port(s), "
                f"got {len(env.mem_ports)}"
            )
        self.env = env

    def start(self) -> "Process":  # noqa: F821
        """Spawn the accelerator's behaviour process (reset release)."""
        if self.env is None:
            raise RuntimeError(f"{self.name} has not been attached to an eFPGA")
        if self._running:
            raise RuntimeError(f"{self.name} already started")
        self._running = True
        return self.env.sim.process(self._run(), name=f"{self.name}.behavior")

    def _run(self):
        try:
            result = yield from self.behavior()
        finally:
            self._running = False
        return result

    @abc.abstractmethod
    def behavior(self):
        """The accelerator's main process body (a generator)."""

    # ------------------------------------------------------------------ #
    # Conveniences for subclasses
    # ------------------------------------------------------------------ #
    @property
    def domain(self) -> ClockDomain:
        return self.env.domain

    @property
    def mem(self) -> FpgaMemoryPort:
        return self.env.mem_ports[0]

    @property
    def regs(self) -> RegisterFileView:
        if self.env.registers is None:
            raise RuntimeError(f"{self.name}: no register interface attached")
        return self.env.registers

    def cycles(self, count: int):
        """Command: advance ``count`` eFPGA cycles (pipeline latency).

        These are the accelerator's *active* cycles — the LUT-toggle energy
        events of the power model — as opposed to cycles spent blocked on a
        memory port or a register FIFO.
        """
        probe = self.power_probe
        if probe is not None:
            probe.fpga_active_cycles += count
        return self.domain.wait_cycles(count)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SoftAccelerator {self.name}>"
