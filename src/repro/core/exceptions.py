"""Exception handler: timeout and parity monitoring of eFPGA outputs.

"The exception handler employs timeout and parity checks to monitor eFPGA
outputs.  When an exception is detected, e.g. due to an RTL or software bug,
it asserts an error code and deactivates all Memory Hubs in the same Duet
Adapter.  Once deactivated, the Memory Hubs stop accepting any memory
requests from the eFPGA, but the Proxy Caches remain functional [...] This
mechanism prevents accelerator bugs from halting the system at the
micro-architecture level." (Sec. II-B)
"""

from __future__ import annotations

import enum
from typing import Callable, List, Optional

from repro.sim import ClockDomain, Simulator, StatSet


class DuetError(RuntimeError):
    """Raised by software-facing APIs when the adapter is in an error state."""


class ErrorCode(enum.IntEnum):
    """Error codes latched by the exception handler (0 means no error)."""

    NONE = 0
    TIMEOUT = 1
    PARITY = 2
    BITSTREAM_CORRUPT = 3
    PAGE_FAULT_FATAL = 4
    PROTOCOL = 5


class ExceptionHandler:
    """Monitors eFPGA-originated traffic and latches the first error seen."""

    def __init__(
        self,
        sim: Simulator,
        domain: ClockDomain,
        name: str = "exc",
        timeout_cycles: int = 20_000,
    ) -> None:
        self.sim = sim
        self.domain = domain
        self.name = name
        self.timeout_cycles = timeout_cycles
        self.error_code = ErrorCode.NONE
        self._on_error: List[Callable[[ErrorCode], None]] = []
        self.stats = StatSet(f"{name}.stats")

    # ------------------------------------------------------------------ #
    # Configuration and observation
    # ------------------------------------------------------------------ #
    def set_timeout_cycles(self, cycles: int) -> None:
        if cycles <= 0:
            raise ValueError("timeout must be positive")
        self.timeout_cycles = cycles

    def on_error(self, callback: Callable[[ErrorCode], None]) -> None:
        """Register a callback fired once when an error is latched."""
        self._on_error.append(callback)

    @property
    def has_error(self) -> bool:
        return self.error_code is not ErrorCode.NONE

    def clear(self) -> None:
        """Clear a previously-logged error code (feature-switch action)."""
        self.error_code = ErrorCode.NONE

    # ------------------------------------------------------------------ #
    # Checks
    # ------------------------------------------------------------------ #
    def raise_error(self, code: ErrorCode) -> None:
        """Latch ``code`` (first error wins) and notify observers."""
        self.stats.counter(f"error_{code.name.lower()}").increment()
        if self.has_error:
            return
        self.error_code = code
        for callback in self._on_error:
            callback(code)

    def check_parity(self, payload) -> bool:
        """Parity check on an eFPGA output; latches PARITY on failure.

        The behavioural model flags corruption explicitly: any payload with
        a truthy ``corrupt`` attribute or dictionary entry fails the check.
        """
        corrupt = False
        if isinstance(payload, dict):
            corrupt = bool(payload.get("corrupt", False))
        else:
            corrupt = bool(getattr(payload, "corrupt", False))
        if corrupt:
            self.raise_error(ErrorCode.PARITY)
            return False
        return True

    def guard(self, event, timeout_cycles: Optional[int] = None):
        """Wait for ``event`` but latch TIMEOUT if it takes too long.

        Returns the event's value, or ``None`` after a timeout.  Used by the
        Memory Hub around responses it expects from the eFPGA and by the
        CPU-bound blocking FIFO reads.
        """
        cycles = timeout_cycles if timeout_cycles is not None else self.timeout_cycles
        deadline = self.sim.now + cycles * self.domain.period_ns
        timer = self.sim.event(f"{self.name}.timer")
        self.sim.schedule_at(deadline, lambda: None if timer.triggered else timer.succeed(None))
        race = self.sim.event(f"{self.name}.race")

        def _finish(value, source):
            if not race.triggered:
                race.succeed((source, value))

        event.add_callback(lambda value: _finish(value, "event"))
        timer.add_callback(lambda value: _finish(value, "timeout"))
        source, value = yield race
        if source == "timeout":
            self.raise_error(ErrorCode.TIMEOUT)
            return None
        return value
