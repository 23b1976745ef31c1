"""Soft register declarations.

An accelerator's software interface is a small bank of registers exposed via
on-chip MMIOs.  Each register is either a *normal* soft register (emulated
inside the eFPGA; every processor access pays the clock-domain crossing) or
one of the four *Shadow Register* types of Sec. II-F that live in the fast
clock domain:

* ``PLAIN`` — keeps the last written value; ideal for passing constants.
* ``FPGA_BOUND_FIFO`` — records processor writes, read in order by the eFPGA.
* ``CPU_BOUND_FIFO`` — records accelerator pushes; processor reads block
  until data is available (or the access times out).
* ``TOKEN_FIFO`` — dataless, non-blocking; a processor read consumes a token
  or returns "empty", emulating ``try_join``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List


class RegisterKind(enum.Enum):
    """Soft register flavours (Sec. II-E / II-F)."""

    NORMAL = "normal"
    PLAIN = "plain"
    FPGA_BOUND_FIFO = "fpga_bound_fifo"
    CPU_BOUND_FIFO = "cpu_bound_fifo"
    TOKEN_FIFO = "token_fifo"


@dataclass(frozen=True)
class RegisterSpec:
    """One register in an accelerator's software interface."""

    index: int
    kind: RegisterKind
    name: str = ""
    #: FIFO depth for the FIFO kinds (ignored for PLAIN / NORMAL).
    depth: int = 8

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError("register index must be non-negative")
        if self.depth < 1:
            raise ValueError("register FIFO depth must be >= 1")


@dataclass
class RegisterLayout:
    """A validated collection of register specs keyed by index and name."""

    specs: List[RegisterSpec] = field(default_factory=list)

    def __post_init__(self) -> None:
        indices = [spec.index for spec in self.specs]
        if len(indices) != len(set(indices)):
            raise ValueError("duplicate register indices in layout")
        names = [spec.name for spec in self.specs if spec.name]
        if len(names) != len(set(names)):
            raise ValueError("duplicate register names in layout")

    def __iter__(self):
        return iter(self.specs)

    def __len__(self) -> int:
        return len(self.specs)
