"""Feature switches.

Each Memory Hub exposes a bank of feature switches that "allow the
processors to configure the [hubs] according to the state of the eFPGA and
the specifications of the soft accelerator" (Sec. II-B): the hubs must be
deactivated during reconfiguration, invalidation forwarding is enabled only
when soft caches are used, the TLB can be bypassed for trusted
firmware-style widgets, and atomics are opt-in.  The programmable exception
timeout is not a switch: it is
:attr:`~repro.core.exceptions.ExceptionHandler.timeout_cycles`, written
through the Control Hub's ``REG_TIMEOUT``.
"""

from __future__ import annotations

from typing import Dict


class FeatureSwitches:
    """A named bank of boolean switches."""

    #: Switch names used by the Memory Hub.
    ACTIVE = "active"
    FORWARD_INVALIDATIONS = "forward_invalidations"
    TLB_ENABLED = "tlb_enabled"
    ATOMICS_ENABLED = "atomics_enabled"

    _DEFAULT_SWITCHES = {
        ACTIVE: True,
        FORWARD_INVALIDATIONS: False,
        TLB_ENABLED: False,
        ATOMICS_ENABLED: False,
    }

    def __init__(self, name: str = "switches") -> None:
        self.name = name
        self._switches: Dict[str, bool] = dict(self._DEFAULT_SWITCHES)

    def enabled(self, switch: str) -> bool:
        if switch not in self._switches:
            raise KeyError(f"{self.name}: unknown switch {switch!r}")
        return self._switches[switch]

    def set(self, switch: str, value: bool) -> None:
        if switch not in self._switches:
            raise KeyError(f"{self.name}: unknown switch {switch!r}")
        self._switches[switch] = bool(value)
