"""Feature switches.

Both the Memory Hubs and the Control Hub expose a bank of feature switches
that "allow the processors to configure the [hubs] according to the state of
the eFPGA and the specifications of the soft accelerator" (Sec. II-B): the
hubs must be deactivated during reconfiguration, invalidation forwarding is
enabled only when soft caches are used, the TLB can be bypassed for trusted
firmware-style widgets, atomics are opt-in, and the exception timeout is
programmable.
"""

from __future__ import annotations

from typing import Callable, Dict, List


class FeatureSwitches:
    """A named bank of boolean switches plus a few integer settings."""

    #: Switch names used by the Memory Hub and Control Hub.
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

    #: Integer settings (values, not booleans).
    TIMEOUT_CYCLES = "timeout_cycles"

    _DEFAULT_SETTINGS = {
        TIMEOUT_CYCLES: 20_000,
    }

    def __init__(self, name: str = "switches") -> None:
        self.name = name
        self._switches: Dict[str, bool] = dict(self._DEFAULT_SWITCHES)
        self._settings: Dict[str, int] = dict(self._DEFAULT_SETTINGS)
        self._observers: List[Callable[[str, object], None]] = []

    # ------------------------------------------------------------------ #
    # Boolean switches
    # ------------------------------------------------------------------ #
    def enabled(self, switch: str) -> bool:
        if switch not in self._switches:
            raise KeyError(f"{self.name}: unknown switch {switch!r}")
        return self._switches[switch]

    def set(self, switch: str, value: bool) -> None:
        if switch not in self._switches:
            raise KeyError(f"{self.name}: unknown switch {switch!r}")
        self._switches[switch] = bool(value)
        self._notify(switch, bool(value))

    # ------------------------------------------------------------------ #
    # Integer settings
    # ------------------------------------------------------------------ #
    def setting(self, key: str) -> int:
        if key not in self._settings:
            raise KeyError(f"{self.name}: unknown setting {key!r}")
        return self._settings[key]

    def configure(self, key: str, value: int) -> None:
        if key not in self._settings:
            raise KeyError(f"{self.name}: unknown setting {key!r}")
        if value < 0:
            raise ValueError(f"{self.name}: {key} must be non-negative")
        self._settings[key] = int(value)
        self._notify(key, int(value))

    # ------------------------------------------------------------------ #
    # Observation (hubs react to switch flips)
    # ------------------------------------------------------------------ #
    def observe(self, callback: Callable[[str, object], None]) -> None:
        self._observers.append(callback)

    def _notify(self, key: str, value: object) -> None:
        for observer in self._observers:
            observer(key, value)

    def snapshot(self) -> Dict[str, object]:
        state: Dict[str, object] = dict(self._switches)
        state.update(self._settings)
        return state
