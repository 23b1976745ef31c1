"""The Duet Adapter — the paper's primary contribution.

A Duet Adapter turns an embedded FPGA into a first-class, cache-coherent
peer on the NoC without touching the processor design.  It is composed of:

* one or more :class:`MemoryHub` s, each with a hardware :class:`ProxyCache`
  (the hybrid cache-organization of Sec. II-C), an optional eFPGA-emulated
  :class:`SoftCache`, a :class:`Tlb` for virtualized accelerators and a
  bank of :class:`FeatureSwitches`;
* one :class:`ControlHub` with the FPGA manager (programming engine,
  programmable clock generator) and the Soft Register Interface
  (:class:`SoftRegisterInterface`), augmented with the fast-clock-domain
  shadow registers of Sec. II-F;
* one :class:`ExceptionHandler`, shared by every hub of the adapter;
* the :class:`DuetAdapter` that composes them and programs accelerators.

The FPSoC-like baseline of Sec. V (FPGA-side cache in the slow clock
domain, shadow registers downgraded to normal soft registers) is provided
by :class:`SlowCacheAgent` plus the Control Hub's ``downgrade_shadow``
argument, which the adapter sets for ``mode="fpsoc"``, so the exact
comparison of Figs. 9-12 can be reproduced.
"""

from repro.core.feature_switches import FeatureSwitches
from repro.core.exceptions import DuetError, ErrorCode, ExceptionHandler
from repro.core.tlb import PageFault, Tlb
from repro.core.proxy_cache import ProxyCache
from repro.core.slow_cache import SlowCacheAgent
from repro.core.soft_cache import SoftCache, SoftCacheConfig
from repro.core.memory_hub import HubMemoryPort, MemoryHub
from repro.core.registers import RegisterKind, RegisterLayout, RegisterSpec
from repro.core.shadow_registers import FpgaRegisterView, SoftRegisterInterface
from repro.core.control_hub import ControlHub
from repro.core.adapter import AdapterConfig, DuetAdapter

__all__ = [
    "FeatureSwitches",
    "DuetError",
    "ErrorCode",
    "ExceptionHandler",
    "PageFault",
    "Tlb",
    "ProxyCache",
    "SlowCacheAgent",
    "SoftCache",
    "SoftCacheConfig",
    "MemoryHub",
    "HubMemoryPort",
    "RegisterKind",
    "RegisterSpec",
    "RegisterLayout",
    "SoftRegisterInterface",
    "FpgaRegisterView",
    "ControlHub",
    "DuetAdapter",
    "AdapterConfig",
]
