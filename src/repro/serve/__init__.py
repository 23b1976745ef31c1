"""Multi-tenant accelerator serving (see ``docs/serving.md``).

Turns the simulation stack into a *served* system: tenants emit request
traffic (:mod:`repro.serve.traffic`) against one or more eFPGA fabrics
multiplexed by a reconfiguration-aware scheduler
(:mod:`repro.serve.scheduler`), with per-tenant tail-latency/goodput/SLO
accounting (:mod:`repro.serve.slo`).  The ``serve_policy`` and
``serve_energy`` experiments are registered in :mod:`repro.api.registry`.
"""

from repro.serve.catalog import (
    SERVE_ACCELERATORS,
    ServedAccelerator,
    ServedAcceleratorSpec,
    materialize,
    resolve_accelerator,
)
from repro.serve.scheduler import (
    POLICY_KINDS,
    AffinityPolicy,
    FabricContext,
    FabricScheduler,
    FcfsPolicy,
    PriorityPolicy,
    SchedulingPolicy,
    ServeConfig,
    SjfPolicy,
    make_policy,
)
from repro.serve.slo import REPORT_PERCENTILES, SloMonitor, TenantAccount
from repro.serve.traffic import (
    ARRIVAL_PATTERNS,
    Request,
    TenantSpec,
    TrafficSource,
    build_sources,
)

__all__ = [
    "ARRIVAL_PATTERNS",
    "AffinityPolicy",
    "FabricContext",
    "FabricScheduler",
    "FcfsPolicy",
    "POLICY_KINDS",
    "PriorityPolicy",
    "REPORT_PERCENTILES",
    "Request",
    "SERVE_ACCELERATORS",
    "SchedulingPolicy",
    "ServeConfig",
    "ServedAccelerator",
    "ServedAcceleratorSpec",
    "SjfPolicy",
    "SloMonitor",
    "TenantAccount",
    "TenantSpec",
    "TrafficSource",
    "build_sources",
    "make_policy",
    "materialize",
    "resolve_accelerator",
]
