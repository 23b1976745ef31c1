"""Cluster-scale Dolly serving: many nodes, one front tier.

Layers (see ``docs/fleet.md``):

* :mod:`repro.fleet.node` — one share-nothing simulated node (a PR 5
  :class:`~repro.serve.scheduler.FabricScheduler` deployment) plus the
  migration cost model;
* :mod:`repro.fleet.router` — tenant→node placement (consistent-hash /
  least-loaded / bitstream-affinity) and watermark migration;
* :mod:`repro.fleet.autoscaler` — reactive node/fabric scaling from
  queue-depth and shed-rate signals;
* :mod:`repro.fleet.cluster` — the epoch driver: simulates every node of
  an epoch in turn and merges the reports in sorted ``(epoch, node_id)``
  order;
* :mod:`repro.fleet.experiments` — the ``fleet_scaling`` experiment cells.
"""

from repro.fleet.autoscaler import Autoscaler, AutoscalerConfig
from repro.fleet.cluster import (
    FleetConfig,
    FleetOutcome,
    run_fleet,
)
from repro.fleet.node import (
    STATE_TRANSFER_NS,
    NodeSpec,
    TenantShare,
    migration_stall_ns,
    node_seed,
    simulate_node,
)
from repro.fleet.router import (
    PLACEMENT_KINDS,
    AffinityPlacement,
    HashPlacement,
    LeastLoadedPlacement,
    PlacementPolicy,
    Router,
    make_placement,
)

__all__ = [
    "Autoscaler",
    "AutoscalerConfig",
    "FleetConfig",
    "FleetOutcome",
    "run_fleet",
    "STATE_TRANSFER_NS",
    "NodeSpec",
    "TenantShare",
    "migration_stall_ns",
    "node_seed",
    "simulate_node",
    "PLACEMENT_KINDS",
    "AffinityPlacement",
    "HashPlacement",
    "LeastLoadedPlacement",
    "PlacementPolicy",
    "Router",
    "make_placement",
]
