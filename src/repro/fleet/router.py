"""The fleet's front tier: tenant→node placement and migration.

The :class:`Router` owns the tenant→node map.  Three placement policies
ship (:data:`PLACEMENT_KINDS`):

* ``hash`` — consistent-hash sharding: nodes project ``VIRTUAL_POINTS``
  CRC-32 points onto a ring and a tenant lands on the first point at or
  after its own CRC-32 key.  No load information, but node arrivals and
  departures move only the tenants whose arc changed — the cheapest policy
  under autoscaling.
* ``least_loaded`` — greedy balanced sharding: tenants in descending
  offered-load order, each onto the node with the least accumulated load
  per fabric.  Ignores bitstream identity, so a node typically hosts a mix
  of accelerators and pays reconfiguration to serve them.
* ``affinity`` — bitstream-affinity-aware sharding: tenants are grouped by
  accelerator and whole groups placed least-loaded-first, minimizing the
  number of distinct bitstreams per node — the cluster-level analogue of
  the PR 5 reconfiguration-affinity scheduling policy, and the reason the
  ``fleet_scaling`` pareto front bends (see ``docs/fleet.md``).

Placements are recomputed when the node set changes (autoscaling); between
scale events the router performs *watermark migration*: when a node's
queue-depth :class:`~repro.sim.stats.TimeSeries` sustained a time-weighted
mean above ``migrate_watermark`` over the last epoch, its largest-load
tenant is re-placed onto the least-busy node.  The moved tenant pays the
migration cost on arrival (see :func:`repro.fleet.node.migration_stall_ns`).

Everything is CRC-32/arithmetic — no ``hash()`` — so placement is
bit-identical across machines and ``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Sequence, Set, Tuple

from repro.fleet.node import NodeSpec, TenantShare

PLACEMENT_KINDS: Tuple[str, ...] = ("hash", "least_loaded", "affinity")

#: Virtual points per node on the consistent-hash ring; enough that two
#: hash-adjacent nodes split tenant arcs roughly evenly.
VIRTUAL_POINTS = 64


class PlacementPolicy:
    """Maps tenant shares onto nodes; pure function of its arguments."""

    kind = "hash"

    def place(self, shares: Sequence[TenantShare],
              nodes: Sequence[NodeSpec]) -> Dict[str, int]:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__}>"


class HashPlacement(PlacementPolicy):
    """Consistent-hash tenant sharding over a CRC-32 ring."""

    kind = "hash"

    @staticmethod
    def _ring(nodes: Sequence[NodeSpec]) -> List[Tuple[int, int]]:
        points = []
        for node in nodes:
            for virtual in range(VIRTUAL_POINTS * node.fabrics):
                key = zlib.crc32(f"node:{node.node_id}:v:{virtual}".encode())
                points.append((key, node.node_id))
        points.sort()
        return points

    def place(self, shares: Sequence[TenantShare],
              nodes: Sequence[NodeSpec]) -> Dict[str, int]:
        ring = self._ring(nodes)
        placement = {}
        for share in shares:
            key = zlib.crc32(share.tenant.name.encode())
            # First ring point at or after the tenant's key, wrapping.
            chosen = ring[0][1]
            for point, node_id in ring:
                if point >= key:
                    chosen = node_id
                    break
            placement[share.tenant.name] = chosen
        return placement


class LeastLoadedPlacement(PlacementPolicy):
    """Greedy balance by offered load, normalized per fabric."""

    kind = "least_loaded"

    def place(self, shares: Sequence[TenantShare],
              nodes: Sequence[NodeSpec]) -> Dict[str, int]:
        loads = {node.node_id: 0.0 for node in nodes}
        fabrics = {node.node_id: node.fabrics for node in nodes}
        placement = {}
        ordered = sorted(shares, key=lambda s: (-s.load_proxy(), s.tenant.name))
        for share in ordered:
            target = min(loads, key=lambda nid: (loads[nid] / fabrics[nid], nid))
            placement[share.tenant.name] = target
            loads[target] += share.load_proxy()
        return placement


class AffinityPlacement(PlacementPolicy):
    """Group tenants by accelerator; place whole groups least-loaded-first.

    Minimizing distinct bitstreams per node minimizes reconfiguration —
    the dominant serving overhead (~70% of FCFS busy time in the PR 5
    acceptance pin).
    """

    kind = "affinity"

    def place(self, shares: Sequence[TenantShare],
              nodes: Sequence[NodeSpec]) -> Dict[str, int]:
        groups: Dict[str, List[TenantShare]] = {}
        for share in shares:
            groups.setdefault(share.tenant.accelerator, []).append(share)
        loads = {node.node_id: 0.0 for node in nodes}
        fabrics = {node.node_id: node.fabrics for node in nodes}
        placement = {}
        ordered = sorted(
            groups.items(),
            key=lambda item: (-sum(s.load_proxy() for s in item[1]), item[0]))
        for _accelerator, members in ordered:
            target = min(loads, key=lambda nid: (loads[nid] / fabrics[nid], nid))
            for share in members:
                placement[share.tenant.name] = target
            loads[target] += sum(share.load_proxy() for share in members)
        return placement


def make_placement(kind: str) -> PlacementPolicy:
    if kind == "hash":
        return HashPlacement()
    if kind == "least_loaded":
        return LeastLoadedPlacement()
    if kind == "affinity":
        return AffinityPlacement()
    known = ", ".join(PLACEMENT_KINDS)
    raise ValueError(f"unknown placement policy {kind!r}; known policies: {known}")


class Router:
    """Front-tier state: the tenant→node map plus migration bookkeeping."""

    def __init__(self, placement: str, migrate_watermark: float = 8.0) -> None:
        if migrate_watermark <= 0:
            raise ValueError(
                f"migrate_watermark must be positive, got {migrate_watermark}")
        self.policy = make_placement(placement)
        self.migrate_watermark = migrate_watermark
        self.placement: Dict[str, int] = {}
        self.migrations = 0

    # ------------------------------------------------------------------ #
    def place(self, shares: Sequence[TenantShare],
              nodes: Sequence[NodeSpec]) -> Set[str]:
        """(Re)compute the full placement; returns tenants that moved.

        Called initially and after every node-set change.  The first call
        moves nobody (there is no previous node to migrate from).
        """
        fresh = self.policy.place(shares, nodes)
        moved = {name for name, node_id in fresh.items()
                 if self.placement and self.placement.get(name) != node_id}
        self.migrations += len(moved)
        self.placement = fresh
        return moved

    def rebalance(self, signals: Dict[int, Dict[str, float]],
                  shares: Sequence[TenantShare],
                  nodes: Sequence[NodeSpec]) -> Set[str]:
        """Watermark migration: drain one tenant off each sustained-hot node.

        ``signals`` maps node_id → the node's last-epoch signals (the
        fields used here: ``queue_depth_mean``, ``busy_fraction``).  Hot nodes are
        handled hottest-first; each moves its largest-load tenant to the
        least-busy node.  Returns the set of migrated tenant names.
        """
        by_node: Dict[int, List[TenantShare]] = {}
        for share in shares:
            node_id = self.placement.get(share.tenant.name)
            if node_id is not None:
                by_node.setdefault(node_id, []).append(share)
        active = {node.node_id for node in nodes}
        hot = sorted(
            (node_id for node_id, sig in signals.items()
             if node_id in active
             and sig["queue_depth_mean"] > self.migrate_watermark
             and len(by_node.get(node_id, ())) > 1),
            key=lambda nid: (-signals[nid]["queue_depth_mean"], nid))
        moved: Set[str] = set()
        for node_id in hot:
            targets = [nid for nid in active if nid != node_id and nid in signals]
            if not targets:
                break
            target = min(targets,
                         key=lambda nid: (signals[nid]["busy_fraction"], nid))
            if signals[target]["queue_depth_mean"] > self.migrate_watermark:
                continue  # nowhere cool enough to absorb the tenant
            victim = max(by_node[node_id],
                         key=lambda s: (s.load_proxy(), s.tenant.name))
            self.placement[victim.tenant.name] = target
            by_node[node_id].remove(victim)
            by_node.setdefault(target, []).append(victim)
            moved.add(victim.tenant.name)
        self.migrations += len(moved)
        return moved
