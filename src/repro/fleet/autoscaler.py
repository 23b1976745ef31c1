"""Reactive fleet autoscaling from queue-depth and shed-rate signals.

The :class:`Autoscaler` looks at the cluster's last-epoch signals and
grows, holds or shrinks the node count:

* **grow** when tenants are visibly hurting — the cluster shed more than
  ``up_shed_fraction`` of offered requests, or the mean per-node queue
  depth sustained above ``up_queue_depth`` (the same time-weighted
  queue-depth :class:`~repro.sim.stats.TimeSeries` the router's watermark
  migration reads);
* **shrink** when capacity is obviously idle — every node's busy fraction
  below ``down_busy_fraction`` and nothing shed;
* otherwise **hold**.  A ``cooldown_epochs`` guard keeps the scaler from
  flapping on the epoch right after it acted.

A grown node is a clone of the template spec with a fresh id; a shrink
removes the least-busy node and the router migrates its tenants away.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from repro.fleet.node import NodeSpec


@dataclass(frozen=True)
class AutoscalerConfig:
    """Watermarks and bounds for one autoscaling fleet."""

    enabled: bool = False
    min_nodes: int = 1
    max_nodes: int = 16
    #: Grow when cluster shed / submitted exceeds this ...
    up_shed_fraction: float = 0.005
    #: ... or the mean node queue depth sustains above this.
    up_queue_depth: float = 4.0
    #: Shrink when every node's busy fraction is below this (and no shed).
    down_busy_fraction: float = 0.30
    cooldown_epochs: int = 1

    def __post_init__(self) -> None:
        if not (1 <= self.min_nodes <= self.max_nodes):
            raise ValueError(
                f"need 1 <= min_nodes <= max_nodes, got "
                f"{self.min_nodes}/{self.max_nodes}")
        for name in ("up_shed_fraction", "down_busy_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
        if self.up_queue_depth < 0:
            raise ValueError(
                f"up_queue_depth cannot be negative, got {self.up_queue_depth}")
        if self.cooldown_epochs < 0:
            raise ValueError(
                f"cooldown_epochs cannot be negative, got {self.cooldown_epochs}")


class Autoscaler:
    """Applies :class:`AutoscalerConfig` decisions to a node list."""

    def __init__(self, config: AutoscalerConfig, template: NodeSpec) -> None:
        self.config = config
        #: New nodes are clones of this spec (fresh ids).
        self.template = template
        self.events: List[Dict[str, object]] = []
        self._cooldown = 0
        self._next_id = template.node_id + 1

    # ------------------------------------------------------------------ #
    def decide(self, signals: Dict[int, Dict[str, float]]) -> int:
        """+1 grow, -1 shrink, 0 hold — from the last epoch's signals."""
        if not self.config.enabled or not signals:
            return 0
        if self._cooldown > 0:
            self._cooldown -= 1
            return 0
        submitted = sum(sig["submitted"] for sig in signals.values())
        shed = sum(sig["shed"] for sig in signals.values())
        shed_fraction = shed / submitted if submitted else 0.0
        queue_mean = (sum(sig["queue_depth_mean"] for sig in signals.values())
                      / len(signals))
        if (shed_fraction > self.config.up_shed_fraction
                or queue_mean > self.config.up_queue_depth):
            return 1
        if (shed == 0
                and all(sig["busy_fraction"] < self.config.down_busy_fraction
                        for sig in signals.values())):
            return -1
        return 0

    def apply(self, decision: int, nodes: List[NodeSpec],
              signals: Dict[int, Dict[str, float]],
              epoch: int) -> Optional[List[NodeSpec]]:
        """Returns the new node list, or ``None`` when nothing changed."""
        config = self.config
        if decision > 0 and len(nodes) < config.max_nodes:
            fresh = replace(self.template, node_id=self._next_id)
            self._next_id += 1
            self._record(epoch, "grow", f"+{fresh.name}")
            return nodes + [fresh]
        if decision < 0 and len(nodes) > config.min_nodes:
            victim = min(nodes, key=lambda node: (
                signals.get(node.node_id, {}).get("busy_fraction", 0.0),
                -node.node_id))
            self._record(epoch, "shrink", f"-{victim.name}")
            return [node for node in nodes if node.node_id != victim.node_id]
        return None

    def _record(self, epoch: int, action: str, detail: str) -> None:
        self.events.append({"epoch": epoch, "action": action, "detail": detail})
        self._cooldown = self.config.cooldown_epochs
