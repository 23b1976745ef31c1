"""The ``chaos`` experiment: failover under traffic, quantified.

One cell = one fleet run (4 nodes + a hot spare by default) that loses
node 0 to a pinned whole-node fault in epoch 1 while a rate-scaled
background of SEUs and transient link faults plays over every node.  The
sweep crosses background fault rate x scheduling policy x recovery on/off;
what comes out is the cost of reliability:

* with recovery, the control plane promotes the spare, re-places the dead
  node's tenants through the router's real migration path (they pay the
  re-program + state-transfer blackout) and replays the lost requests —
  the pinned acceptance is that cluster goodput is back to >= 0.8x its
  pre-fault level within two epochs of the kill;
* without recovery, the dead node keeps its tenants and sheds everything —
  the ablation the summary's ``recovery_goodput_gain`` compares against.

Cells are module-level and picklable, so ``Runner(executor="process")``
runs them in parallel with the serial rows bit for bit: every fault draw
resolves from the schedule before a node simulates (see
:mod:`repro.chaos.schedule`).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.chaos.inject import ChaosConfig
from repro.chaos.schedule import FaultSchedule, FaultSpec, noise_specs
from repro.fleet.autoscaler import AutoscalerConfig
from repro.fleet.cluster import FleetConfig, epoch_goodput, run_fleet
from repro.fleet.experiments import FLEET_TENANTS

DEFAULT_SEED = 2023

#: The epoch the pinned whole-node kill lands in (node 0).
KILL_EPOCH = 1

#: Recovery budget of the acceptance pin: goodput must be back within this
#: many epochs of the kill...
RECOVERY_EPOCHS = 2
#: ...to at least this fraction of the pre-fault level.
RECOVERY_FLOOR = 0.8


def build_schedule(fault_rate: float, seed: int = DEFAULT_SEED,
                   kill_node: int = 0) -> FaultSchedule:
    """The canonical chaos mix: one pinned node kill + rate-scaled noise.

    ``fault_rate`` is the expected SEUs per (node, epoch); transient link
    faults run at half that and self-repair.  ``fault_rate=0`` keeps only
    the pinned kill — the cleanest failover measurement.
    """
    if fault_rate < 0:
        raise ValueError(f"fault_rate cannot be negative, got {fault_rate}")
    specs: List[FaultSpec] = [
        FaultSpec(kind="fabric", scope="node", at_epoch=KILL_EPOCH,
                  at_node=kill_node),
    ]
    if fault_rate > 0:
        specs.extend(noise_specs(fault_rate).values())
    return FaultSchedule(seed=seed, specs=tuple(specs))


def chaos_cell(
    fault_rate: float,
    policy: str,
    recovery: bool,
    nodes: int = 3,
    spares: int = 1,
    epochs: int = 5,
    epoch_us: float = 600.0,
    rate_krps: float = 300.0,
    seed: int = DEFAULT_SEED,
    tracer: Optional[Any] = None,
) -> List[Dict[str, Any]]:
    """One chaos fleet run; returns merged rows + recovery columns."""
    config = FleetConfig(
        nodes=nodes,
        placement="affinity",
        policy=policy,
        epochs=epochs,
        epoch_us=epoch_us,
        autoscaler=AutoscalerConfig(enabled=False),
        power=True,
        chaos=ChaosConfig(build_schedule(fault_rate, seed), recovery=recovery),
        spares=spares,
    )
    outcome = run_fleet(
        config, FLEET_TENANTS, total_rate_rps=rate_krps * 1000.0, seed=seed,
        extra_columns={"fault_rate": fault_rate, "policy": policy,
                       "recovery": recovery},
        tracer=tracer,
    )
    goodput = epoch_goodput(outcome.reports)
    pre = goodput[KILL_EPOCH - 1]
    post_epoch = min(KILL_EPOCH + RECOVERY_EPOCHS, len(goodput) - 1)
    for row in outcome.rows:
        row["pre_fault_goodput"] = pre
        row["post_recovery_goodput"] = goodput[post_epoch]
        row["goodput_recovery"] = (goodput[post_epoch] / pre) if pre else 0.0
        row["post_fault_good_total"] = sum(goodput[KILL_EPOCH + 1:])
    return outcome.rows


def chaos_summary(rows: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Recovery-vs-ablation ratios per (fault_rate, policy) point."""
    aggregates = [row for row in rows if row.get("tenant") == "__all__"]
    summary: Dict[str, Any] = {}
    points: List[Tuple[float, str]] = sorted(
        {(row["fault_rate"], row["policy"]) for row in aggregates})
    for fault_rate, policy in points:
        cell = {bool(row["recovery"]): row for row in aggregates
                if row["fault_rate"] == fault_rate and row["policy"] == policy}
        label = f"{policy}@rate{fault_rate:g}"
        on = cell.get(True)
        if on is not None:
            summary[f"goodput_recovery[{label}]"] = on["goodput_recovery"]
            summary[f"recovered_within_{RECOVERY_EPOCHS}_epochs[{label}]"] = (
                on["goodput_recovery"] >= RECOVERY_FLOOR)
        off = cell.get(False)
        if on is not None and off is not None and off["post_fault_good_total"]:
            summary[f"recovery_goodput_gain[{label}]"] = (
                on["post_fault_good_total"] / off["post_fault_good_total"])
    recovered = [value for key, value in summary.items()
                 if key.startswith("recovered_within_")]
    if recovered:
        summary["all_points_recovered"] = all(recovered)
    return summary
