"""The cluster experiment: ``fleet_scaling``.

One cell is one fleet deployment serving the thinned traffic of a large
closed-loop client population (default one million clients on 50 ms think
time ≈ 20 M offered rps, thinned 50:1 to 400 krps — Palm–Khintchine:
superposing a million sparse renewal streams is Poisson, so the thinned
stream keeps the arrival statistics at a tractable simulated rate).  The
grid sweeps

* placement policy (``hash`` / ``least_loaded`` / ``affinity``),
* static node count (2 / 4 / 8),
* autoscaling on/off (off = the static fleet; on = start at one node,
  grow toward the same ``nodes`` cap as load ramps, shrink as it fades),

and reports cost (``node_us``: cost-weighted node-microseconds powered on)
against p99 latency and goodput — :func:`fleet_scaling_summary` reduces
the grid to the cost/tail pareto front plus the two pinned comparisons the
acceptance tests assert:

* at equal node count, **affinity placement beats consistent-hash on p99**
  (hash ignores bitstream identity, so nodes host mixed accelerators and
  thrash on reconfiguration — the cluster-level replay of the PR 5
  FCFS-vs-affinity result);
* **autoscaling tracks the load ramp**, matching the static fleet's
  peak-epoch goodput while spending fewer node-microseconds overall.

Cells are module-level and seed-deterministic (picklable for the runner's
process executor, which is where fleet cells run in parallel).  This
module must not import :mod:`repro.api` — the registry imports *us*.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.fleet.autoscaler import AutoscalerConfig
from repro.fleet.cluster import FleetConfig, run_fleet
from repro.serve.traffic import ClientPopulation, TenantSpec

DEFAULT_SEED = 2023

#: The fleet tenant mix: eight open-loop services over the four catalog
#: bitstreams, heavier on the cheap accelerators (realistic skew).  All
#: Poisson so the placement axis — not arrival shape — drives the result.
FLEET_TENANTS: Tuple[TenantSpec, ...] = (
    TenantSpec(name="search", accelerator="popcount", weight=0.22, slo_ns=40_000.0),
    TenantSpec(name="feed", accelerator="popcount", weight=0.14, slo_ns=40_000.0),
    TenantSpec(name="rank", accelerator="sort64", weight=0.16, slo_ns=60_000.0),
    TenantSpec(name="dedup", accelerator="sort64", weight=0.10, slo_ns=60_000.0),
    TenantSpec(name="geo", accelerator="tangent", weight=0.13, slo_ns=40_000.0),
    TenantSpec(name="render", accelerator="tangent", weight=0.09, slo_ns=40_000.0),
    TenantSpec(name="routes", accelerator="dijkstra", weight=0.10, slo_ns=80_000.0),
    TenantSpec(name="social", accelerator="dijkstra", weight=0.06, slo_ns=80_000.0),
)

#: Per-epoch multipliers on the thinned rate: a ramp up to the peak and
#: back down — the shape the autoscaler earns its keep on.
DEFAULT_RATE_PROFILE: Tuple[float, ...] = (0.25, 0.5, 1.0, 1.0, 0.5, 0.25)


def fleet_scaling_cell(
    placement: str,
    nodes: int,
    autoscale: bool,
    policy: str = "fcfs",
    clients: int = 1_000_000,
    think_ms: float = 50.0,
    thin_factor: float = 50.0,
    epochs: int = len(DEFAULT_RATE_PROFILE),
    epoch_us: float = 400.0,
    seed: int = DEFAULT_SEED,
    tracer: Optional[Any] = None,
) -> List[Dict[str, Any]]:
    population = ClientPopulation(clients=clients, think_ms=think_ms,
                                  thin_factor=thin_factor)
    profile = DEFAULT_RATE_PROFILE
    if epochs != len(profile):
        # Resample the ramp onto the requested epoch count.
        profile = tuple(
            DEFAULT_RATE_PROFILE[min(
                int(index * len(DEFAULT_RATE_PROFILE) / epochs),
                len(DEFAULT_RATE_PROFILE) - 1)]
            for index in range(epochs))
    config = FleetConfig(
        nodes=nodes,
        placement=placement,
        policy=policy,
        epochs=epochs,
        epoch_us=epoch_us,
        # Epochs are coarse (one scaling decision per epoch), so the grow
        # watermark sits low — by the time a queue sustains 0.75 deep for a
        # whole epoch the next ramp step will bury the node.
        autoscaler=AutoscalerConfig(
            enabled=autoscale, min_nodes=1, max_nodes=nodes,
            up_queue_depth=0.75, cooldown_epochs=0),
    )
    outcome = run_fleet(
        config, FLEET_TENANTS, total_rate_rps=population.thinned_rps,
        rate_profile=profile, seed=seed,
        extra_columns={
            "placement": placement,
            "nodes": nodes,
            "autoscale": autoscale,
            "policy": policy,
            "clients": clients,
            "offered_mrps": population.offered_rps / 1e6,
            "thinned_krps": population.thinned_rps / 1e3,
        },
        tracer=tracer,
    )
    for row in outcome.rows:
        row["scale_events"] = len(outcome.autoscaler.events)
    return outcome.rows


def fleet_scaling_summary(rows: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Reduce the grid to pinned comparisons and the cost/tail pareto front."""
    aggregates = [row for row in rows if row.get("tenant") == "__all__"]
    summary: Dict[str, Any] = {}

    static = [row for row in aggregates if not row.get("autoscale")]
    for count in sorted({row["nodes"] for row in static}):
        cell = {row["placement"]: row for row in static
                if row["nodes"] == count}
        hash_row, affinity = cell.get("hash"), cell.get("affinity")
        if hash_row and affinity and hash_row["p99_latency_us"] > 0:
            summary[f"affinity_p99_vs_hash[{count}n]"] = (
                affinity["p99_latency_us"] / hash_row["p99_latency_us"])
        if hash_row and affinity and hash_row["goodput_krps"] > 0:
            summary[f"affinity_goodput_vs_hash[{count}n]"] = (
                affinity["goodput_krps"] / hash_row["goodput_krps"])

    for row in aggregates:
        if not row.get("autoscale"):
            continue
        peer = next((r for r in static
                     if r["nodes"] == row["nodes"]
                     and r["placement"] == row["placement"]), None)
        if peer is None or peer["node_us"] <= 0 or peer["goodput_krps"] <= 0:
            continue
        label = f"{row['placement']}@{row['nodes']}n"
        summary[f"autoscale_node_us_vs_static[{label}]"] = (
            row["node_us"] / peer["node_us"])
        summary[f"autoscale_goodput_vs_static[{label}]"] = (
            row["goodput_krps"] / peer["goodput_krps"])

    front = pareto_front(aggregates)
    summary["pareto_front"] = [
        f"{row['placement']}@{row['nodes']}n"
        f"{'+as' if row.get('autoscale') else ''}:"
        f" {row['node_us']:.0f}us, p99 {row['p99_latency_us']:.1f}us,"
        f" {row['goodput_krps']:.1f}krps"
        for row in front
    ]
    return summary


def pareto_front(aggregates: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Configurations not dominated on (node_us ↓, p99 ↓, goodput ↑).

    Sorted by cost so the front reads as a curve.  A point is dominated
    when some other point is no worse on all three axes and strictly
    better on at least one.
    """
    def dominates(a: Dict[str, Any], b: Dict[str, Any]) -> bool:
        no_worse = (a["node_us"] <= b["node_us"]
                    and a["p99_latency_us"] <= b["p99_latency_us"]
                    and a["goodput_krps"] >= b["goodput_krps"])
        better = (a["node_us"] < b["node_us"]
                  or a["p99_latency_us"] < b["p99_latency_us"]
                  or a["goodput_krps"] > b["goodput_krps"])
        return no_worse and better

    front = [row for row in aggregates
             if not any(dominates(other, row) for other in aggregates
                        if other is not row)]
    return sorted(front, key=lambda row: (row["node_us"],
                                          row["p99_latency_us"]))
