"""The ``reconfig`` experiment: regions x policy x tenant mix x scale.

Sweeps the region-grid size (1 = the whole-fabric baseline), scheduling
policy, tenant mix and grid provisioning scale, reporting the
reconfiguration-overhead fraction, fragmentation, eviction counts and the
usual tail-latency/goodput columns.  The summary normalizes every
region-granular point against the whole-fabric baseline of the same
policy/mix — the pinned acceptance is ``affinity`` on ``duo`` with 4
regions at scale 1: overhead <= 0.5x and p99 <= 0.8x of whole-fabric.

Cells are module-level and seed-deterministic (picklable for the
process-pool executor).  This module must not import anything from
:mod:`repro.api` — the registry imports *us*.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.serve.experiments import DEFAULT_SEED, run_serve

#: Region columns merged into every row so the sweep table is rectangular
#: (``run_serve`` itself only emits them when regions > 1 — the default-off
#: contract pins regions=1 rows to the pre-region golden shape).
_REGION_DEFAULTS: Dict[str, Any] = {
    "regions": 1,
    "region_capacity_tiles": 0,
    "region_programmings": 0,
    "regions_programmed": 0,
    "region_evictions": 0,
    "fragmentation_mean": 0.0,
}


def reconfig_cell(regions: int, policy: str, tenant_mix: str,
                  fabric_scale: float = 1.0,
                  arrival_rate_krps: float = 250.0,
                  duration_us: float = 2_000.0,
                  queue_capacity: int = 64,
                  patience_ns: float = 100_000.0,
                  seed: int = DEFAULT_SEED,
                  tracer: Optional[Any] = None) -> List[Dict[str, Any]]:
    outcome = run_serve(
        policy, tenant_mix=tenant_mix, arrival_rate_krps=arrival_rate_krps,
        duration_us=duration_us, num_fabrics=1,
        queue_capacity=queue_capacity, patience_ns=patience_ns, seed=seed,
        regions=regions, region_fabric_scale=fabric_scale, tracer=tracer,
    )
    rows = outcome["rows"]
    for row in rows:
        for column, default in _REGION_DEFAULTS.items():
            row.setdefault(column, default)
        row["region_fabric_scale"] = fabric_scale
    return rows


def reconfig_summary(rows: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Normalize each region-granular point against its whole-fabric twin."""
    aggregates = [row for row in rows if row.get("tenant") == "__all__"]
    baselines = {
        (row["policy"], row["tenant_mix"]): row
        for row in aggregates
        if row["regions"] == 1 and row["region_fabric_scale"] == 1.0
    }
    summary: Dict[str, Any] = {}
    for row in sorted(
            (row for row in aggregates if row["regions"] > 1),
            key=lambda row: (row["policy"], row["tenant_mix"],
                             row["regions"], row["region_fabric_scale"])):
        base = baselines.get((row["policy"], row["tenant_mix"]))
        if base is None:
            continue
        label = (f"{row['policy']}/{row['tenant_mix']}"
                 f"@{row['regions']}r/s{row['region_fabric_scale']:g}")
        if base["reconfig_overhead"] > 0:
            summary[f"overhead_vs_whole[{label}]"] = (
                row["reconfig_overhead"] / base["reconfig_overhead"])
        if base["p99_latency_us"] > 0:
            summary[f"p99_vs_whole[{label}]"] = (
                row["p99_latency_us"] / base["p99_latency_us"])
        if base["goodput_krps"] > 0:
            summary[f"goodput_vs_whole[{label}]"] = (
                row["goodput_krps"] / base["goodput_krps"])
        summary[f"evictions[{label}]"] = row["region_evictions"]
        summary[f"fragmentation[{label}]"] = row["fragmentation_mean"]
    return summary
