"""The ``latency_decomposition`` experiment.

``latency_decomposition`` answers the question the aggregate serve rows
cannot: *where does a request's latency actually go?*  Each cell runs one
traced serving deployment (policy x region count x background fault rate
over the canonical ``duo`` mix), folds the trace through
:mod:`repro.obs.decompose`, and reports per-tenant stage shares
(queue / program / retune / service / blackout — summing to 1.0 by
construction) next to the full latency tail.  The pinned acceptance
point (``affinity``, fault-free) cross-checks the trace-derived program
share against the scheduler's own ``reconfig_overhead`` accounting — two
independent code paths agreeing on the same number.

Cells are module-level and seed-deterministic (picklable for the
process-pool executor).  This module must not import :mod:`repro.api` —
the registry imports *us*.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.chaos.inject import ChaosConfig
from repro.chaos.schedule import FaultSchedule, noise_specs
from repro.obs.decompose import ALL_TENANTS, STAGES, decompose_rows
from repro.obs.trace import Tracer
from repro.serve.experiments import DEFAULT_SEED, run_serve

#: The canonical decomposition point: the PR 5 serving sweep's contended
#: duo-mix cell, where the affinity-vs-FCFS story lives.
DECOMPOSE_MIX = "duo"
DECOMPOSE_RATE_KRPS = 250.0
DECOMPOSE_DURATION_US = 2_000.0


def noise_schedule(fault_rate: float, seed: int = DEFAULT_SEED) -> FaultSchedule:
    """Background-noise-only chaos: rate-scaled SEUs plus self-repairing
    link faults, *without* the fleet experiment's pinned node kill (a
    single-deployment serve run has nowhere to fail over to)."""
    if fault_rate <= 0:
        raise ValueError(f"fault_rate must be positive, got {fault_rate}")
    return FaultSchedule(seed=seed, specs=tuple(noise_specs(fault_rate).values()))


def latency_decomposition_cell(
    policy: str,
    regions: int = 1,
    fault_rate: float = 0.0,
    tenant_mix: str = DECOMPOSE_MIX,
    arrival_rate_krps: float = DECOMPOSE_RATE_KRPS,
    duration_us: float = DECOMPOSE_DURATION_US,
    seed: int = DEFAULT_SEED,
    tracer: Optional[Tracer] = None,
) -> List[Dict[str, Any]]:
    """One traced serve run -> per-tenant stage-share rows.

    ``fault_rate == 0`` runs with no chaos armed at all, so the fault-free
    decomposition is taken from exactly the run the serve goldens pin.
    The run records into ``tracer`` when one is given (``repro trace``),
    else into a fresh one.
    """
    tracer = tracer if tracer is not None else Tracer()
    chaos = (ChaosConfig(noise_schedule(fault_rate, seed))
             if fault_rate > 0 else None)
    outcome = run_serve(
        policy, tenant_mix=tenant_mix, arrival_rate_krps=arrival_rate_krps,
        duration_us=duration_us, seed=seed, chaos=chaos, regions=regions,
        tracer=tracer,
    )
    aggregate = next(row for row in outcome["rows"]
                     if row["tenant"] == ALL_TENANTS)
    context = {
        "policy": policy,
        "regions": regions,
        "fault_rate": fault_rate,
        "tenant_mix": tenant_mix,
        "arrival_rate_krps": arrival_rate_krps,
    }
    rows = []
    for stage_row in decompose_rows(tracer):
        row = dict(context)
        row.update(stage_row)
        if row["tenant"] == ALL_TENANTS:
            # The scheduler's own accounting for the same run — lets the
            # summary (and the acceptance test) cross-check the
            # trace-derived program share against an independent path.
            row["reconfig_overhead"] = aggregate["reconfig_overhead"]
            row["completed"] = aggregate["completed"]
        rows.append(row)
    return rows


def latency_decomposition_summary(rows: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Headline stage shares and tails per (policy, regions, fault_rate)."""
    aggregates = [row for row in rows if row.get("tenant") == ALL_TENANTS]
    summary: Dict[str, Any] = {}
    points: List[Tuple[str, int, float]] = sorted(
        {(row["policy"], row["regions"], row["fault_rate"])
         for row in aggregates})
    for policy, regions, fault_rate in points:
        row = next(r for r in aggregates
                   if (r["policy"], r["regions"], r["fault_rate"])
                   == (policy, regions, fault_rate))
        label = f"{policy}/r{regions}@rate{fault_rate:g}"
        for stage in STAGES:
            summary[f"{stage}_share[{label}]"] = row[f"{stage}_share"]
        summary[f"p999_latency_us[{label}]"] = row["p999_latency_us"]
        summary[f"share_under_2x_p50[{label}]"] = row["share_under_2x_p50"]
    return summary
