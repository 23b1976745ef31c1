"""The serving experiments: ``serve_policy`` and ``serve_energy``.

``serve_policy`` sweeps scheduling policy x offered arrival rate x tenant
mix and reports per-tenant tail latency (p50/p95/p99), goodput (completions
*within SLO* per second), shed counts and the fabric's reconfiguration
overhead.  It is the experiment that shows the reconfiguration-affinity
policy beating FCFS on p99 and goodput once two tenants contend for one
fabric with different bitstreams.

``serve_energy`` reruns a single-fabric deployment with the
:mod:`repro.power` accounting attached and reports energy per served
request, average power, and the energy share lost to reconfiguration —
the serving counterpart of the ``power_efficiency`` experiment.

Cells are module-level and seed-deterministic (picklable for the
process-pool executor, cacheable by the runner).  This module must not
import anything from :mod:`repro.api` — the registry imports *us*; the
:class:`~repro.api.spec.ExperimentSpec` objects wrapping these cells are
built in :mod:`repro.api.registry`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.serve.deployment import Deployment
from repro.serve.scheduler import ServeConfig
from repro.serve.traffic import TenantSpec, build_sources

DEFAULT_SEED = 2023

#: Named tenant mixes for the sweep grids.  ``duo`` is the canonical
#: reconfiguration-pressure mix: two equal open-loop tenants whose
#: accelerators need different bitstreams on the same fabric.  ``quad``
#: adds a bursty batch tenant and a high-priority closed-loop tenant.
TENANT_MIXES: Dict[str, Tuple[TenantSpec, ...]] = {
    "mono": (
        TenantSpec(name="alpha", accelerator="popcount", pattern="poisson",
                   weight=1.0, slo_ns=25_000.0),
    ),
    "duo": (
        TenantSpec(name="alpha", accelerator="popcount", pattern="poisson",
                   weight=0.5, slo_ns=30_000.0),
        TenantSpec(name="beta", accelerator="sort64", pattern="poisson",
                   weight=0.5, slo_ns=30_000.0),
    ),
    "quad": (
        TenantSpec(name="alpha", accelerator="popcount", pattern="poisson",
                   weight=0.4, slo_ns=30_000.0),
        TenantSpec(name="beta", accelerator="sort64", pattern="bursty",
                   weight=0.4, slo_ns=50_000.0),
        TenantSpec(name="gamma", accelerator="tangent", pattern="diurnal",
                   weight=0.2, slo_ns=50_000.0),
        TenantSpec(name="delta", accelerator="dijkstra", pattern="closed",
                   clients=2, think_ns=80_000.0, priority=1, slo_ns=100_000.0),
    ),
}

MIX_NAMES: Tuple[str, ...] = tuple(TENANT_MIXES)


def get_mix(name: str) -> Tuple[TenantSpec, ...]:
    try:
        return TENANT_MIXES[name]
    except KeyError:
        known = ", ".join(TENANT_MIXES)
        raise KeyError(f"unknown tenant mix {name!r}; known mixes: {known}") from None


# --------------------------------------------------------------------------- #
# The serve driver shared by both experiments here, the reconfig and obs
# experiments and bench/'s serving workloads
# --------------------------------------------------------------------------- #
def run_serve(
    policy: str,
    tenant_mix: str = "duo",
    arrival_rate_krps: float = 150.0,
    duration_us: float = 2_000.0,
    num_fabrics: int = 1,
    queue_capacity: Optional[int] = 64,
    patience_ns: float = 100_000.0,
    seed: int = DEFAULT_SEED,
    power: bool = False,
    chaos: Optional[Any] = None,
    regions: int = 1,
    region_fabric_scale: float = 1.0,
    tracer: Optional[Any] = None,
    telemetry_window_us: Optional[float] = None,
) -> Dict[str, Any]:
    """Run one serving deployment to completion; returns rows + aggregates.

    The run is *open*: traffic stops arriving after ``duration_us`` of
    simulated time, the scheduler then drains its queue, and the measured
    window covers everything from the first arrival opportunity to the last
    completion — so an overloaded policy pays for its backlog in the
    goodput denominator instead of hiding it.

    ``chaos`` (a :class:`repro.chaos.ChaosConfig`) arms the run's fault
    schedule against the deployment.  Fault draws for a serve run use the
    schedule's ``(epoch=0, node=0)`` stream over the traffic window.  A
    ``chaos`` whose schedule is empty injects nothing and the run stays
    bit-identical to a plain one (pinned by ``tests/test_chaos.py``).

    ``regions > 1`` switches every fabric to the region-granular path
    (:mod:`repro.reconfig`): co-located designs, span hot swaps, LRU
    eviction.  ``regions=1`` (the default) takes the whole-fabric path and
    is bit-identical to a build without region support — the region
    columns below only exist when regions > 1, same contract as the chaos
    columns.

    ``tracer`` (a :class:`repro.obs.Tracer`) attaches the observability
    hooks: per-request lifecycle spans plus chaos events, exportable as a
    Chrome trace and decomposable with :mod:`repro.obs.decompose`.  The
    default ``None`` records nothing and is bit-identical to a build
    without tracing (pinned by ``tests/test_obs.py``).

    ``telemetry_window_us`` attaches a
    :class:`repro.obs.monitor.TelemetryMonitor` with that tumbling
    window; the outcome gains a ``"telemetry"``
    :class:`~repro.obs.monitor.TelemetryStream`.  Windows close lazily
    inside the SLO hooks (no sim events), so even a monitor-on run is
    bit-identical to a monitor-off one (pinned by ``tests/test_alerts.py``).
    """
    if power and num_fabrics != 1:
        raise ValueError(
            "energy accounting supports exactly one fabric per deployment "
            f"(the energy columns describe one eFPGA clock domain), got "
            f"{num_fabrics}")
    tenants = get_mix(tenant_mix)
    config = ServeConfig(
        policy=policy,
        num_fabrics=num_fabrics,
        queue_capacity=queue_capacity,
        patience_ns=patience_ns,
        accelerators=tuple(dict.fromkeys(t.accelerator for t in tenants)),
        regions=regions,
        region_fabric_scale=region_fabric_scale,
    )
    duration_ns = duration_us * 1000.0
    deployment = Deployment(
        config, tracer=tracer, telemetry_window_us=telemetry_window_us,
        power=power,
        chaos_events=None if chaos is None else chaos.schedule.events(
            epoch=0, node_id=0, fabrics=num_fabrics, epoch_ns=duration_ns),
        recovery=chaos is None or chaos.recovery)
    scheduler, monitor = deployment.scheduler, deployment.monitor
    sources = build_sources(
        deployment.sim, tenants, scheduler.submit,
        total_rate_rps=arrival_rate_krps * 1000.0,
        duration_ns=duration_ns, seed=seed,
    )
    elapsed_ns = deployment.run(
        [process for source in sources for process in source.start()],
        duration_ns)

    totals = scheduler.fabric_totals()
    busy_us = totals["service_us_total"] + totals["reconfig_us_total"]
    columns = dict(totals, reconfig_overhead=(
        totals["reconfig_us_total"] / busy_us if busy_us > 0 else 0.0),
        elapsed_us=elapsed_ns / 1000.0)
    if regions > 1:
        columns.update(scheduler.region_totals(),
                       region_fabric_scale=region_fabric_scale)
    rows = monitor.tenant_rows(elapsed_ns, extra={
        "policy": policy,
        "tenant_mix": tenant_mix,
        "arrival_rate_krps": arrival_rate_krps,
        "num_fabrics": num_fabrics,
    })
    for row in rows:
        row.update(columns)
    energy = deployment.energy[0] if power else None
    if energy is not None:
        _add_energy_columns(rows[-1], energy)
    if monitor.faults > 0:
        # Deployment-wide fault counters; columns only exist once a fault
        # actually fired, so fault-free goldens never change shape.  The
        # per-request fault columns (fault_shed, replayed) are the tenant
        # accounts' own.
        chaos_totals = scheduler.chaos_totals()
        for row in rows:
            row.update(chaos_totals)
    telemetry = deployment.telemetry
    return {"rows": rows, "scheduler": scheduler, "monitor": monitor,
            "energy": energy, "elapsed_ns": elapsed_ns, "tracer": tracer,
            "metrics": deployment.metrics(),
            "telemetry": telemetry.stream if telemetry is not None else None,
            "chaos": scheduler.chaos_totals() if chaos is not None else None}


def _add_energy_columns(row: Dict[str, Any], energy) -> None:
    """Energy is deployment-wide, so only the ``__all__`` row carries it."""
    window_nj = (energy.last_window_pj or 0.0) / 1000.0
    breakdown = energy.last_window_breakdown
    completed = row["completed"]
    row.update(
        energy_nj=window_nj,
        energy_per_request_nj=window_nj / completed if completed else 0.0,
        avg_power_mw=energy.last_window_avg_power_mw,
        e_fpga_nj=breakdown.get("fpga", 0.0) / 1000.0,
        e_static_nj=breakdown.get("static", 0.0) / 1000.0,
        e_clock_nj=breakdown.get("clock", 0.0) / 1000.0,
    )


# --------------------------------------------------------------------------- #
# Experiment cells
# --------------------------------------------------------------------------- #
def serve_policy_cell(policy: str, arrival_rate_krps: float, tenant_mix: str,
                      duration_us: float = 2_000.0, num_fabrics: int = 1,
                      queue_capacity: int = 64, patience_ns: float = 100_000.0,
                      seed: int = DEFAULT_SEED) -> List[Dict[str, Any]]:
    outcome = run_serve(
        policy, tenant_mix=tenant_mix, arrival_rate_krps=arrival_rate_krps,
        duration_us=duration_us, num_fabrics=num_fabrics,
        queue_capacity=queue_capacity, patience_ns=patience_ns, seed=seed,
    )
    return outcome["rows"]


def serve_policy_summary(rows: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Compare policies on the aggregate rows, per (mix, rate) point."""
    aggregates = [row for row in rows if row.get("tenant") == "__all__"]
    summary: Dict[str, Any] = {}
    points = sorted({(row["tenant_mix"], row["arrival_rate_krps"])
                     for row in aggregates})
    for mix, rate in points:
        cell = {row["policy"]: row for row in aggregates
                if row["tenant_mix"] == mix and row["arrival_rate_krps"] == rate}
        if not cell:
            continue
        label = f"{mix}@{rate:g}krps"
        best = min(cell.values(), key=lambda row: row["p99_latency_us"])
        summary[f"best_p99_policy[{label}]"] = best["policy"]
        fcfs, affinity = cell.get("fcfs"), cell.get("affinity")
        if fcfs and affinity and fcfs["p99_latency_us"] > 0:
            summary[f"affinity_p99_vs_fcfs[{label}]"] = (
                affinity["p99_latency_us"] / fcfs["p99_latency_us"])
        if fcfs and affinity and fcfs["goodput_krps"] > 0:
            summary[f"affinity_goodput_vs_fcfs[{label}]"] = (
                affinity["goodput_krps"] / fcfs["goodput_krps"])
    return summary


def serve_energy_cell(policy: str, arrival_rate_krps: float = 150.0,
                      tenant_mix: str = "duo", duration_us: float = 2_000.0,
                      queue_capacity: int = 64, patience_ns: float = 100_000.0,
                      seed: int = DEFAULT_SEED) -> List[Dict[str, Any]]:
    outcome = run_serve(
        policy, tenant_mix=tenant_mix, arrival_rate_krps=arrival_rate_krps,
        duration_us=duration_us, num_fabrics=1,
        queue_capacity=queue_capacity, patience_ns=patience_ns, seed=seed,
        power=True,
    )
    # Energy is deployment-wide, so the energy experiment reports only the
    # aggregate row per cell.
    return [row for row in outcome["rows"] if row["tenant"] == "__all__"]


def serve_energy_summary(rows: List[Dict[str, Any]]) -> Dict[str, Any]:
    usable = [row for row in rows if row.get("energy_per_request_nj", 0.0) > 0]
    if not usable:
        return {}
    best = min(usable, key=lambda row: row["energy_per_request_nj"])
    return {
        "least_energy_per_request_policy": best["policy"],
        "least_energy_per_request_nj": best["energy_per_request_nj"],
    }
