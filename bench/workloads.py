"""The benchmark's four workloads: what each runs, at which size, and how
its outputs are checked.

Each workload is a function of ``(seed, size)``.  ``size`` is ``prime``
(the minimal call that ends set-up), ``full`` (one measured repetition)
or ``smoke`` (tiny, for the benchmark's own tests).  The seed reaches the
program only as the ``seed`` argument of its public entry points.

Every ``repro`` import happens inside a function, so that a child process
can start its set-up clock before the first one.  Entry points are looked
up on their modules at call time, so the traced run's wrappers see them.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any, Callable, Dict, List, NamedTuple, Tuple

#: Share sums may differ from 1 by float rounding only.
SHARE_TOLERANCE = 1e-9


class Result(NamedTuple):
    """What one repetition produced, reduced to what the benchmark reads."""

    #: Canonical output whose sha256 must not change between repetitions,
    #: processes, or traced and untraced runs.
    digest_material: Any
    #: Completed work items: simulated requests, or figure cells.
    items: int
    #: Simulated end-to-end outputs (``common.SIM_OUTPUTS``).
    sim: Dict[str, float]
    #: Modelled per-layer counters (the ``sim_`` names of ``common.PER_LAYER``).
    counters: Dict[str, float]
    #: Failed output checks, one message each.
    failures: List[str]
    #: Lines printed beside the metrics for a reader.
    notes: List[str]


class Workload(NamedTuple):
    name: str
    why: str
    run: Callable[[int, str], Any]
    reduce: Callable[[Any], Result]
    #: Layers the traced run must see called at least once.
    layers: Tuple[str, ...]


def digest(material: Any) -> str:
    """sha256 of the canonical JSON of ``material``."""
    text = json.dumps(material, sort_keys=True, separators=(",", ":"),
                      default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# --------------------------------------------------------------------------- #
# Shared checks and reductions for serving rows
# --------------------------------------------------------------------------- #
def _conservation_failures(rows: List[Dict[str, Any]]) -> List[str]:
    failures = []
    for row in rows:
        tenant = row["tenant"]
        if row["submitted"] != row["completed"] + row["shed"]:
            failures.append(
                f"{tenant}: submitted {row['submitted']} != completed "
                f"{row['completed']} + shed {row['shed']}")
        if row["completed"] <= 0:
            failures.append(f"{tenant}: completed nothing")
    return failures


def _aggregate(rows: List[Dict[str, Any]]) -> Dict[str, Any]:
    return next(row for row in rows if row["tenant"] == "__all__")


def _serving_sim(total: Dict[str, Any]) -> Dict[str, float]:
    return {
        "sim_p50_us": total["p50_latency_us"],
        "sim_p999_us": total["p999_latency_us"],
        "sim_goodput_krps": total["goodput_krps"],
        "sim_shed_frac": total["shed"] / total["submitted"],
    }


#: Modelled per-layer counter -> column of the ``__all__`` row.  Columns a
#: workload's rows lack (regions, chaos, fleet) read as 0.
COUNTER_COLUMNS = {
    "serve.scheduler.sim_queue_wait_us_mean": "mean_queue_wait_us",
    "serve.scheduler.sim_reconfig_overhead": "reconfig_overhead",
    "serve.scheduler.sim_reconfigurations": "reconfigurations",
    "core.control_hub.sim_program_us": "reconfig_us_total",
    "reconfig.placement.sim_evictions": "region_evictions",
    "reconfig.placement.sim_fragmentation_mean": "fragmentation_mean",
    "chaos.sim_faults_injected": "faults_injected",
    "chaos.sim_replayed": "replayed",
    "fleet.cluster.sim_spare_promotions": "spare_promotions",
    "fleet.cluster.sim_migrations": "migrations",
}


def _scheduler_counters(total: Dict[str, Any]) -> Dict[str, float]:
    return {name: total[column] for name, column in COUNTER_COLUMNS.items()
            if column in total}


# --------------------------------------------------------------------------- #
# serve_steady
# --------------------------------------------------------------------------- #
STEADY_DURATION_US = {"prime": 1.0, "smoke": 2_000.0, "full": 200_000.0}


def run_serve_steady(seed: int, size: str) -> Dict[str, Any]:
    from repro.serve import experiments

    return experiments.run_serve(
        "affinity", tenant_mix="duo", arrival_rate_krps=250.0,
        duration_us=STEADY_DURATION_US[size], seed=seed)


def reduce_serve_steady(outcome: Dict[str, Any]) -> Result:
    rows = outcome["rows"]
    total = _aggregate(rows)
    return Result(
        digest_material={"rows": rows,
                         "metrics": outcome["metrics"].as_dict()},
        items=total["completed"], sim=_serving_sim(total),
        counters=_scheduler_counters(total),
        failures=_conservation_failures(rows), notes=[])


# --------------------------------------------------------------------------- #
# serve_regions_observed
# --------------------------------------------------------------------------- #
REGIONS_DURATION_US = {"prime": 1.0, "smoke": 2_000.0, "full": 150_000.0}


def run_serve_regions_observed(seed: int, size: str):
    from repro.obs import decompose
    from repro.obs.trace import Tracer
    from repro.serve import experiments

    tracer = Tracer()
    outcome = experiments.run_serve(
        "affinity", tenant_mix="quad", arrival_rate_krps=300.0,
        duration_us=REGIONS_DURATION_US[size], regions=4, tracer=tracer,
        telemetry_window_us=100.0, seed=seed)
    stages = decompose.decompose_rows(tracer)
    return outcome, stages, tracer.to_json()


def reduce_serve_regions_observed(result) -> Result:
    from repro.obs.decompose import STAGES

    outcome, stages, trace_json = result
    rows = outcome["rows"]
    total = _aggregate(rows)
    failures = _conservation_failures(rows)
    for row in stages:
        shares = sum(row[f"{stage}_share"] for stage in STAGES)
        if abs(shares - 1.0) > SHARE_TOLERANCE:
            failures.append(
                f"decomposition {row['tenant']}: stage shares sum to {shares!r}")
    material = {
        "rows": rows,
        "stages": stages,
        "metrics": outcome["metrics"].as_dict(),
        "telemetry": outcome["telemetry"].as_dict(),
        "trace_sha256": hashlib.sha256(trace_json.encode("utf-8")).hexdigest(),
    }
    return Result(material, total["completed"], _serving_sim(total),
                  _scheduler_counters(total), failures, [])


# --------------------------------------------------------------------------- #
# fleet_chaos
# --------------------------------------------------------------------------- #
FLEET_RATE_PROFILE = (0.5, 0.75, 1.0, 1.0, 1.0, 1.0, 0.75, 0.5, 0.5, 0.5)
#: (epochs, epoch_us) per size.
FLEET_EPOCHS = {"prime": (1, 1.0), "smoke": (3, 1_500.0), "full": (10, 3_000.0)}


def run_fleet_chaos(seed: int, size: str):
    from repro.chaos import ChaosConfig
    from repro.chaos.experiments import build_schedule
    from repro.fleet import cluster
    from repro.fleet.experiments import FLEET_TENANTS

    epochs, epoch_us = FLEET_EPOCHS[size]
    config = cluster.FleetConfig(
        nodes=6, spares=1, placement="affinity", policy="affinity",
        epochs=epochs, epoch_us=epoch_us, node_executor="serial",
        chaos=ChaosConfig(build_schedule(2.0, seed), recovery=True),
        chaos_control="alerts", telemetry_window_us=100.0)
    return cluster.run_fleet(config, FLEET_TENANTS, total_rate_rps=900e3,
                             rate_profile=FLEET_RATE_PROFILE[:epochs],
                             seed=seed)


def reduce_fleet_chaos(outcome) -> Result:
    rows = outcome.rows
    total = _aggregate(rows)
    failures = _conservation_failures(rows)
    if total["faults_injected"] < 1:
        failures.append("chaos injected no fault")
    if total["spare_promotions"] < 1:
        failures.append("no spare was promoted")
    counters = _scheduler_counters(total)
    counters["obs.alerts.sim_fired"] = sum(
        1 for event in outcome.alerts if event.event == "fired")
    material = {
        "rows": rows,
        "chaos": outcome.chaos,
        "alerts": [event.as_dict() for event in outcome.alerts],
        "metrics": outcome.metrics.as_dict(),
        "telemetry": outcome.telemetry.as_dict(),
    }
    return Result(material, total["completed"], _serving_sim(total), counters,
                  failures, [])


# --------------------------------------------------------------------------- #
# paper_figs
# --------------------------------------------------------------------------- #
FIGURES = ("fig9", "fig10", "fig11", "fig12")

#: Axis overrides of the smoke size: one cheap cell per figure.
SMOKE_AXES: Dict[str, Dict[str, Tuple[Any, ...]]] = {
    "fig9": {"mechanism": ("shadow_reg",), "fpga_mhz": (100.0,)},
    "fig10": {"mechanism": ("shadow_reg",), "fpga_mhz": (100.0,)},
    "fig11": {"mechanism": ("shadow_reg",), "operation": ("write",),
              "num_processors": (2,)},
    "fig12": {"benchmark": ("sort/32",)},
}


def run_paper_figs(seed: int, size: str):
    from repro.api import registry, runner

    paper = runner.Runner(executor="serial", seed=seed)
    if size == "prime":
        spec = registry.get_experiment("fig9")
        first = spec.cells({})[0]
        return {"fig9": paper.run("fig9", use_cache=False,
                                  **{axis: (first[axis],) for axis in spec.grid})}
    axes = SMOKE_AXES if size == "smoke" else {}
    return {figure: paper.run(figure, use_cache=False, **axes.get(figure, {}))
            for figure in FIGURES}


def paper_error(results) -> float:
    """Geomean over rows with a paper reference of max(m/p, p/m), minus 1:
    the ``fig9`` round trips and the ``fig12`` Duet and FPSoC speedups."""
    pairs = [(row["measured_roundtrip_ns"], row["paper_roundtrip_ns"])
             for row in results["fig9"].rows
             if row["paper_roundtrip_ns"] is not None]
    for row in results["fig12"].rows:
        for system in ("duet", "fpsoc"):
            reference = row[f"paper_{system}_speedup"]
            if reference is not None:
                pairs.append((row[f"{system}_speedup"], reference))
    logs = [abs(math.log(measured / reference)) for measured, reference in pairs]
    return math.exp(sum(logs) / len(logs)) - 1.0


def reduce_paper_figs(results) -> Result:
    fig12 = results["fig12"]
    failures = [f"fig12 {row['benchmark']}: outputs not correct"
                for row in fig12.rows if not row["all_correct"]]
    summary = fig12.summary
    paper = summary["paper_geomean_speedup"]
    notes = [f"fig12 geomean speedup: duet {summary['duet_geomean_speedup']:.2f} "
             f"(paper {paper['duet']:.2f}), fpsoc "
             f"{summary['fpsoc_geomean_speedup']:.2f} (paper {paper['fpsoc']:.2f})"]
    material = {figure: {"rows": result.rows, "summary": result.summary}
                for figure, result in results.items()}
    items = sum(len(result.rows) for result in results.values())
    return Result(material, items, {"sim_paper_err": paper_error(results)},
                  {}, failures, notes)


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
_SERVE_LAYERS = ("sim.kernel.run", "serve.scheduler.construct",
                 "serve.catalog.materialize", "serve.scheduler.submit",
                 "serve.slo.hook")

WORKLOADS: Dict[str, Workload] = {workload.name: workload for workload in (
    Workload(
        "serve_steady",
        "one whole-fabric scheduler with every hook off serving ~50K "
        "requests: the steady serving hot path; bitstream set-up is ~6% of wall",
        run_serve_steady, reduce_serve_steady, _SERVE_LAYERS),
    Workload(
        "serve_regions_observed",
        "~49K requests on 4 regions, quad mix, tracer and telemetry on: "
        "allocator, partial images, every lifecycle hook fanning out; region plans",
        run_serve_regions_observed, reduce_serve_regions_observed,
        _SERVE_LAYERS + ("reconfig.plan.build", "reconfig.placement.place",
                         "obs.trace.record", "obs.trace.export",
                         "obs.monitor.tick", "obs.decompose.rows")),
    Workload(
        "fleet_chaos",
        "6 nodes + spare over 10 epochs under faults with alert-driven "
        "failover: ~60 scheduler builds over 4 designs, heavy input sharing",
        run_fleet_chaos, reduce_fleet_chaos,
        _SERVE_LAYERS + ("fleet.cluster.run", "fleet.node.simulate",
                         "fleet.router.place", "obs.alerts.observe",
                         "obs.metrics.merge", "obs.monitor.tick")),
    Workload(
        "paper_figs",
        "the 81 cells of fig9-fig12 on the cycle-level Duet/Dolly model; "
        "touches no serve, fleet or obs code",
        run_paper_figs, reduce_paper_figs,
        ("sim.kernel.run", "api.runner.cell", "platform.dolly.install",
         "platform.dolly.run_programs", "noc.network.send",
         "mem.private_cache.ops")),
)}
