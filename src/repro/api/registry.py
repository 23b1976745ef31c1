"""The global experiment registry.

Importing this module registers every experiment: the six of the paper's
evaluation — ``table1``, ``table2``, ``fig9``, ``fig10``, ``fig11`` and
``fig12`` (one cell per application configuration, each run on the three
system kinds) — plus the NoC, power, serving, fleet, reconfig, chaos and
observability sweeps.  The registry is the only definition of an
experiment: ``repro trace`` runs a registered cell with a tracer attached.
The paper's reference numbers (``TABLE2_PAPER``, ``FIG9_PAPER``,
``FIG10_PAPER_PEAKS`` and the Fig. 12 geomeans) sit beside the cells that
report them.

Cell functions are module-level so :class:`repro.api.runner.Runner` can ship
them to a ``ProcessPoolExecutor``.  Use :func:`register_experiment` either
with a ready :class:`~repro.api.spec.ExperimentSpec` or as a decorator::

    @register_experiment(name="my-sweep", grid={"x": (1, 2, 3)})
    def my_cell(x):
        return [{"x": x, "y": x * x}]
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.accel.barnes_hut import BarnesHutForceAccelerator
from repro.accel.dijkstra import DijkstraRelaxAccelerator
from repro.accel.lockfree_queue import FrontierQueueAccelerator
from repro.accel.pdes_scheduler import PdesSchedulerAccelerator
from repro.accel.popcount import PopcountAccelerator
from repro.accel.sortnet import SortingNetworkAccelerator
from repro.accel.tangent import TangentAccelerator
from repro.api.spec import ExperimentSpec, Rows
from repro.fpga.synthesis import SynthesisModel
from repro.noc.topology import TOPOLOGY_KINDS
from repro.platform.area import TABLE1_ROWS, AreaModel
from repro.platform.config import SystemKind
from repro.sim.stats import geometric_mean
from repro.workloads import APPLICATION_CONFIGS, ApplicationConfig
from repro.workloads.synthetic import (
    BANDWIDTH_MECHANISMS,
    DEFAULT_SEED,
    LATENCY_MECHANISMS,
    measure_bandwidth,
    measure_latency,
    measure_register_scalability,
)

REGISTRY: Dict[str, ExperimentSpec] = {}


def register_experiment(spec: Optional[ExperimentSpec] = None, **kwargs: Any):
    """Register an experiment; usable directly or as a decorator.

    ``register_experiment(spec)`` registers a ready spec and returns it.
    ``@register_experiment(name=..., grid=...)`` wraps a cell function; the
    function itself is returned unchanged (so it stays a plain, picklable
    module-level callable).
    """
    if spec is not None:
        if kwargs:
            raise TypeError("pass either a spec or keyword arguments, not both")
        _add(spec)
        return spec

    def decorate(cell: Callable[..., Rows]) -> Callable[..., Rows]:
        name = kwargs.pop("name", cell.__name__)
        _add(ExperimentSpec(name=name, cell=cell, **kwargs))
        return cell

    return decorate


def _add(spec: ExperimentSpec) -> None:
    if spec.name in REGISTRY:
        raise ValueError(f"experiment {spec.name!r} is already registered")
    REGISTRY[spec.name] = spec


def get_experiment(name: str) -> ExperimentSpec:
    try:
        return REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(REGISTRY))
        raise KeyError(f"unknown experiment {name!r}; known experiments: {known}") from None


def list_experiments(tag: Optional[str] = None) -> List[ExperimentSpec]:
    """All registered experiments, in registration order."""
    specs = list(REGISTRY.values())
    if tag is not None:
        specs = [spec for spec in specs if tag in spec.tags]
    return specs


# --------------------------------------------------------------------------- #
# Table I
# --------------------------------------------------------------------------- #
@register_experiment(
    name="table1",
    title="Table I — Area and Typical Frequency of Dolly Components",
    description="Area and typical frequency of Dolly's hard components.",
    tags=("paper", "table"),
)
def table1_cell() -> Rows:
    model = AreaModel()
    rows = []
    for row in TABLE1_ROWS:
        rows.append({
            "component": row.component,
            "technology": row.technology,
            "area_mm2": row.area_mm2,
            "freq_mhz": row.freq_mhz,
            "scaled_area_mm2": row.scaled_area_mm2,
            "scaled_freq_mhz": row.scaled_freq_mhz,
        })
    rows.append({
        "component": "Duet Adapter overhead vs 1 core (P1M1)",
        "technology": "derived",
        "area_mm2": model.adapter_area(1),
        "freq_mhz": 0.0,
        "scaled_area_mm2": model.adapter_area(1),
        "scaled_freq_mhz": 0.0,
    })
    return rows


# --------------------------------------------------------------------------- #
# Table II
# --------------------------------------------------------------------------- #
#: Paper-reported (max MHz, normalized area, CLB util, BRAM util) per accelerator.
TABLE2_PAPER = {
    "tangent": (282.0, 0.47, 0.84, 0.0),
    "popcount": (189.0, 2.77, 0.83, 0.56),
    "sort32": (228.0, 6.29, 0.30, 0.76),
    "sort64": (234.0, 8.10, 0.27, 0.92),
    "sort128": (228.0, 10.27, 0.27, 0.92),
    "dijkstra": (127.0, 1.94, 0.96, 0.31),
    "barnes-hut": (85.0, 14.22, 0.99, 0.05),
    "bfs": (208.0, 1.24, 0.61, 0.75),
    "pdes": (126.0, 2.77, 0.47, 0.56),
}

TABLE2_FACTORIES: Dict[str, Callable[[], Any]] = {
    "tangent": TangentAccelerator,
    "popcount": PopcountAccelerator,
    "sort32": lambda: SortingNetworkAccelerator(32),
    "sort64": lambda: SortingNetworkAccelerator(64),
    "sort128": lambda: SortingNetworkAccelerator(128),
    "dijkstra": DijkstraRelaxAccelerator,
    "barnes-hut": BarnesHutForceAccelerator,
    "bfs": FrontierQueueAccelerator,
    "pdes": PdesSchedulerAccelerator,
}


@register_experiment(
    name="table2",
    title="Table II — Clock Frequency and Area of Soft Accelerators",
    description="Post-route clock frequency, area and utilization of the soft accelerators.",
    grid={"benchmark": tuple(TABLE2_FACTORIES)},
    tags=("paper", "table"),
)
def table2_cell(benchmark: str) -> Rows:
    accelerator = TABLE2_FACTORIES[benchmark]()
    result = SynthesisModel().implement(accelerator.design)
    area_model = AreaModel()
    paper = TABLE2_PAPER.get(accelerator.design.name, (None, None, None, None))
    return [{
        "benchmark": accelerator.design.name,
        "measured_fmax_mhz": result.fmax_mhz,
        "paper_fmax_mhz": paper[0],
        "measured_norm_area": result.normalized_area(area_model.reference_block_mm2),
        "paper_norm_area": paper[1],
        "measured_clb_util": result.clb_utilization,
        "paper_clb_util": paper[2],
        "measured_bram_util": result.bram_utilization,
        "paper_bram_util": paper[3],
    }]


# --------------------------------------------------------------------------- #
# Fig. 9: latency
# --------------------------------------------------------------------------- #
#: Paper round-trip latencies (ns) per mechanism at {100, 200, 500} MHz,
#: read off Fig. 9 (sum of the stacked components).
FIG9_PAPER = {
    "shadow_reg": {100: 42, 200: 42, 500: 42},
    "normal_reg": {100: 300, 200: 180, 500: 108},
    "cpu_pull_proxy": {100: 68, 200: 68, 500: 68},
    "cpu_pull_slow": {100: 229, 200: 133, 500: 72},
    "efpga_pull_proxy": {100: 172, 200: 112, 500: 78},
    "efpga_pull_slow": {100: 271, 200: 162, 500: 121},
}


@register_experiment(
    name="fig9",
    title="Fig. 9 — CPU-eFPGA Communication Latency (single transaction)",
    description="Round-trip latency of the six communication mechanisms on Dolly-P1M1.",
    grid={"mechanism": LATENCY_MECHANISMS, "fpga_mhz": (100.0, 200.0, 500.0)},
    fixed={"seed": DEFAULT_SEED},
    tags=("paper", "figure", "synthetic"),
)
def fig9_cell(mechanism: str, fpga_mhz: float, seed: int = DEFAULT_SEED) -> Rows:
    result = measure_latency(mechanism, fpga_mhz, seed=seed)
    return [{
        "mechanism": mechanism,
        "fpga_mhz": fpga_mhz,
        "measured_roundtrip_ns": result.roundtrip_ns,
        "paper_roundtrip_ns": FIG9_PAPER.get(mechanism, {}).get(int(fpga_mhz)),
    }]


# --------------------------------------------------------------------------- #
# Fig. 10: bandwidth
# --------------------------------------------------------------------------- #
#: Paper peak bandwidths (MB/s) quoted in Sec. V-C.
FIG10_PAPER_PEAKS = {
    "efpga_pull_proxy": 558.0,
    "cpu_pull_proxy": 201.0,
    "efpga_pull_slow": 287.0,
    "cpu_pull_slow": 144.0,
    "shadow_reg": 213.0,
    "normal_reg": 121.0,
}


@register_experiment(
    name="fig10",
    title="Fig. 10 — Processor-eFPGA Bandwidth",
    description="Single-processor bandwidth of the six mechanisms vs eFPGA clock. "
                "quad_words is 128 (vs the paper's 512): the adapter's exception "
                "timeout aborts longer transfers at slow eFPGA clocks.",
    grid={"mechanism": BANDWIDTH_MECHANISMS,
          "fpga_mhz": (20.0, 50.0, 100.0, 200.0, 500.0)},
    fixed={"quad_words": 128, "seed": DEFAULT_SEED},
    tags=("paper", "figure", "synthetic"),
)
def fig10_cell(mechanism: str, fpga_mhz: float, quad_words: int = 128,
               seed: int = DEFAULT_SEED) -> Rows:
    result = measure_bandwidth(mechanism, fpga_mhz, quad_words=quad_words, seed=seed)
    return [{
        "mechanism": mechanism,
        "fpga_mhz": fpga_mhz,
        "measured_mbytes_per_s": result.mbytes_per_s,
        "paper_peak_mbytes_per_s": FIG10_PAPER_PEAKS.get(mechanism),
    }]


# --------------------------------------------------------------------------- #
# Fig. 11: register scalability
# --------------------------------------------------------------------------- #
@register_experiment(
    name="fig11",
    title="Fig. 11 — Per-Processor Register Bandwidth vs Contending Processors",
    description="Per-processor bandwidth of normal vs shadow registers under contention.",
    grid={"mechanism": ("normal_reg", "shadow_reg"),
          "operation": ("write", "read"),
          "num_processors": (1, 2, 4, 8, 16)},
    fixed={"accesses_per_processor": 32, "fpga_mhz": 500.0, "seed": DEFAULT_SEED},
    tags=("paper", "figure", "synthetic"),
)
def fig11_cell(mechanism: str, operation: str, num_processors: int,
               accesses_per_processor: int = 32, fpga_mhz: float = 500.0,
               seed: int = DEFAULT_SEED) -> Rows:
    result = measure_register_scalability(
        mechanism, operation, num_processors,
        fpga_mhz=fpga_mhz, accesses_per_processor=accesses_per_processor, seed=seed,
    )
    return [{
        "mechanism": mechanism,
        "operation": operation,
        "num_processors": num_processors,
        "per_processor_mbytes_per_s": result.per_processor_mbytes_per_s,
    }]


# --------------------------------------------------------------------------- #
# Fig. 12: application benchmarks
# --------------------------------------------------------------------------- #
#: Geometric means quoted in the paper for Fig. 12.
FIG12_PAPER_GEOMEAN = {"duet": 4.53, "fpsoc": 2.14}
FIG12_PAPER_ADP_GEOMEAN = {"duet": 0.61, "fpsoc": 1.23}


def fig12_row(config: ApplicationConfig, seed: int = DEFAULT_SEED) -> Dict[str, Any]:
    """Measure one Fig. 12 bar group (all three systems) for one config."""
    params = config.params(seed=seed)
    baseline = config.runner(SystemKind.CPU_ONLY, params, **config.kwargs)
    fpsoc_result = config.runner(SystemKind.FPSOC, params, **config.kwargs)
    duet_result = config.runner(SystemKind.DUET, params, **config.kwargs)
    return {
        "benchmark": config.label,
        "cpu_runtime_ns": baseline.runtime_ns,
        "fpsoc_speedup": fpsoc_result.speedup_over(baseline),
        "duet_speedup": duet_result.speedup_over(baseline),
        "paper_fpsoc_speedup": config.paper_fpsoc_speedup,
        "paper_duet_speedup": config.paper_duet_speedup,
        "fpsoc_norm_adp": fpsoc_result.normalized_adp(baseline),
        "duet_norm_adp": duet_result.normalized_adp(baseline),
        "all_correct": baseline.correct and fpsoc_result.correct and duet_result.correct,
    }


def fig12_summary(rows: Rows) -> Dict[str, Any]:
    """Geometric-mean speedup / ADP aggregates, plus the paper's numbers."""
    return {
        "duet_geomean_speedup": geometric_mean(
            [r["duet_speedup"] for r in rows if r["duet_speedup"] > 0]),
        "fpsoc_geomean_speedup": geometric_mean(
            [r["fpsoc_speedup"] for r in rows if r["fpsoc_speedup"] > 0]),
        "duet_geomean_adp": geometric_mean(
            [r["duet_norm_adp"] for r in rows if r["duet_norm_adp"] > 0]),
        "fpsoc_geomean_adp": geometric_mean(
            [r["fpsoc_norm_adp"] for r in rows if r["fpsoc_norm_adp"] > 0]),
        "paper_geomean_speedup": dict(FIG12_PAPER_GEOMEAN),
        "paper_geomean_adp": dict(FIG12_PAPER_ADP_GEOMEAN),
    }


@register_experiment(
    name="fig12",
    title="Fig. 12 — Normalized Speedup and ADP of Application Benchmarks",
    description="Every application on the three systems (CPU-only, FPSoC, Duet); "
                "the summary carries the geometric means.",
    grid={"benchmark": tuple(APPLICATION_CONFIGS)},
    fixed={"seed": DEFAULT_SEED},
    summarize=fig12_summary,
    tags=("paper", "figure", "application"),
)
def fig12_cell(benchmark: str, seed: int = DEFAULT_SEED) -> Rows:
    return [fig12_row(APPLICATION_CONFIGS[benchmark], seed=seed)]


# --------------------------------------------------------------------------- #
# NoC scaling sweep: topology x size x injection rate
# --------------------------------------------------------------------------- #
@register_experiment(
    name="noc_scaling",
    title="NoC Scaling — Topology x Size x Injection Rate",
    description="Uniform-random traffic over every NoC topology: delivered "
                "throughput, latency percentiles and link-wait time in "
                "simulated time (see docs/noc.md).",
    grid={"topology": tuple(sorted(TOPOLOGY_KINDS)),
          "size": (4, 8),
          "injection_rate": (0.02, 0.1)},
    fixed={"messages_per_node": 25, "payload_bytes": 16, "seed": DEFAULT_SEED},
    tags=("noc", "sweep", "synthetic"),
)
def noc_scaling_cell(topology: str, size: int, injection_rate: float,
                     messages_per_node: int = 25, payload_bytes: int = 16,
                     seed: int = DEFAULT_SEED) -> Rows:
    from repro.workloads.noc_traffic import run_uniform_traffic

    result = run_uniform_traffic(
        topology, size, injection_rate,
        messages_per_node=messages_per_node,
        payload_bytes=payload_bytes,
        seed=seed,
    )
    return [result.as_row()]


# --------------------------------------------------------------------------- #
# Power / efficiency experiments (cells live in repro.power.experiments,
# which must not import repro.api — see its module docstring)
# --------------------------------------------------------------------------- #
from repro.power import experiments as power_experiments  # noqa: E402

register_experiment(ExperimentSpec(
    name="power_efficiency",
    cell=power_experiments.power_efficiency_cell,
    title="Power Efficiency — Energy, EDP and Perf-per-Watt by System and Clock",
    description="Popcount on every system kind x P/M shape x eFPGA clock "
                "with energy accounting enabled (see docs/power.md).",
    grid={"system": tuple(kind.value for kind in
                          (SystemKind.CPU_ONLY, SystemKind.FPSOC, SystemKind.DUET)),
          "pm": power_experiments.PM_SHAPES,
          "fpga_mhz": (50.0, 100.0, 150.0)},
    fixed={"vectors": 12, "seed": power_experiments.DEFAULT_SEED,
           "cpu_anchor_mhz": 50.0},
    summarize=power_experiments.power_efficiency_summary,
    tags=("power", "sweep", "efficiency"),
))

register_experiment(ExperimentSpec(
    name="dvfs_policy",
    cell=power_experiments.dvfs_policy_cell,
    title="DVFS Policy — Governors on a Bursty Accelerator Workload",
    description="Fixed / Ladder / EnergyCap governors driving the eFPGA "
                "clock of a bursty compute workload (see docs/power.md).",
    grid={"governor": power_experiments.GOVERNOR_KINDS},
    fixed={"bursts": 4, "items_per_burst": 6, "idle_ns": 20_000.0,
           "compute_cycles": 64, "seed": power_experiments.DEFAULT_SEED},
    summarize=power_experiments.dvfs_policy_summary,
    tags=("power", "dvfs", "synthetic"),
))


# --------------------------------------------------------------------------- #
# Serving experiments (cells live in repro.serve.experiments, which must not
# import repro.api — see its module docstring and docs/serving.md)
# --------------------------------------------------------------------------- #
from repro.fleet import experiments as fleet_experiments  # noqa: E402
from repro.fleet import router as fleet_router  # noqa: E402
from repro.serve import experiments as serve_experiments  # noqa: E402
from repro.serve.scheduler import POLICY_KINDS  # noqa: E402

register_experiment(ExperimentSpec(
    name="serve_policy",
    cell=serve_experiments.serve_policy_cell,
    title="Serving — Scheduling Policy x Arrival Rate x Tenant Mix",
    description="Multi-tenant request serving on a shared eFPGA fabric: "
                "per-tenant p50/p95/p99 latency, goodput (SLO-met "
                "completions/s), shed load and reconfiguration overhead "
                "(see docs/serving.md).",
    grid={"policy": POLICY_KINDS,
          "arrival_rate_krps": (100.0, 250.0, 400.0),
          "tenant_mix": ("duo", "quad")},
    fixed={"duration_us": 2_000.0, "num_fabrics": 1, "queue_capacity": 64,
           "patience_ns": 100_000.0, "seed": serve_experiments.DEFAULT_SEED},
    summarize=serve_experiments.serve_policy_summary,
    tags=("serve", "sweep", "slo"),
))

# --------------------------------------------------------------------------- #
# Fleet experiment (cells live in repro.fleet.experiments, same import rule)
# --------------------------------------------------------------------------- #
register_experiment(ExperimentSpec(
    name="fleet_scaling",
    cell=fleet_experiments.fleet_scaling_cell,
    title="Fleet — Placement x Node Count x Autoscaling (cost vs tail pareto)",
    description="A million closed-loop clients (thinned) on a fleet of Dolly "
                "nodes: placement policy x static node count x autoscaling, "
                "reporting node-cost against p99/goodput and the pareto "
                "front (see docs/fleet.md).",
    grid={"placement": fleet_router.PLACEMENT_KINDS,
          "nodes": (2, 4, 8),
          "autoscale": (False, True)},
    fixed={"policy": "fcfs", "clients": 1_000_000, "think_ms": 50.0,
           "thin_factor": 50.0,
           "epochs": len(fleet_experiments.DEFAULT_RATE_PROFILE),
           "epoch_us": 400.0,
           "seed": fleet_experiments.DEFAULT_SEED},
    summarize=fleet_experiments.fleet_scaling_summary,
    tags=("fleet", "serve", "sweep", "pareto"),
))

register_experiment(ExperimentSpec(
    name="serve_energy",
    cell=serve_experiments.serve_energy_cell,
    title="Serving — Energy per Request by Scheduling Policy",
    description="The duo tenant mix with repro.power accounting attached: "
                "energy per served request, average power and the "
                "reconfiguration energy share (see docs/serving.md).",
    grid={"policy": POLICY_KINDS},
    fixed={"arrival_rate_krps": 250.0, "tenant_mix": "duo",
           "duration_us": 2_000.0, "queue_capacity": 64,
           "patience_ns": 100_000.0, "seed": serve_experiments.DEFAULT_SEED},
    summarize=serve_experiments.serve_energy_summary,
    tags=("serve", "power", "efficiency"),
))

# --------------------------------------------------------------------------- #
# Reconfig experiment (cells live in repro.reconfig.experiments, same rule)
# --------------------------------------------------------------------------- #
from repro.reconfig import experiments as reconfig_experiments  # noqa: E402

register_experiment(ExperimentSpec(
    name="reconfig",
    cell=reconfig_experiments.reconfig_cell,
    title="Reconfig — Region Grid x Policy x Tenant Mix x Provisioning",
    description="Region-granular partial reconfiguration on one shared "
                "fabric: co-located designs hot-swap contiguous region "
                "spans (paying only the changed regions' bits) with LRU "
                "eviction under provisioning pressure; regions=1 is the "
                "whole-fabric baseline (see docs/reconfig.md).",
    grid={"regions": (1, 2, 4),
          "policy": ("fcfs", "affinity"),
          "tenant_mix": ("duo", "quad"),
          "fabric_scale": (1.0, 0.6)},
    fixed={"arrival_rate_krps": 250.0, "duration_us": 2_000.0,
           "queue_capacity": 64, "patience_ns": 100_000.0,
           "seed": reconfig_experiments.DEFAULT_SEED},
    summarize=reconfig_experiments.reconfig_summary,
    tags=("reconfig", "serve", "sweep", "placement"),
))

# --------------------------------------------------------------------------- #
# Chaos experiment (cells live in repro.chaos.experiments, same import rule)
# --------------------------------------------------------------------------- #
from repro.chaos import experiments as chaos_experiments  # noqa: E402

register_experiment(ExperimentSpec(
    name="chaos",
    cell=chaos_experiments.chaos_cell,
    title="Chaos — Fault Rate x Policy x Recovery (failover under traffic)",
    description="A fleet that loses node 0 to a pinned whole-node fault "
                "under rate-scaled SEU/link noise: with recovery the hot "
                "spare is promoted, tenants re-place and lost requests "
                "replay; without it the dead node sheds. Reports per-tenant "
                "fault impact and goodput recovery (see docs/chaos.md).",
    grid={"fault_rate": (0.0, 1.0, 3.0),
          "policy": ("fcfs", "affinity"),
          "recovery": (False, True)},
    fixed={"nodes": 3, "spares": 1, "epochs": 5, "epoch_us": 600.0,
           "rate_krps": 300.0, "seed": chaos_experiments.DEFAULT_SEED},
    summarize=chaos_experiments.chaos_summary,
    tags=("chaos", "fleet", "reliability", "sweep"),
))

# --------------------------------------------------------------------------- #
# Observability experiment (cells live in repro.obs.experiments, same rule)
# --------------------------------------------------------------------------- #
from repro.obs import experiments as obs_experiments  # noqa: E402

register_experiment(ExperimentSpec(
    name="latency_decomposition",
    cell=obs_experiments.latency_decomposition_cell,
    title="Observability — Latency Decomposition by Stage (where the ns go)",
    description="Traced serving runs folded into per-tenant stage shares "
                "(queue/program/retune/service/blackout, summing to 1.0) "
                "plus the full latency tail (p50..p99.9/max, jitter, CDF "
                "mass within 2x the median), swept over policy x region "
                "count x background fault rate (see docs/observability.md).",
    grid={"policy": ("fcfs", "affinity"),
          "regions": (1, 4),
          "fault_rate": (0.0, 2.0)},
    fixed={"tenant_mix": obs_experiments.DECOMPOSE_MIX,
           "arrival_rate_krps": obs_experiments.DECOMPOSE_RATE_KRPS,
           "duration_us": obs_experiments.DECOMPOSE_DURATION_US,
           "seed": obs_experiments.DEFAULT_SEED},
    summarize=obs_experiments.latency_decomposition_summary,
    tags=("obs", "serve", "reconfig", "chaos", "sweep", "tracing"),
))

# --------------------------------------------------------------------------- #
# Alerting experiment (cells live in repro.obs.alerting, same import rule)
# --------------------------------------------------------------------------- #
from repro.obs import alerting as obs_alerting  # noqa: E402

register_experiment(ExperimentSpec(
    name="alerting",
    cell=obs_alerting.alerting_cell,
    title="Alerting — Detection Quality vs Ground-Truth Fault Schedules",
    description="Chaos fleet runs observed only through windowed telemetry: "
                "fault family (none/kill/seu/link) x control mode "
                "(omniscient vs alert-driven recovery), scoring the alert "
                "log against the injected FaultSchedule for recall, "
                "precision, false-alarm rate and detection latency "
                "(see docs/alerting.md).",
    grid={"fault": obs_alerting.FAULT_MODES,
          "control": ("omniscient", "alerts")},
    fixed={"fault_rate": 2.0, "nodes": 3, "spares": 1, "epochs": 5,
           "epoch_us": 600.0, "rate_krps": 300.0,
           "window_us": obs_alerting.ALERT_WINDOW_US,
           "seed": obs_alerting.DEFAULT_SEED},
    summarize=obs_alerting.alerting_summary,
    tags=("obs", "alerts", "chaos", "fleet", "sweep"),
))
