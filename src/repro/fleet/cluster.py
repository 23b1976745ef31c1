"""Cluster-scale serving: epochs of share-nothing node simulation, merged
deterministically.

:func:`run_fleet` drives N share-nothing nodes (:mod:`repro.fleet.node`)
through ``epochs`` control epochs.  Within an epoch every node simulates
independently, one after another in node-id order, and the per-node
reports are merged **sorted by node id**.  Parallelism lives one level up:
the :class:`~repro.api.runner.Runner`'s process executor fans whole fleet
cells out over its pool.  Between epochs the control plane runs, in order:

1. the :class:`~repro.fleet.autoscaler.Autoscaler` grows/shrinks the node
   set from the epoch's queue/shed signals — a change triggers a full
   placement recompute, and every tenant whose node changed is marked
   *migrated*;
2. otherwise the :class:`~repro.fleet.router.Router` performs watermark
   migration off sustained-hot nodes.

Migrated tenants pay their re-program + state-transfer stall at the start
of the next epoch on the target node.  Epoch boundaries are also where
heterogeneous offered load enters: ``rate_profile`` scales the cluster
rate per epoch, which is what gives the autoscaler something to chase.

Determinism contract (tested in ``tests/test_fleet.py``): rows depend only
on ``(FleetConfig, tenants, total_rate_rps, rate_profile, seed)`` — not on
``PYTHONHASHSEED``, wall-clock or which process runs the cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.chaos import ChaosConfig
from repro.fleet.autoscaler import Autoscaler, AutoscalerConfig
from repro.fleet.node import NodeSpec, TenantShare, simulate_node
from repro.fleet.router import Router, make_placement
from repro.obs.metrics import MetricsSnapshot
from repro.serve.scheduler import FAULT_COUNTERS, ServeConfig
from repro.serve.slo import TenantAccount, tenant_rows
from repro.serve.traffic import TenantSpec, open_loop_rates

#: How the epoch-boundary failover step learns about dead nodes:
#: ``omniscient`` reads the simulator's ground-truth damage reports (the
#: historical behaviour); ``alerts`` trusts only alerts fired from the
#: telemetry stream — the operations-realistic mode the ``alerting``
#: experiment scores against the omniscient baseline.
CHAOS_CONTROL_MODES: Tuple[str, ...] = ("omniscient", "alerts")

#: Hot spares get node ids in this range so they never collide with the
#: autoscaler's fresh ids (template id + 1, +2, ...).
SPARE_ID_BASE = 1000


@dataclass(frozen=True)
class FleetConfig:
    """Static configuration of one fleet deployment."""

    nodes: int = 4
    placement: str = "affinity"
    #: Per-node scheduling policy (the PR 5 FabricScheduler policy).
    policy: str = "fcfs"
    fabrics_per_node: int = 1
    epochs: int = 3
    epoch_us: float = 400.0
    migrate_watermark: float = 8.0
    autoscaler: AutoscalerConfig = field(default_factory=AutoscalerConfig)
    power: bool = False
    #: Nodes simulate in this process; ``"serial"`` is the only accepted
    #: value.  Fleet cells run in parallel under ``Runner(executor="process")``.
    node_executor: str = "serial"
    #: Fault schedule + recovery policy; ``None`` injects nothing and keeps
    #: every row bit-identical to a chaos-free build.
    chaos: Optional[ChaosConfig] = None
    #: Hot spares: powered-on idle nodes (they burn cost and, with
    #: ``power=True``, idle energy every epoch) that chaos recovery promotes
    #: when a node loses all of its fabrics.
    spares: int = 0
    #: Streaming telemetry window (µs); ``None`` (the default) attaches no
    #: monitor and keeps node reports bit-identical to a pre-telemetry build.
    telemetry_window_us: Optional[float] = None
    #: ``omniscient`` or ``alerts`` (see :data:`CHAOS_CONTROL_MODES`).
    chaos_control: str = "omniscient"

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ValueError(f"need >= 1 node, got {self.nodes}")
        if self.spares < 0:
            raise ValueError(f"spares cannot be negative, got {self.spares}")
        if self.epochs < 1:
            raise ValueError(f"need >= 1 epoch, got {self.epochs}")
        if self.epoch_us <= 0:
            raise ValueError(f"epoch_us must be positive, got {self.epoch_us}")
        if self.node_executor != "serial":
            raise ValueError(
                f"node_executor must be 'serial', got {self.node_executor!r}; "
                f"run fleet cells in parallel with Runner(executor=\"process\")")
        if self.chaos_control not in CHAOS_CONTROL_MODES:
            raise ValueError(
                f"chaos_control must be one of {CHAOS_CONTROL_MODES}, "
                f"got {self.chaos_control!r}")
        if self.telemetry_window_us is not None and self.telemetry_window_us <= 0:
            raise ValueError(
                f"telemetry_window_us must be positive, "
                f"got {self.telemetry_window_us}")
        if self.telemetry_window_us is None and self.chaos_control == "alerts":
            raise ValueError(
                "chaos_control='alerts' needs telemetry_window_us set — "
                "alert-driven control is blind without a telemetry stream")
        make_placement(self.placement)  # fail fast on typos
        # The node-serving fields are checked by the ServeConfig every node
        # builds from them; build one here so a bad value fails now, not in
        # the first node simulation.
        ServeConfig(policy=self.policy, num_fabrics=self.fabrics_per_node)

    def initial_nodes(self) -> List[NodeSpec]:
        count = (max(self.autoscaler.min_nodes, 1)
                 if self.autoscaler.enabled else self.nodes)
        count = min(count, self.nodes)
        return [NodeSpec(node_id=index, fabrics=self.fabrics_per_node)
                for index in range(count)]

    def spare_nodes(self) -> List[NodeSpec]:
        return [NodeSpec(node_id=SPARE_ID_BASE + index,
                         fabrics=self.fabrics_per_node, spare=True)
                for index in range(self.spares)]


@dataclass
class FleetOutcome:
    """Everything :func:`run_fleet` learned, pre-merge and merged."""

    rows: List[Dict[str, Any]]
    reports: List[Dict[str, Any]]
    router: Router
    autoscaler: Autoscaler
    elapsed_ns: float
    #: Chaos control-plane summary (``None`` on a chaos-free run):
    #: promotions, dead node ids, and per-epoch cluster goodput.
    chaos: Optional[Dict[str, Any]] = None
    #: Per-node :class:`~repro.obs.metrics.MetricsSnapshot`\\ s folded in
    #: sorted ``(epoch, node_id)`` order.
    metrics: Optional[MetricsSnapshot] = None
    #: Merged :class:`~repro.obs.monitor.TelemetryStream` (``None`` unless
    #: the fleet ran with ``telemetry_window_us`` set).
    telemetry: Optional[Any] = None
    #: The typed alert log (:class:`repro.obs.alerts.AlertEvent` list) the
    #: engine produced over the merged stream; ``None`` when telemetry off.
    alerts: Optional[List[Any]] = None


def run_fleet(
    config: FleetConfig,
    tenants: Tuple[TenantSpec, ...],
    total_rate_rps: float,
    rate_profile: Optional[Sequence[float]] = None,
    seed: int = 2023,
    extra_columns: Optional[Dict[str, Any]] = None,
    tracer: Optional[Any] = None,
) -> FleetOutcome:
    """Run the fleet to completion and merge per-node results into rows.

    When a :class:`~repro.obs.trace.Tracer` is supplied, the parent-side
    control plane records per-(node, epoch) spans and migration/failover
    instants.  Node reports are plain data — they are golden-hashed, and
    the Runner pickles the rows built from them — so no node-internal span
    rides back in them and fleet traces are epoch-granular by design;
    attach the tracer to :func:`repro.serve.experiments.run_serve` for
    request granularity.
    Tracing never perturbs the simulation — rows are bit-identical with
    and without a tracer attached.
    """
    if not tenants:
        raise ValueError("need >= 1 tenant")
    if total_rate_rps <= 0:
        raise ValueError(f"total_rate_rps must be positive, got {total_rate_rps}")
    profile = tuple(rate_profile) if rate_profile else (1.0,) * config.epochs
    if len(profile) != config.epochs:
        raise ValueError(
            f"rate_profile needs one multiplier per epoch "
            f"({config.epochs}), got {len(profile)}")

    nodes = config.initial_nodes()
    template = NodeSpec(node_id=max(n.node_id for n in nodes),
                        fabrics=config.fabrics_per_node)
    router = Router(config.placement, migrate_watermark=config.migrate_watermark)
    autoscaler = Autoscaler(config.autoscaler, template)
    engine = None
    if config.telemetry_window_us is not None:
        from repro.obs.alerts import AlertEngine
        from repro.obs.monitor import TelemetryStream

        engine = AlertEngine()
    epoch_ns = config.epoch_us * 1000.0
    #: Epoch length on the trace timeline (integer ps), so parent-side
    #: events line up with node-internal sim-ps timestamps.
    epoch_ps = int(round(config.epoch_us * 1e6))

    reports: List[Dict[str, Any]] = []
    #: Each epoch's telemetry, merged once for the alert engine.
    epoch_streams: List[Any] = []
    migrated: set = set()
    placed = False
    # -- chaos control-plane state -------------------------------------- #
    spare_pool = config.spare_nodes()
    #: node_id -> fabric indices that died permanently in earlier epochs.
    persistent_dead: Dict[int, Tuple[int, ...]] = {}
    #: node_id -> ((tenant, lost_count), ...) to re-offer next epoch.
    replay_map: Dict[int, Tuple[Tuple[str, int], ...]] = {}
    promotions = 0
    dead_nodes: List[int] = []
    for epoch in range(config.epochs):
        rates = open_loop_rates(tenants, total_rate_rps * profile[epoch])
        shares = tuple(
            TenantShare(tenant=tenant, rate_rps=rate,
                        migrated=tenant.name in migrated)
            for tenant, rate in zip(tenants, rates))
        if tracer is not None and migrated:
            # Migration stalls are paid at the start of this epoch on
            # the target node — stamp the instants there.
            for name in sorted(migrated):
                tracer.instant("migrate", "router", epoch * epoch_ps,
                               cat="fleet", pid="fleet.ctrl",
                               args={"t": name, "epoch": epoch})
        if not placed:
            router.place(shares, nodes)
            placed = True
        by_node: Dict[int, List[TenantShare]] = {n.node_id: [] for n in nodes}
        for share in shares:
            node_id = router.placement[share.tenant.name]
            by_node[node_id].append(share)
        # Spares simulate alongside active nodes (idle: no shares, no
        # faults) so their cost and idle energy land in the totals.
        epoch_reports: List[Dict[str, Any]] = []
        for node in sorted(nodes + spare_pool, key=lambda n: n.node_id):
            call = dict(
                node=node,
                shares=tuple(by_node.get(node.node_id, ())),
                policy=config.policy,
                epoch_ns=epoch_ns,
                epoch=epoch,
                seed=seed,
                power=config.power,
            )
            if config.telemetry_window_us is not None:
                call.update(telemetry_window_us=config.telemetry_window_us)
            if config.chaos is not None and not node.spare:
                # Fault draws resolve here, in the control plane, to
                # plain data — a pure function of (schedule seed, epoch,
                # node), never of what the node simulation does.
                call.update(
                    chaos_events=config.chaos.schedule.events(
                        epoch, node.node_id, node.fabrics, epoch_ns),
                    chaos_recovery=config.chaos.recovery,
                    failed_fabrics=persistent_dead.get(node.node_id, ()),
                    replays=replay_map.get(node.node_id, ()),
                )
            epoch_reports.append(simulate_node(**call))
        reports.extend(epoch_reports)
        if tracer is not None:
            for report in epoch_reports:
                tracer.complete(
                    f"epoch{epoch}", "node", epoch * epoch_ps,
                    int(round(report["elapsed_ns"] * 1000.0)),
                    cat="fleet", pid=f"node{report['node_id']}",
                    args={"epoch": epoch, "spare": report["spare"]})
        if engine is not None:
            # Stream this epoch's windows through the alert engine in
            # the canonical merged order, so the alert log (and any
            # control decision read off it) is reproducible bit for bit.
            stream = TelemetryStream.merged(
                TelemetryStream.from_dict(report["telemetry"])
                for report in epoch_reports)
            engine.consume(stream)
            epoch_streams.append(stream)

        if epoch == config.epochs - 1:
            break
        signals = _signals(epoch_reports)
        migrated = set()
        if config.chaos is not None:
            (nodes, spare_pool, persistent_dead, replay_map, migrated,
             epoch_promotions, epoch_dead, handled) = _failover(
                config, epoch_reports, shares, nodes, spare_pool, router,
                _suspects(config, epoch_reports, nodes, engine))
            promotions += epoch_promotions
            dead_nodes.extend(epoch_dead)
            if tracer is not None:
                boundary_ps = (epoch + 1) * epoch_ps
                for node_id in epoch_dead:
                    tracer.instant("failover", "chaos", boundary_ps,
                                   cat="fleet", pid="fleet.ctrl",
                                   args={"node": node_id})
                for index in range(epoch_promotions):
                    tracer.instant("promote", "chaos", boundary_ps,
                                   cat="fleet", pid="fleet.ctrl",
                                   args={"n": index})
            if handled:
                # A failover re-placed the survivors this boundary;
                # don't let the autoscaler fight it in the same breath.
                continue
        resized = autoscaler.apply(autoscaler.decide(signals), nodes,
                                   signals, epoch)
        if resized is not None:
            nodes = resized
            migrated = router.place(shares, nodes)
            continue
        migrated = router.rebalance(signals, shares, nodes)

    metrics = MetricsSnapshot.merged(
        MetricsSnapshot.from_dict(report["metrics"])
        for report in sorted(reports, key=lambda r: (r["epoch"], r["node_id"])))
    rows, elapsed_ns = _merge_reports(reports, metrics, config,
                                      extra_columns or {})
    chaos_summary = None
    if config.chaos is not None:
        chaos_summary = {
            "promotions": promotions,
            "dead_nodes": sorted(dead_nodes),
            "epoch_goodput": epoch_goodput(reports),
        }
        for row in rows:
            row["spare_promotions"] = promotions
            row["dead_nodes"] = len(dead_nodes)
    for row in rows:
        row["elapsed_us"] = elapsed_ns / 1000.0
    telemetry = None
    alerts = None
    if engine is not None:
        # The merge key leads with the epoch, so folding the per-epoch
        # streams gives the same bytes as merging every report again.
        telemetry = TelemetryStream.merged(epoch_streams)
        alerts = engine.events
        if tracer is not None:
            engine.export(tracer, pid="fleet.ctrl")
    return FleetOutcome(rows=rows, reports=reports, router=router,
                        autoscaler=autoscaler, elapsed_ns=elapsed_ns,
                        chaos=chaos_summary, metrics=metrics,
                        telemetry=telemetry, alerts=alerts)


def epoch_goodput(reports: List[Dict[str, Any]]) -> List[int]:
    """Cluster-wide within-SLO completions per epoch — the recovery signal
    the chaos acceptance pins steer on."""
    epochs = sorted({report["epoch"] for report in reports})
    return [
        sum(account["good"]
            for report in reports if report["epoch"] == epoch
            for account in report["tenants"].values())
        for epoch in epochs
    ]


def _signals(epoch_reports: List[Dict[str, Any]]) -> Dict[int, Dict[str, float]]:
    """The router/autoscaler signals of each active node, derived in one
    place: ``submitted``/``shed`` sum the node's tenant accounts, and
    ``queue_depth_mean``/``busy_fraction`` are its metrics gauges."""
    signals: Dict[int, Dict[str, float]] = {}
    for report in epoch_reports:
        if report["spare"]:
            continue
        accounts = report["tenants"].values()
        gauges = report["metrics"]["gauges"]
        signals[report["node_id"]] = {
            "submitted": sum(account["submitted"] for account in accounts),
            "shed": sum(account["shed"] for account in accounts),
            "queue_depth_mean": gauges["queue_depth_mean"],
            "busy_fraction": gauges["busy_fraction"],
        }
    return signals


def _suspects(config: FleetConfig, epoch_reports: List[Dict[str, Any]],
              nodes: List[NodeSpec], engine) -> List[int]:
    """The nodes the failover step should replace, sorted; none with
    recovery off.

    ``omniscient`` reads the simulator's damage reports: a node is dead
    once it lost *every* fabric.  ``alerts`` is allowed exactly what a
    real control plane has — the alert engine's firing state over the
    telemetry stream: a node is dead while a critical alert fires for it.
    """
    if not config.chaos.recovery:
        return []
    if config.chaos_control == "alerts":
        active_ids = {node.node_id for node in nodes}
        return sorted({node_id for _, node_id in engine.firing("critical")
                       if node_id in active_ids})
    return sorted(report["node_id"] for report in epoch_reports
                  if len(report["dead_fabrics"]) >= report["fabrics"])


def _failover(
    config: FleetConfig,
    epoch_reports: List[Dict[str, Any]],
    shares: Tuple[TenantShare, ...],
    nodes: List[NodeSpec],
    spare_pool: List[NodeSpec],
    router: Router,
    suspects: List[int],
):
    """The epoch-boundary failover step (see ``docs/chaos.md``).

    Dead fabrics carry forward into the next epoch unconditionally —
    damage does not wait for detection.  Each suspect (see
    :func:`_suspects`) is removed and replaced by promoting a hot spare,
    the survivors are re-placed through the router's real migration path,
    and what the removed nodes lost (their per-tenant ``fault_shed``,
    which a router observes as requests it forwarded and saw shed back)
    is queued for replay on whichever node each tenant lands on.  The
    last node is never removed, so tenants stay placeable.  When that
    keeps every suspect, the omniscient mode still re-places and claims
    the boundary (the autoscaler sits it out); the alert mode does
    neither.  With recovery off nothing is replaced: a dead node keeps
    its tenants and sheds everything — the ablation the chaos experiment
    quantifies against.
    """
    persistent_dead: Dict[int, Tuple[int, ...]] = {
        report["node_id"]: tuple(report["dead_fabrics"])
        for report in epoch_reports if report["dead_fabrics"]}
    unchanged = (nodes, spare_pool, persistent_dead, {}, set(), 0, [], False)
    if not suspects:
        return unchanged
    promotions = 0
    epoch_dead: List[int] = []
    survivors = list(nodes)
    for node_id in suspects:
        if len(survivors) <= 1 and not spare_pool:
            continue
        epoch_dead.append(node_id)
        persistent_dead.pop(node_id, None)  # the node left the cluster
        survivors = [n for n in survivors if n.node_id != node_id]
        if spare_pool:
            survivors.append(replace(spare_pool.pop(0), spare=False))
            promotions += 1
    if not epoch_dead and config.chaos_control == "alerts":
        return unchanged
    survivors.sort(key=lambda n: n.node_id)
    migrated = router.place(shares, survivors)
    by_node = {report["node_id"]: report for report in epoch_reports}
    replay_lists: Dict[int, List[Tuple[str, int]]] = {}
    for node_id in epoch_dead:
        for name, account in by_node[node_id]["tenants"].items():
            lost = int(account.get("fault_shed", 0))
            target = router.placement.get(name)
            if lost > 0 and target is not None:
                replay_lists.setdefault(target, []).append((name, lost))
    # sorted() keeps each replay burst's order canonical.
    replay_map = {node_id: tuple(sorted(pairs))
                  for node_id, pairs in replay_lists.items()}
    return (survivors, spare_pool, persistent_dead, replay_map, migrated,
            promotions, epoch_dead, True)


# --------------------------------------------------------------------------- #
# The deterministic merge
# --------------------------------------------------------------------------- #
def _merge_reports(reports: List[Dict[str, Any]], metrics: MetricsSnapshot,
                   config: FleetConfig,
                   extra: Dict[str, Any]) -> Tuple[List[Dict[str, Any]], float]:
    """Fold per-(node, epoch) reports into per-tenant + ``__all__`` rows;
    returns them with the fleet's elapsed time (the slowest node of each
    epoch, summed).  The fault totals come from ``metrics``, the reports'
    snapshots already merged.

    Reports are consumed sorted by ``(epoch, node_id)`` — the canonical
    order — so sample concatenation (and therefore every percentile) is
    reproducible bit for bit.  Each
    tenant's samples come from the ``latency_ns.<tenant>`` histogram of the
    report's own metrics snapshot.
    """
    ordered = sorted(reports, key=lambda r: (r["epoch"], r["node_id"]))
    chaos = config.chaos is not None
    per_tenant: Dict[str, TenantAccount] = {}
    samples: Dict[str, List[float]] = {}
    for report in ordered:
        histograms = report["metrics"]["histograms"]
        for name, account in report["tenants"].items():
            if name not in per_tenant:
                per_tenant[name] = TenantAccount(name, slo_ns=account["slo_ns"])
                samples[name] = []
            per_tenant[name].add(account)
            samples[name].extend(histograms[f"latency_ns.{name}"])

    epochs = sorted({r["epoch"] for r in ordered})
    elapsed_ns = sum(max(r["elapsed_ns"] for r in ordered if r["epoch"] == e)
                     for e in epochs)
    nodes_per_epoch = [sum(1 for r in ordered if r["epoch"] == e) for e in epochs]
    epoch_ns = config.epoch_us * 1000.0
    totals = {
        "nodes_mean": sum(nodes_per_epoch) / len(nodes_per_epoch),
        "nodes_max": max(nodes_per_epoch),
        # The cost axis: node-microseconds (and fabric-us) actually powered
        # on, cost_weight-scaled for heterogeneous fleets.
        "node_us": sum(r["cost_weight"] * epoch_ns / 1000.0 for r in ordered),
        "fabric_us": sum(r["fabrics"] * epoch_ns / 1000.0 for r in ordered),
        "migrations": sum(r["migrations"] for r in ordered),
        "migration_stall_us": sum(r["migration_stall_ns"] for r in ordered) / 1000.0,
        "reconfigurations": sum(r["reconfigurations"] for r in ordered),
        "reconfig_us_total": sum(r["reconfig_us_total"] for r in ordered),
        "service_us_total": sum(r["service_us_total"] for r in ordered),
    }
    if config.power:
        totals["energy_nj"] = sum(r["energy_pj"] for r in ordered) / 1000.0
    if chaos:
        for key in FAULT_COUNTERS:
            totals[key] = metrics.counters[key]
        totals["spare_us"] = sum(
            r["cost_weight"] * epoch_ns / 1000.0 for r in ordered if r["spare"])

    busy_us = totals["service_us_total"] + totals["reconfig_us_total"]
    totals["reconfig_overhead"] = (totals["reconfig_us_total"] / busy_us
                                   if busy_us > 0 else 0.0)

    rows = tenant_rows(per_tenant, samples, elapsed_ns, extra, chaos)
    for row in rows:
        row.update(totals)
    return rows, elapsed_ns
