"""One simulated Dolly serving node: a PR 5 deployment behind a fleet.

A *node* is an independent Dolly system serving its assigned tenants — a
:class:`~repro.serve.scheduler.FabricScheduler` with ``fabrics`` eFPGA
fabrics, its own simulation kernel, its own traffic sources and its own
SLO accounting.  Nodes are deliberately *share-nothing*: one node's
simulation reads only its :class:`NodeSpec`, its tenant assignments and a
seed derived arithmetically from ``(seed, node_id, epoch)``, so the cluster
layer can merge node reports in any order it chooses and still get the
same rows (it sorts them by node id; see ``docs/fleet.md``).

Nodes may differ in fabric count (:attr:`NodeSpec.fabrics`); the placement
policies normalize load by fabric count so a 2-fabric node absorbs twice
the traffic.  Every node serves at the :class:`ServeConfig` defaults for
queue capacity and patience, and at the serving clocks (the
:data:`~repro.serve.scheduler.SYSTEM_MHZ` system clock, each accelerator
at its Fmax).

A tenant that *migrates* onto a node (the router re-placed it) pays a real
cost before its stream starts there: the target fabric must be programmed
from scratch (``config_bits / PROGRAMMING_BITS_PER_CYCLE`` system cycles,
exactly what :func:`~repro.core.control_hub.transfer_bitstream` charges)
plus a state-transfer stall.  The stall is applied as the traffic source's
``start_delay_ns``, so a migration shows up where it hurts: requests that
would have arrived during the blackout never get served there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

import random

from repro.core.control_hub import PROGRAMMING_BITS_PER_CYCLE, program_cycles
from repro.serve.catalog import resolve_accelerator
from repro.serve.deployment import Deployment
from repro.serve.scheduler import SYSTEM_MHZ, FabricScheduler, ServeConfig
from repro.serve.traffic import Request, TenantSpec, TrafficSource
from repro.sim import Delay
from repro.sim.stats import mix_seed

#: Fixed state-transfer component of a tenant migration (ns): shipping the
#: tenant's context (queue snapshot, accelerator state) to the target node.
STATE_TRANSFER_NS = 25_000.0


@dataclass(frozen=True)
class NodeSpec:
    """Static description of one fleet node."""

    node_id: int
    #: eFPGA fabrics on this node (its scheduler drives all of them).
    fabrics: int = 1
    #: Relative cost of one node-second (heterogeneous pricing/power class).
    cost_weight: float = 1.0
    #: Hot spare: powered on (it burns cost/energy every epoch) but excluded
    #: from placement until chaos recovery promotes it to replace a dead node.
    spare: bool = False

    def __post_init__(self) -> None:
        if self.node_id < 0:
            raise ValueError(f"node_id cannot be negative, got {self.node_id}")
        if self.fabrics < 1:
            raise ValueError(f"need >= 1 fabric, got {self.fabrics}")
        if self.cost_weight <= 0:
            raise ValueError(f"cost_weight must be positive, got {self.cost_weight}")

    @property
    def name(self) -> str:
        return f"node{self.node_id}"


@dataclass(frozen=True)
class TenantShare:
    """One tenant's assignment onto a node for one epoch."""

    tenant: TenantSpec
    #: Offered open-loop rate for this epoch (closed loops pace themselves).
    rate_rps: float
    #: True when the router moved the tenant here this epoch (pays a stall).
    migrated: bool = False

    def load_proxy(self) -> float:
        """Dimensionless offered-load estimate used by placement policies.

        Rate times the catalog's mean service cycles — clock-free on
        purpose, since placement happens before any node is simulated.
        """
        spec = resolve_accelerator(self.tenant.accelerator)
        mean_size = (self.tenant.size_min + self.tenant.size_max) / 2.0
        return self.rate_rps * spec.service_cycles(int(mean_size))


def node_seed(seed: int, node_id: int, epoch: int) -> int:
    """Per-(node, epoch) RNG stream base (:func:`~repro.sim.stats.mix_seed`).

    Tenant identity is mixed in later by :meth:`TenantSpec.rng_seed`.
    """
    return mix_seed(seed, node=node_id, epoch=epoch)


def migration_stall_ns(scheduler: FabricScheduler, accelerator: str) -> float:
    """The blackout a migrated tenant pays before serving on a new node:
    one full bitstream program at the serving system clock, plus the fixed
    :data:`STATE_TRANSFER_NS`."""
    bitstream = scheduler.accelerators[accelerator].bitstream
    cycles = program_cycles(bitstream.config_bits, PROGRAMMING_BITS_PER_CYCLE)
    return cycles * 1000.0 / SYSTEM_MHZ + STATE_TRANSFER_NS


def _replay_burst(scheduler: FabricScheduler, tenant: TenantSpec, count: int,
                  seed: int, start_delay_ns: float, start_id: int):
    """Re-offer ``count`` requests a dead node lost for ``tenant``.

    The burst arrives right after the tenant's migration blackout on its
    new node, back-to-back (the router replays its retained queue).  Sizes
    come from a dedicated stream (``stream=7``) of the tenant's seeded RNG,
    so the burst never perturbs the tenant's regular arrival draws.
    """
    rng = random.Random(tenant.rng_seed(seed, stream=7))
    if start_delay_ns > 0:
        yield Delay(start_delay_ns)
    for offset in range(count):
        request = Request(
            request_id=start_id + offset,
            tenant=tenant.name,
            accelerator=tenant.accelerator,
            size=rng.randint(tenant.size_min, tenant.size_max),
            priority=tenant.priority,
            slo_ns=tenant.slo_ns,
        )
        if scheduler.submit(request):
            # Surfaces in the tenant's ``replayed`` column: the request is a
            # re-offer of one a dead node lost, not organic arrival.
            scheduler.note_replay(request)
    return count


def simulate_node(
    node: NodeSpec,
    shares: Tuple[TenantShare, ...],
    policy: str,
    epoch_ns: float,
    epoch: int,
    seed: int,
    power: bool = False,
    chaos_events: Tuple[Any, ...] = (),
    chaos_recovery: bool = True,
    failed_fabrics: Tuple[int, ...] = (),
    replays: Tuple[Tuple[str, int], ...] = (),
    telemetry_window_us: Optional[float] = None,
) -> Dict[str, Any]:
    """Simulate one node for one epoch; returns a picklable report dict.

    The report ships each fact once: the node's identity, its per-tenant
    accounts (the router's submitted/shed counts sum from these), a
    metrics snapshot (fault counters; ``queue_depth_mean`` and
    ``busy_fraction`` gauges; ``latency_ns.<tenant>`` histograms holding
    the raw samples the cluster merges into exact percentiles), and what
    only the node knows: fabric time, migrations, energy (zero unless
    ``power=True``) and ``dead_fabrics``.  Everything is a plain
    dict/list/float: reports are golden-hashed, and the Runner pickles the
    rows built from them; ``docs/fleet.md`` lists the keys.

    Chaos inputs are plain data computed by the *parent* (see
    ``docs/chaos.md``): ``chaos_events`` are this (node, epoch)'s resolved
    :class:`~repro.chaos.FaultEvent` draws, ``failed_fabrics`` carries
    fabric indices that died permanently in earlier epochs, and ``replays``
    re-offers requests a dead node lost, as an epoch-start burst per tenant.
    The faults a node sees are therefore fixed before it simulates: a pure
    function of the schedule, the epoch and the node id.

    ``telemetry_window_us`` attaches a tumbling-window
    :class:`~repro.obs.monitor.TelemetryMonitor`; the report gains a
    ``"telemetry"`` key (stream in dict form, timestamps already on the
    global fleet timeline) only when enabled, so monitor-off reports keep
    their exact shape.
    """
    config = ServeConfig(
        policy=policy,
        num_fabrics=node.fabrics,
        accelerators=tuple(dict.fromkeys(
            share.tenant.accelerator for share in shares)) or ("popcount",),
    )
    chaos_engaged = bool(chaos_events) or bool(failed_fabrics) or bool(replays)
    deployment = Deployment(
        config, name=node.name, telemetry_window_us=telemetry_window_us,
        node_id=node.node_id, epoch=epoch,
        t0_ps=epoch * int(round(epoch_ns * 1000.0)), power=power,
        chaos_events=chaos_events if chaos_engaged else None,
        recovery=chaos_recovery, failed_fabrics=failed_fabrics)
    sim, scheduler, monitor = deployment.sim, deployment.scheduler, deployment.monitor

    # Per tenant: its index among the shares and its migration blackout.
    placed: Dict[str, Tuple[int, float]] = {}
    sources = []
    for index, share in enumerate(shares):
        stall = 0.0
        if share.migrated:
            stall = migration_stall_ns(scheduler, share.tenant.accelerator)
        placed[share.tenant.name] = (index, stall)
        # Pre-register so a tenant whose blackout swallows the whole epoch
        # still reports a (zeroed) row instead of silently vanishing.
        monitor.register(share.tenant.name, share.tenant.slo_ns)
        sources.append(TrafficSource(
            sim, share.tenant, scheduler.submit, share.rate_rps,
            duration_ns=epoch_ns,
            seed=node_seed(seed, node.node_id, epoch),
            start_id=(epoch * len(shares) + index) * 1_000_000,
            start_delay_ns=stall,
        ))
    processes = [process for source in sources for process in source.start()]
    for name, count in replays:
        if name not in placed or count < 1:
            continue
        index, stall = placed[name]
        processes.append(sim.process(
            _replay_burst(scheduler, shares[index].tenant, count,
                          node_seed(seed, node.node_id, epoch), stall,
                          start_id=(epoch * len(shares) + index)
                          * 1_000_000 + 500_000),
            name=f"{node.name}.replay.{name}"))

    elapsed_ns = deployment.run(processes, epoch_ns)
    totals = scheduler.fabric_totals()
    busy_ns = (totals["service_us_total"] + totals["reconfig_us_total"]) * 1000.0
    # The steering signals live in the snapshot as gauges; the cluster
    # reads them there (and the fleet-level merge can reason about peaks).
    scheduler.metrics.gauge("queue_depth_mean").set(
        monitor.queue_depth.time_weighted_mean())
    scheduler.metrics.gauge("busy_fraction").set(
        busy_ns / (node.fabrics * elapsed_ns) if elapsed_ns else 0.0)
    # Admission-queue free-slot low-water mark.  A *min*-merge gauge: the
    # fleet-wide value is the worst node's headroom, which a max merge
    # would silently report as the best node's.
    peak_depth = max(monitor.queue_depth.values, default=0.0)
    scheduler.metrics.gauge("free_capacity", mode="min").set(
        config.queue_capacity - peak_depth)
    report: Dict[str, Any] = {
        "node_id": node.node_id,
        "epoch": epoch,
        "fabrics": node.fabrics,
        "cost_weight": node.cost_weight,
        "spare": node.spare,
        "elapsed_ns": elapsed_ns,
        "tenants": {name: dict(vars(account))
                    for name, account in sorted(monitor.accounts.items())},
        # Counters (fault counters included), gauges and the
        # ``latency_ns.<tenant>`` samples, in dict form.
        "metrics": deployment.metrics().as_dict(),
        **totals,
        "migrations": sum(share.migrated for share in shares),
        "migration_stall_ns": sum((stall for _, stall in placed.values()), 0.0),
        "energy_pj": sum(model.last_window_pj or 0.0
                         for model in deployment.energy),
        # Fabrics still dead at epoch end: permanent damage the cluster
        # carries into the next epoch as ``failed_fabrics``.
        "dead_fabrics": sorted(
            fabric.index for fabric in scheduler.fabrics if fabric.failed),
    }
    if deployment.telemetry is not None:
        report["telemetry"] = deployment.telemetry.stream.as_dict()
    return report
