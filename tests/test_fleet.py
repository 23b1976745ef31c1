"""Tests for the ``repro.fleet`` cluster layer: placement policies, the
router's watermark migration, the autoscaler, per-node simulation and its
migration-cost accounting, the deterministic merge, serial == process for
fleet cells under the Runner, the per-tenant sum law, and the
``fleet_scaling`` acceptance pins (affinity placement beats consistent-hash
on p99 at equal node count; autoscaling matches static goodput at lower
node-cost)."""

import json
import os
import subprocess
import sys

import pytest

from repro.api import Runner
from repro.core.control_hub import PROGRAMMING_BITS_PER_CYCLE
from repro.fleet import (
    STATE_TRANSFER_NS,
    Autoscaler,
    AutoscalerConfig,
    FleetConfig,
    NodeSpec,
    Router,
    TenantShare,
    make_placement,
    migration_stall_ns,
    node_seed,
    run_fleet,
    simulate_node,
)
from repro.fleet.experiments import (
    DEFAULT_RATE_PROFILE,
    FLEET_TENANTS,
    fleet_scaling_cell,
    fleet_scaling_summary,
    pareto_front,
)
from repro.serve.scheduler import SYSTEM_MHZ, FabricScheduler, ServeConfig
from repro.serve.traffic import ClientPopulation, TenantSpec
from repro.sim import Simulator

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def aggregate_row(rows):
    return next(row for row in rows if row["tenant"] == "__all__")


def make_shares(tenants=FLEET_TENANTS, rate_rps=40_000.0):
    return tuple(TenantShare(tenant=t, rate_rps=rate_rps) for t in tenants)


def make_nodes(count, fabrics=1):
    return [NodeSpec(node_id=i, fabrics=fabrics) for i in range(count)]


# --------------------------------------------------------------------------- #
# Specs and validation
# --------------------------------------------------------------------------- #
def test_spec_validation():
    with pytest.raises(ValueError, match="node_id"):
        NodeSpec(node_id=-1)
    with pytest.raises(ValueError, match="fabric"):
        NodeSpec(node_id=0, fabrics=0)
    with pytest.raises(ValueError, match="cost_weight"):
        NodeSpec(node_id=0, cost_weight=0.0)
    with pytest.raises(ValueError, match="node"):
        FleetConfig(nodes=0)
    with pytest.raises(ValueError, match="epoch"):
        FleetConfig(epochs=0)
    with pytest.raises(ValueError, match="node_executor"):
        FleetConfig(node_executor="threads")
    with pytest.raises(ValueError, match=r'Runner\(executor="process"\)'):
        FleetConfig(node_executor="process")
    with pytest.raises(TypeError, match="workers"):
        FleetConfig(workers=2)
    with pytest.raises(ValueError, match="placement"):
        FleetConfig(placement="random")
    with pytest.raises(ValueError, match="min_nodes"):
        AutoscalerConfig(min_nodes=5, max_nodes=2)
    with pytest.raises(ValueError, match="watermark"):
        Router("hash", migrate_watermark=0.0)
    with pytest.raises(ValueError, match="placement"):
        make_placement("round_robin")


@pytest.mark.parametrize("fields, error, match", [
    ({"policy": "bogus"}, ValueError, "scheduling policy"),
    ({"queue_capacity": 0}, TypeError, "queue_capacity"),
    ({"fabrics_per_node": 0}, ValueError, "fabric"),
    ({"policy": "affinity", "patience_ns": -1.0}, TypeError, "patience_ns"),
], ids=["policy", "queue_capacity", "fabrics_per_node", "patience_ns"])
def test_fleet_config_rejects_bad_node_serving_fields(fields, error, match):
    """A bad per-node serving field fails when the FleetConfig is built,
    not when the first node simulates.  The queue bound and patience are
    not fleet fields at all (every node serves at the ``ServeConfig``
    values), so passing one fails as an unknown argument."""
    with pytest.raises(error, match=match):
        FleetConfig(**fields)


@pytest.mark.parametrize("fields, match", [
    ({"up_shed_fraction": -0.1}, "up_shed_fraction"),
    ({"up_shed_fraction": 1.5}, "up_shed_fraction"),
    ({"down_busy_fraction": -0.01}, "down_busy_fraction"),
    ({"down_busy_fraction": 2.0}, "down_busy_fraction"),
    ({"up_queue_depth": -1.0}, "up_queue_depth"),
    ({"cooldown_epochs": -1}, "cooldown_epochs"),
], ids=["shed_low", "shed_high", "busy_low", "busy_high", "queue_depth",
        "cooldown"])
def test_autoscaler_config_rejects_out_of_range_fields(fields, match):
    with pytest.raises(ValueError, match=match):
        AutoscalerConfig(**fields)


def test_autoscaler_config_accepts_the_range_bounds():
    AutoscalerConfig(up_shed_fraction=0.0, down_busy_fraction=1.0,
                     up_queue_depth=0.0, cooldown_epochs=0)
    AutoscalerConfig(up_shed_fraction=1.0, down_busy_fraction=0.0)


def test_node_seed_streams_are_distinct_and_bounded():
    seeds = {node_seed(2023, node, epoch)
             for node in range(16) for epoch in range(8)}
    assert len(seeds) == 16 * 8  # no collisions across the whole fleet grid
    assert all(0 <= s <= 0x7FFFFFFF for s in seeds)
    assert node_seed(2023, 3, 1) != node_seed(2024, 3, 1)


def test_seed_mixing_rule_is_pinned():
    """Node, fault and tenant streams share one mixing rule; these values
    were recorded before the three spellings became one helper."""
    from repro.chaos.schedule import FaultSchedule, FaultSpec

    assert [node_seed(*args) for args in
            [(2023, 0, 0), (2023, 3, 1), (7, 5, 9), (0, 0, 0), (-1, 2, 3)]] == [
        2023006069, 2023134555, 7982177, 0, 2146813670]
    schedule = FaultSchedule(seed=2023, specs=(FaultSpec("seu", 0.5),
                                               FaultSpec("link", 1.0)))
    assert [schedule.stream_seed(*args) for args in
            [(0, 0, 0), (1, 3, 2), (0, 9, 5)]] == [847754513, 1438616239, 848736669]
    alpha = TenantSpec("alpha", "popcount")
    assert [alpha.rng_seed(*args) for args in
            [(2023, 0), (2023, 7), (7, 3), (0, 0)]] == [
        1232394463, 1232394470, 1363872066, 1356872042]
    assert TenantSpec("bravo", "sort64").rng_seed(2023, 1) == 36722687


def test_client_population_thinning():
    population = ClientPopulation(clients=1_000_000, think_ms=50.0,
                                  thin_factor=50.0)
    assert population.offered_rps == pytest.approx(20_000_000.0)
    assert population.thinned_rps == pytest.approx(400_000.0)
    with pytest.raises(ValueError, match="client"):
        ClientPopulation(clients=0)
    with pytest.raises(ValueError, match="thin_factor"):
        ClientPopulation(clients=10, thin_factor=0.0)


# --------------------------------------------------------------------------- #
# Placement policies
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("kind", ["hash", "least_loaded", "affinity"])
def test_placement_covers_every_tenant_deterministically(kind):
    policy = make_placement(kind)
    shares, nodes = make_shares(), make_nodes(4)
    placement = policy.place(shares, nodes)
    assert set(placement) == {s.tenant.name for s in shares}
    assert set(placement.values()) <= {n.node_id for n in nodes}
    assert placement == policy.place(shares, nodes)  # pure function


def test_hash_placement_moves_only_arc_neighbours_on_growth():
    """The consistent-hash property: adding a node re-places tenants only
    onto the new node — nobody shuffles between surviving nodes."""
    policy = make_placement("hash")
    shares = make_shares()
    before = policy.place(shares, make_nodes(4))
    after = policy.place(shares, make_nodes(5))
    for name in before:
        assert after[name] in (before[name], 4)


def test_least_loaded_placement_balances_per_fabric():
    policy = make_placement("least_loaded")
    shares = make_shares()
    # Homogeneous nodes: the greedy packing keeps the spread tight.
    placement = policy.place(shares, make_nodes(4))
    loads = {nid: 0.0 for nid in range(4)}
    for share in shares:
        loads[placement[share.tenant.name]] += share.load_proxy()
    assert max(loads.values()) <= 2.0 * min(loads.values())
    # A 3-fabric node absorbs the bulk of the load.
    fat = [NodeSpec(node_id=0, fabrics=3), NodeSpec(node_id=1, fabrics=1)]
    fat_placement = policy.place(shares, fat)
    fat_load = sum(s.load_proxy() for s in shares
                   if fat_placement[s.tenant.name] == 0)
    assert fat_load > sum(s.load_proxy() for s in shares) / 2


def test_affinity_placement_keeps_bitstream_groups_together():
    policy = make_placement("affinity")
    placement = policy.place(make_shares(), make_nodes(4))
    node_of = {}
    for tenant in FLEET_TENANTS:
        node = placement[tenant.name]
        assert node_of.setdefault(tenant.accelerator, node) == node
    # Four accelerator groups over four nodes: one bitstream per node.
    assert len(set(node_of.values())) == 4


# --------------------------------------------------------------------------- #
# Router: placement bookkeeping and watermark migration
# --------------------------------------------------------------------------- #
def test_router_first_place_moves_nobody():
    router = Router("affinity")
    moved = router.place(make_shares(), make_nodes(4))
    assert moved == set() and router.migrations == 0
    assert set(router.placement) == {t.name for t in FLEET_TENANTS}


def test_router_replace_counts_moves_after_node_set_change():
    router = Router("affinity")
    shares = make_shares()
    router.place(shares, make_nodes(4))
    before = dict(router.placement)
    moved = router.place(shares, make_nodes(2))
    assert moved == {name for name in before
                    if router.placement[name] != before[name]}
    assert router.migrations == len(moved) > 0


def signals_for(nodes, queue_depth, busy):
    return {node.node_id: {"queue_depth_mean": queue_depth[node.node_id],
                           "busy_fraction": busy[node.node_id]}
            for node in nodes}


def test_router_watermark_migration_drains_hot_node():
    router = Router("least_loaded", migrate_watermark=8.0)
    shares, nodes = make_shares(), make_nodes(2)
    router.place(shares, nodes)
    hot = router.placement[shares[0].tenant.name]
    cold = 1 - hot
    moved = router.rebalance(
        signals_for(nodes, queue_depth={hot: 20.0, cold: 0.5},
                    busy={hot: 1.0, cold: 0.2}),
        shares, nodes)
    assert len(moved) == 1
    victim = next(iter(moved))
    # The victim was the hot node's largest-load tenant; it is now cold-side.
    hot_shares = [s for s in shares if s.tenant.name == victim
                  or router.placement[s.tenant.name] == hot]
    assert all(s.load_proxy() <= next(sh.load_proxy() for sh in shares
                                      if sh.tenant.name == victim)
               for s in hot_shares)
    assert router.placement[victim] == cold
    assert router.migrations == 1


def test_router_holds_migration_when_no_cool_target():
    router = Router("least_loaded", migrate_watermark=8.0)
    shares, nodes = make_shares(), make_nodes(2)
    router.place(shares, nodes)
    before = dict(router.placement)
    moved = router.rebalance(
        signals_for(nodes, queue_depth={0: 20.0, 1: 30.0},
                    busy={0: 1.0, 1: 1.0}),
        shares, nodes)
    # Both nodes above watermark: migrating would just reshuffle the pain.
    assert moved == set() and router.placement == before


# --------------------------------------------------------------------------- #
# Autoscaler
# --------------------------------------------------------------------------- #
def autoscaler(enabled=True, **kwargs):
    kwargs.setdefault("cooldown_epochs", 0)
    config = AutoscalerConfig(enabled=enabled, min_nodes=1, max_nodes=4,
                              **kwargs)
    return Autoscaler(config, NodeSpec(node_id=3))


def sig(submitted=100, shed=0, queue=0.0, busy=0.5):
    return {"submitted": submitted, "shed": shed,
            "queue_depth_mean": queue, "busy_fraction": busy}


def test_autoscaler_decisions():
    scaler = autoscaler()
    assert scaler.decide({0: sig(shed=10)}) == 1          # shedding -> grow
    assert scaler.decide({0: sig(queue=9.0)}) == 1        # deep queue -> grow
    assert scaler.decide({0: sig(busy=0.1)}) == -1        # idle -> shrink
    assert scaler.decide({0: sig(busy=0.6)}) == 0         # steady -> hold
    assert autoscaler(enabled=False).decide({0: sig(shed=50)}) == 0


def test_autoscaler_cooldown_suppresses_flapping():
    scaler = autoscaler(cooldown_epochs=2)
    nodes = make_nodes(2)
    grown = scaler.apply(1, nodes, {n.node_id: sig() for n in nodes}, epoch=0)
    assert len(grown) == 3
    assert scaler.decide({0: sig(shed=10)}) == 0  # cooling down
    assert scaler.decide({0: sig(shed=10)}) == 0
    assert scaler.decide({0: sig(shed=10)}) == 1  # cooldown expired


def test_autoscaler_grow_and_shrink_nodes_respect_bounds():
    scaler = autoscaler()
    nodes = make_nodes(4)
    signals = {n.node_id: sig() for n in nodes}
    assert scaler.apply(1, nodes, signals, epoch=0) is None  # at max_nodes
    grown = scaler.apply(1, make_nodes(2), signals, epoch=0)
    assert [n.node_id for n in grown] == [0, 1, 4]  # fresh id, not reused
    one = make_nodes(1)
    assert scaler.apply(-1, one, {0: sig(busy=0.1)}, epoch=1) is None
    signals = {0: sig(busy=0.9), 1: sig(busy=0.05)}
    shrunk = scaler.apply(-1, make_nodes(2), signals, epoch=1)
    assert [n.node_id for n in shrunk] == [0]  # least-busy node drained
    assert [e["action"] for e in scaler.events] == ["grow", "shrink"]


# --------------------------------------------------------------------------- #
# Node simulation and migration cost
# --------------------------------------------------------------------------- #
def test_simulate_node_report_is_deterministic_and_complete():
    node = NodeSpec(node_id=0, fabrics=1)
    shares = make_shares(FLEET_TENANTS[:2], rate_rps=60_000.0)
    kwargs = dict(node=node, shares=shares, policy="fcfs",
                  epoch_ns=200_000.0, epoch=0, seed=2023)
    report = simulate_node(**kwargs)
    assert report == simulate_node(**kwargs)
    assert report != simulate_node(**{**kwargs, "seed": 2024})
    assert sum(account["submitted"]
               for account in report["tenants"].values()) > 0
    assert set(report["tenants"]) == {s.tenant.name for s in shares}
    assert 0.0 < report["metrics"]["gauges"]["busy_fraction"] <= 1.0
    assert report["migrations"] == 0 and report["migration_stall_ns"] == 0.0
    json.dumps(report)  # picklable/serializable: plain data only


#: Every key a node report carries (``telemetry`` only with the monitor on).
NODE_REPORT_KEYS = {
    "node_id", "epoch", "fabrics", "cost_weight", "spare", "elapsed_ns",
    "tenants", "metrics", "reconfigurations", "reconfig_us_total",
    "service_us_total", "migrations", "migration_stall_ns", "energy_pj",
    "dead_fabrics",
}


def test_node_report_ships_each_fact_once():
    """A report carries exactly :data:`NODE_REPORT_KEYS`; none of them
    repeats a metric of its snapshot or a field its tenant accounts sum."""
    kwargs = dict(node=NodeSpec(node_id=0, fabrics=2),
                  shares=make_shares(FLEET_TENANTS[:2], rate_rps=60_000.0),
                  policy="fcfs", epoch_ns=100_000.0, epoch=0, seed=2023)
    report = simulate_node(**kwargs)
    assert set(report) == NODE_REPORT_KEYS
    assert report["dead_fabrics"] == []
    metrics = report["metrics"]
    derivable = (set(metrics["counters"]) | set(metrics["gauges"])
                 | {key for account in report["tenants"].values()
                    for key in account})
    assert set(report) & derivable == set()

    observed = simulate_node(**kwargs, telemetry_window_us=50.0)
    assert set(observed) == NODE_REPORT_KEYS | {"telemetry"}
    damaged = simulate_node(**kwargs, failed_fabrics=(1,))
    assert set(damaged) == NODE_REPORT_KEYS
    assert damaged["dead_fabrics"] == [1]


def test_node_free_capacity_is_the_serving_queue_bound_minus_its_peak():
    """Every node serves at the ``ServeConfig`` queue bound, so its
    free-slot low-water mark is that bound minus the deepest queue seen."""
    report = simulate_node(
        node=NodeSpec(node_id=0), shares=make_shares(rate_rps=40_000.0),
        policy="fcfs", epoch_ns=100_000.0, epoch=0, seed=2023)
    metrics = report["metrics"]
    peak = max(depth for _, depth in metrics["series"]["queue_depth"])
    assert 0 < peak < ServeConfig().queue_capacity
    assert metrics["gauges"]["free_capacity"] == ServeConfig().queue_capacity - peak
    assert metrics["gauge_modes"]["free_capacity"] == "min"


def test_migration_stall_charges_programming_plus_state_transfer():
    scheduler = FabricScheduler(Simulator(), ServeConfig(
        accelerators=("popcount",)))
    bitstream = scheduler.accelerators["popcount"].bitstream
    cycles = -(-bitstream.config_bits // PROGRAMMING_BITS_PER_CYCLE)
    expected_program_ns = cycles * 1000.0 / SYSTEM_MHZ
    stall = migration_stall_ns(scheduler, "popcount")
    assert stall == pytest.approx(expected_program_ns + STATE_TRANSFER_NS)


def test_migrated_tenant_pays_the_blackout():
    node = NodeSpec(node_id=0)
    tenant = FLEET_TENANTS[0]
    kwargs = dict(node=node, policy="fcfs", epoch_ns=400_000.0, epoch=0,
                  seed=2023)
    settled = simulate_node(
        shares=(TenantShare(tenant=tenant, rate_rps=100_000.0),), **kwargs)
    migrated = simulate_node(
        shares=(TenantShare(tenant=tenant, rate_rps=100_000.0, migrated=True),),
        **kwargs)
    assert migrated["migrations"] == 1
    assert migrated["migration_stall_ns"] > STATE_TRANSFER_NS
    # Requests that would have arrived during the blackout never get served.
    assert (migrated["tenants"][tenant.name]["submitted"]
            < settled["tenants"][tenant.name]["submitted"])


def test_blackout_swallowing_the_whole_epoch_keeps_the_tenant_row():
    """Regression: a migration blackout longer than the epoch leaves the
    tenant with zero submissions — it must still report a zeroed account
    (the monitor pre-registers every placed share), and a closed-loop
    tenant's clients must terminate instead of idling past the epoch."""
    node = NodeSpec(node_id=0)
    tenants = (FLEET_TENANTS[0],
               TenantSpec(name="closedloop", accelerator="popcount",
                          pattern="closed", clients=2, think_ns=5_000.0))
    shares = tuple(TenantShare(tenant=t, rate_rps=100_000.0, migrated=True)
                   for t in tenants)
    epoch_ns = 20_000.0
    assert STATE_TRANSFER_NS > epoch_ns  # each blackout outlasts the epoch
    report = simulate_node(node=node, shares=shares, policy="fcfs",
                           epoch_ns=epoch_ns, epoch=0, seed=2023)
    assert set(report["tenants"]) == {t.name for t in tenants}
    for name, account in report["tenants"].items():
        assert account["submitted"] == 0, name
        assert account["completed"] == 0, name
    assert report["migration_stall_ns"] > 2 * STATE_TRANSFER_NS


# --------------------------------------------------------------------------- #
# The cluster driver: deterministic merge; serial == process under the Runner
# --------------------------------------------------------------------------- #
def run_small_fleet(seed=2023, autoscale=False, placement="least_loaded"):
    config = FleetConfig(
        nodes=3, placement=placement, epochs=3, epoch_us=300.0,
        migrate_watermark=2.0,
        autoscaler=AutoscalerConfig(enabled=autoscale, min_nodes=1,
                                    max_nodes=3, up_queue_depth=0.75,
                                    cooldown_epochs=0))
    return run_fleet(config, FLEET_TENANTS, total_rate_rps=300_000.0,
                     rate_profile=(0.5, 1.0, 0.5), seed=seed)


def test_run_fleet_process_rows_are_bit_identical_to_serial(monkeypatch):
    """Nodes simulate in this process, one call per (epoch, node) through
    the ``repro.fleet.cluster.simulate_node`` name (the name a profiler
    wraps), and the reports come out in the canonical ``(epoch, node_id)``
    order the merge folds them in.  Parallel fleet runs go through
    ``Runner(executor="process")`` instead (next test)."""
    import repro.fleet.cluster as cluster

    calls = []

    def counted(**kwargs):
        calls.append((kwargs["epoch"], kwargs["node"].node_id))
        return simulate_node(**kwargs)

    monkeypatch.setattr(cluster, "simulate_node", counted)
    outcome = run_small_fleet(autoscale=True)
    order = [(r["epoch"], r["node_id"]) for r in outcome.reports]
    assert calls == order == sorted(set(order))
    assert outcome.autoscaler.events  # the node set changed mid-run


def test_run_fleet_autoscaled_process_matches_serial():
    """A registered fleet cell whose autoscaler changes the node set
    mid-run gives the same rows and summary in a Runner pool worker as
    in this process."""
    overrides = dict(placement="affinity", nodes=2, autoscale=True)
    serial = Runner().run("fleet_scaling", **overrides)
    with Runner(executor="process", workers=2) as runner:
        parallel = runner.run("fleet_scaling", **overrides)
    assert parallel.stats.executor == "process"
    assert serial.rows and serial.rows == parallel.rows
    assert serial.summary == parallel.summary
    assert aggregate_row(serial.rows)["scale_events"] > 0


def test_run_fleet_is_seeded_and_validates_inputs():
    assert run_small_fleet(seed=2023).rows == run_small_fleet(seed=2023).rows
    assert run_small_fleet(seed=2023).rows != run_small_fleet(seed=9).rows
    config = FleetConfig(nodes=2, epochs=2)
    with pytest.raises(ValueError, match="tenant"):
        run_fleet(config, (), total_rate_rps=1000.0)
    with pytest.raises(ValueError, match="rate"):
        run_fleet(config, FLEET_TENANTS, total_rate_rps=0.0)
    with pytest.raises(ValueError, match="rate_profile"):
        run_fleet(config, FLEET_TENANTS, total_rate_rps=1000.0,
                  rate_profile=(1.0,))


def test_fleet_rows_are_pythonhashseed_independent():
    """Placement and RNG streams use CRC-32/arithmetic mixing only, so two
    interpreters with different string-hash randomization agree bit for bit."""
    script = (
        "import json, sys\n"
        "from repro.fleet.experiments import fleet_scaling_cell\n"
        "rows = fleet_scaling_cell('affinity', 2, False, epochs=2,\n"
        "                          epoch_us=200.0)\n"
        "json.dump(rows, sys.stdout, sort_keys=True)\n"
    )
    outputs = []
    for hashseed in ("0", "1", "31337"):
        env = dict(os.environ,
                   PYTHONPATH=os.path.join(REPO_ROOT, "src"),
                   PYTHONHASHSEED=hashseed)
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=env,
                              cwd=REPO_ROOT, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1] == outputs[2]


def test_migration_accounting_rolls_up_into_rows():
    # A tight watermark on a deliberately imbalanced placement forces
    # watermark migrations; their stalls must surface in the merged rows.
    outcome = run_small_fleet(placement="hash")
    aggregate = aggregate_row(outcome.rows)
    assert aggregate["migrations"] == sum(r["migrations"]
                                          for r in outcome.reports)
    if aggregate["migrations"] > 0:
        assert aggregate["migration_stall_us"] > 0.0
    assert outcome.router.migrations >= aggregate["migrations"]


@pytest.fixture(scope="module")
def one_migration_fleet():
    """Three hash-placed nodes under a watermark low enough that the
    router makes exactly one migration."""
    config = FleetConfig(nodes=3, placement="hash", epochs=4, epoch_us=300.0,
                         migrate_watermark=1.0,
                         autoscaler=AutoscalerConfig(enabled=False))
    return run_fleet(config, FLEET_TENANTS, total_rate_rps=200_000.0)


def tenant_sum(outcome, key):
    return sum(row[key] for row in outcome.rows if row["tenant"] != "__all__")


def test_per_tenant_fleet_completions_sum_to_the_fleet_total(one_migration_fleet):
    aggregate = aggregate_row(one_migration_fleet.rows)
    assert aggregate["completed"] > 0
    for key in ("submitted", "completed", "shed"):
        assert tenant_sum(one_migration_fleet, key) == aggregate[key], key
    assert aggregate["migrations"] == one_migration_fleet.router.migrations == 1


@pytest.mark.xfail(strict=True, reason=(
    "_merge_reports copies the fleet-wide migration total onto every "
    "tenant row, so 8 tenant rows sum to 8 migrations for 1"))
def test_per_tenant_fleet_migrations_sum_to_the_fleet_total(one_migration_fleet):
    assert tenant_sum(one_migration_fleet, "migrations") == 1


# --------------------------------------------------------------------------- #
# The fleet_scaling experiment: registration and acceptance pins
# --------------------------------------------------------------------------- #
def test_fleet_scaling_is_registered_with_full_grid():
    from repro.api.registry import get_experiment

    spec = get_experiment("fleet_scaling")
    assert spec.num_cells() == 3 * 3 * 2  # placement x nodes x autoscale
    assert "fleet" in spec.tags


def test_fleet_scaling_exposes_epochs_at_its_default():
    import inspect

    from repro.api import get_experiment

    spec = get_experiment("fleet_scaling")
    signature = inspect.signature(fleet_scaling_cell).parameters
    assert spec.fixed["epochs"] == signature["epochs"].default
    rows = Runner().run("fleet_scaling", placement="affinity", nodes=2,
                        autoscale=False, epochs=2).rows
    assert rows == fleet_scaling_cell("affinity", 2, False, epochs=2)


def test_fleet_scaling_cell_rows_are_deterministic():
    kwargs = dict(placement="affinity", nodes=2, autoscale=False, epochs=2)
    assert fleet_scaling_cell(**kwargs) == fleet_scaling_cell(**kwargs)


def test_pinned_affinity_beats_hash_on_p99_at_equal_nodes():
    """The acceptance pin: at 4 static nodes, bitstream-affinity placement
    beats consistent-hash sharding on cluster p99 (hash mixes accelerators
    per node and thrashes on reconfiguration) without giving up goodput."""
    hash_row = aggregate_row(fleet_scaling_cell("hash", 4, False))
    affinity = aggregate_row(fleet_scaling_cell("affinity", 4, False))
    assert affinity["p99_latency_us"] < 0.5 * hash_row["p99_latency_us"]
    assert affinity["goodput_krps"] > 0.8 * hash_row["goodput_krps"]
    assert affinity["reconfigurations"] < hash_row["reconfigurations"]


def test_pinned_autoscaler_matches_static_goodput_at_lower_cost():
    """The second pin: over the ramp profile, the autoscaled fleet keeps
    >= 90% of the static fleet's goodput while spending fewer cost-weighted
    node-microseconds."""
    static = aggregate_row(fleet_scaling_cell("affinity", 4, False))
    scaled = aggregate_row(fleet_scaling_cell("affinity", 4, True))
    assert scaled["goodput_krps"] >= 0.9 * static["goodput_krps"]
    assert scaled["node_us"] < 0.9 * static["node_us"]
    assert scaled["scale_events"] > 0
    assert scaled["nodes_max"] <= 4


def test_fleet_scaling_summary_reports_pins_and_pareto():
    rows = []
    for placement in ("hash", "affinity"):
        for autoscale in (False, True):
            rows.extend(fleet_scaling_cell(placement, 4, autoscale))
    summary = fleet_scaling_summary(rows)
    assert summary["affinity_p99_vs_hash[4n]"] < 1.0
    assert summary["autoscale_node_us_vs_static[affinity@4n]"] < 1.0
    assert summary["autoscale_goodput_vs_static[affinity@4n]"] >= 0.9
    assert summary["pareto_front"]


def test_pareto_front_drops_dominated_points():
    rows = [
        {"placement": "a", "nodes": 2, "autoscale": False,
         "node_us": 100.0, "p99_latency_us": 50.0, "goodput_krps": 10.0},
        {"placement": "b", "nodes": 2, "autoscale": False,
         "node_us": 100.0, "p99_latency_us": 60.0, "goodput_krps": 9.0},
        {"placement": "c", "nodes": 4, "autoscale": False,
         "node_us": 200.0, "p99_latency_us": 10.0, "goodput_krps": 12.0},
    ]
    front = pareto_front(rows)
    assert [row["placement"] for row in front] == ["a", "c"]


def test_default_rate_profile_ramps_up_and_down():
    assert max(DEFAULT_RATE_PROFILE) == 1.0
    assert DEFAULT_RATE_PROFILE[0] < 1.0
    assert DEFAULT_RATE_PROFILE[-1] < 1.0


def test_fleet_tenant_weights_are_normalized():
    assert sum(t.weight for t in FLEET_TENANTS) == pytest.approx(1.0)
    assert len({t.name for t in FLEET_TENANTS}) == len(FLEET_TENANTS)
