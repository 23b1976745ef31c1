"""The serving deployment: golden cells and the fleet ≡ serve law.

``run_serve`` and every fleet node build, run and report one deployment
(scheduler, SLO monitor, telemetry, energy, chaos).  The cells here pin the
paths that wiring reaches and the other goldens do not: per-fabric energy
on a serve run and on 2-fabric fleet nodes that migrate tenants, and fleet
chaos that carries a dead fabric across epochs and replays a dead node's
requests as a burst.  Each cell hashes its rows, its metrics snapshot and
(for fleets) every node report.

The law: a fleet of one node run for one epoch is the serve run with that
node's seed — every column both rows carry, and the telemetry stream, are
equal.

Regenerate only after an intentional output change, with::

    PYTHONPATH=src python -c "
    import json, sys; sys.path.insert(0, 'tests')
    from test_deployment import CELLS, cell_digests
    json.dump({name: cell_digests(CELLS[name]()) for name in CELLS},
              open('tests/data/deployment_golden.json', 'w'),
              indent=2, sort_keys=True)"
"""

import hashlib
import json
import os

import pytest

from repro.chaos import ChaosConfig, FaultSchedule, FaultSpec
from repro.chaos.experiments import build_schedule
from repro.fleet import FleetConfig, node_seed, run_fleet
from repro.fleet.autoscaler import AutoscalerConfig
from repro.fleet.experiments import FLEET_TENANTS
from repro.obs.experiments import noise_schedule
from repro.serve.experiments import get_mix, run_serve, serve_energy_cell
from repro.serve.scheduler import FAULT_COUNTERS

GOLDEN = os.path.join(os.path.dirname(__file__), "data",
                      "deployment_golden.json")


def _sha(material) -> str:
    return hashlib.sha256(json.dumps(
        material, sort_keys=True, separators=(",", ":"),
        default=str).encode("utf-8")).hexdigest()


def _serve_energy():
    outcome = run_serve("affinity", tenant_mix="duo", power=True)
    return {"rows": serve_energy_cell("affinity"),
            "metrics": outcome["metrics"].as_dict()}


def _fleet(config, **kwargs):
    outcome = run_fleet(config, FLEET_TENANTS, **kwargs)
    return {"rows": {"rows": outcome.rows, "chaos": outcome.chaos},
            "metrics": outcome.metrics.as_dict(), "reports": outcome.reports,
            "outcome": outcome}


def _fleet_power_migrations():
    """Two fabrics per node, power on, and autoscaler re-placements."""
    return _fleet(FleetConfig(
        nodes=4, placement="least_loaded", epochs=3, epoch_us=200.0,
        fabrics_per_node=2, power=True,
        autoscaler=AutoscalerConfig(enabled=True, min_nodes=1)),
        total_rate_rps=1_500_000.0, rate_profile=(0.3, 1.0, 1.0))


def _fleet_chaos_carryover_replay():
    """Node 0 loses one of its two fabrics for good; node 1 loses both,
    is replaced by the spare and its lost requests replay next epoch."""
    return _fleet(FleetConfig(
        nodes=3, spares=1, placement="affinity", policy="affinity",
        epochs=3, epoch_us=300.0, fabrics_per_node=2,
        autoscaler=AutoscalerConfig(enabled=False),
        chaos=ChaosConfig(FaultSchedule(seed=3, specs=(
            FaultSpec(kind="fabric", at_epoch=0, at_node=0),
            FaultSpec(kind="fabric", scope="node", at_epoch=0,
                      at_node=1))))),
        total_rate_rps=300_000.0)


CELLS = {
    "serve_energy_affinity": _serve_energy,
    "fleet_power_two_fabrics_migrations": _fleet_power_migrations,
    "fleet_chaos_carryover_replay": _fleet_chaos_carryover_replay,
}


def cell_digests(cell):
    return {key: _sha(cell[key])
            for key in ("rows", "metrics", "reports") if key in cell}


def _check_serve_energy(cell):
    assert cell["rows"][0]["energy_nj"] > 0


def _check_fleet_power(cell):
    reports = cell["reports"]
    assert sum(report["migrations"] for report in reports) > 0
    assert all(report["fabrics"] == 2 and report["energy_pj"] > 0
               for report in reports)


def _check_fleet_chaos(cell):
    by_key = {(r["epoch"], r["node_id"]): r for r in cell["reports"]}
    # The dead fabric rides along on node 0 in the next epochs.
    assert by_key[(0, 0)]["dead_fabrics"] == [1]
    assert by_key[(1, 0)]["dead_fabrics"] == [1]
    assert cell["outcome"].chaos["dead_nodes"] == [1]
    assert sum(account["replayed"] for (epoch, _), report in by_key.items()
               if epoch == 1 for account in report["tenants"].values()) > 0


CHECKS = {
    "serve_energy_affinity": _check_serve_energy,
    "fleet_power_two_fabrics_migrations": _check_fleet_power,
    "fleet_chaos_carryover_replay": _check_fleet_chaos,
}


@pytest.mark.parametrize("name", sorted(CELLS))
def test_deployment_cell_matches_golden(name):
    with open(GOLDEN) as handle:
        golden = json.load(handle)
    cell = CELLS[name]()
    CHECKS[name](cell)
    assert cell_digests(cell) == golden[name]


#: The fault columns a chaos fleet row carries, one per scheduler counter.
FLEET_FAULT_COLUMNS = ("faults_injected", "fabric_faults", "requests_lost",
                       "seu_scrubs", "link_faults")


def _fleet_chaos_mix(recovery):
    """The chaos experiment's mix (node kill, SEUs, link faults) on
    2-fabric nodes, so every fault counter moves."""
    return _fleet(FleetConfig(
        nodes=3, spares=1, placement="affinity", policy="affinity",
        epochs=3, epoch_us=300.0, fabrics_per_node=2,
        autoscaler=AutoscalerConfig(enabled=False),
        chaos=ChaosConfig(build_schedule(4.0, 2023), recovery=recovery)),
        total_rate_rps=600_000.0)


MERGE_LAW_CELLS = {
    "carryover_replay": _fleet_chaos_carryover_replay,
    "mix_recovery": lambda: _fleet_chaos_mix(True),
    "mix_no_recovery": lambda: _fleet_chaos_mix(False),
}


@pytest.mark.parametrize("name", sorted(MERGE_LAW_CELLS))
def test_fleet_fault_columns_sum_the_node_snapshots(name):
    """Node fault counters survive the merge: every row's fault column is
    the sum of that counter over the node reports' snapshots."""
    cell = MERGE_LAW_CELLS[name]()
    sums = {key: sum(report["metrics"]["counters"][key]
                     for report in cell["reports"])
            for key in FLEET_FAULT_COLUMNS}
    assert sums["faults_injected"] > 0
    for row in cell["outcome"].rows:
        assert {key: row[key] for key in FLEET_FAULT_COLUMNS} == sums


# --------------------------------------------------------------------------- #
# The law: fleet(1 node, 1 epoch) ≡ run_serve
# --------------------------------------------------------------------------- #
LAW_CASES = {
    "fcfs_quad": dict(policy="fcfs", mix="quad"),
    "sjf_mono": dict(policy="sjf", mix="mono"),
    "priority_quad_two_fabrics": dict(policy="priority", mix="quad",
                                      fabrics=2),
    "affinity_duo": dict(policy="affinity", mix="duo"),
    "affinity_duo_power": dict(policy="affinity", mix="duo", power=True),
    "fcfs_quad_telemetry": dict(policy="fcfs", mix="quad", telemetry=100.0),
    "affinity_duo_chaos_recovery": dict(
        policy="affinity", mix="duo",
        chaos=ChaosConfig(noise_schedule(4.0, 2023), recovery=True)),
    "affinity_duo_chaos_no_recovery": dict(
        policy="affinity", mix="duo",
        chaos=ChaosConfig(noise_schedule(4.0, 2023), recovery=False)),
}


def _law_pair(policy, mix, fabrics=1, power=False, telemetry=None,
              chaos=None, rate_krps=250.0, duration_us=600.0, seed=5):
    fleet = run_fleet(FleetConfig(
        nodes=1, epochs=1, epoch_us=duration_us, policy=policy,
        fabrics_per_node=fabrics, power=power, chaos=chaos,
        telemetry_window_us=telemetry,
        autoscaler=AutoscalerConfig(enabled=False)),
        get_mix(mix), rate_krps * 1000.0, seed=seed)
    serve = run_serve(policy, tenant_mix=mix, arrival_rate_krps=rate_krps,
                      duration_us=duration_us, num_fabrics=fabrics,
                      seed=node_seed(seed, 0, 0), power=power, chaos=chaos,
                      telemetry_window_us=telemetry)
    return fleet, serve


def _assert_law(fleet, serve):
    assert len(fleet.rows) == len(serve["rows"])
    mismatches = [
        (ours["tenant"], key, ours[key], theirs[key])
        for ours, theirs in zip(fleet.rows, serve["rows"])
        for key in ours.keys() & theirs.keys() if ours[key] != theirs[key]]
    assert mismatches == []
    assert fleet.elapsed_ns == serve["elapsed_ns"]
    if serve["telemetry"] is not None:
        assert fleet.telemetry.as_dict() == serve["telemetry"].as_dict()


@pytest.mark.parametrize("case", sorted(LAW_CASES))
def test_one_node_one_epoch_fleet_is_a_serve_run(case):
    _assert_law(*_law_pair(**LAW_CASES[case]))


def test_serve_chaos_rows_keep_per_tenant_fault_columns():
    """Deployment-wide fault counters never overwrite a tenant's own
    ``fault_shed``/``replayed``: each tenant sheds at least what it lost to
    faults, and the tenants add up to the ``__all__`` row."""
    for recovery in (False, True):
        rows = run_serve(
            "affinity", tenant_mix="duo", arrival_rate_krps=250.0,
            duration_us=600.0, seed=5,
            chaos=ChaosConfig(noise_schedule(4.0, 2023),
                              recovery=recovery))["rows"]
        *tenants, total = rows
        assert [row["tenant"] for row in tenants] == ["alpha", "beta"]
        assert total["fault_shed"] > 0 or total["replayed"] > 0
        for row in tenants:
            assert row["fault_shed"] <= row["shed"], (recovery, row["tenant"])
        for key in ("fault_shed", "replayed"):
            assert sum(row[key] for row in tenants) == total[key], key


# --------------------------------------------------------------------------- #
# One tally per request fact
# --------------------------------------------------------------------------- #
#: Serve cells for the one-tally pins: fault-free, and the chaos
#: experiment's mix on two fabrics with recovery on and off.
ONE_TALLY_SERVE = {
    "clean": dict(policy="affinity", tenant_mix="duo",
                  arrival_rate_krps=250.0, duration_us=600.0, seed=5),
    "chaos_recovery": dict(
        policy="fcfs", arrival_rate_krps=300.0, duration_us=400.0,
        num_fabrics=2, chaos=ChaosConfig(build_schedule(4.0, 2023),
                                         recovery=True)),
    "chaos_no_recovery": dict(
        policy="fcfs", arrival_rate_krps=300.0, duration_us=400.0,
        num_fabrics=2, chaos=ChaosConfig(build_schedule(4.0, 2023),
                                         recovery=False)),
}


@pytest.fixture(scope="module")
def chaos_fleet():
    return _fleet_chaos_mix(True)


def _serve_tally(name):
    outcome = run_serve(**ONE_TALLY_SERVE[name])
    if name != "clean":
        assert outcome["monitor"].faults > 0
    return outcome


@pytest.mark.parametrize("name", sorted(ONE_TALLY_SERVE))
def test_serve_snapshot_counts_only_the_fault_counters(name):
    """A deployment has one registry, and request outcomes are not in it:
    its counters are exactly the scheduler's fault counters."""
    outcome = _serve_tally(name)
    scheduler, monitor = outcome["scheduler"], outcome["monitor"]
    assert scheduler.metrics is monitor.metrics
    assert sorted(outcome["metrics"].counters) == sorted(FAULT_COUNTERS)


def test_fleet_node_snapshots_count_only_the_fault_counters(chaos_fleet):
    for report in chaos_fleet["reports"]:
        assert sorted(report["metrics"]["counters"]) == sorted(FAULT_COUNTERS)
    assert sorted(chaos_fleet["outcome"].metrics.counters) == sorted(
        FAULT_COUNTERS)


def _assert_rows_add_up(rows):
    *tenants, total = rows
    assert total["tenant"] == "__all__"
    for key in ("submitted", "completed", "shed", "fault_shed", "replayed"):
        if key in total:
            assert sum(row[key] for row in tenants) == total[key], key


@pytest.mark.parametrize("name", sorted(ONE_TALLY_SERVE))
def test_serve_latency_samples_are_the_completions(name):
    """The law tying the registry to the accounts: each tenant's latency
    histogram holds one sample per completion, and the tenant rows add up
    to the ``__all__`` row."""
    outcome = _serve_tally(name)
    histograms = outcome["metrics"].histograms
    accounts = outcome["monitor"].accounts
    assert {f"latency_ns.{tenant}" for tenant in accounts} == set(histograms)
    for tenant, account in accounts.items():
        assert len(histograms[f"latency_ns.{tenant}"]) == account.completed
    _assert_rows_add_up(outcome["rows"])


def test_fleet_latency_samples_are_the_completions(chaos_fleet):
    outcome = chaos_fleet["outcome"]
    for report in chaos_fleet["reports"]:
        histograms = report["metrics"]["histograms"]
        for tenant, account in report["tenants"].items():
            assert len(histograms[f"latency_ns.{tenant}"]) == account["completed"]
    *tenants, _ = outcome.rows
    for row in tenants:
        assert (len(outcome.metrics.histograms[f"latency_ns.{row['tenant']}"])
                == row["completed"])
    _assert_rows_add_up(outcome.rows)
