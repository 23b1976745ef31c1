"""Shared helpers for the chaos/reliability test layer.

Importable from any test module (``from chaos_utils import ...`` — the
tests directory is on ``sys.path`` under pytest's rootdir conftest), so
the serve-, fleet- and chaos-test files agree on what "a chaos run"
and "the chaos columns" mean.
"""

import os

from repro.chaos import ChaosConfig, FaultSchedule, FaultSpec
from repro.fleet import FleetConfig, run_fleet
from repro.fleet.autoscaler import AutoscalerConfig
from repro.fleet.experiments import FLEET_TENANTS
from repro.serve.experiments import run_serve

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Per-tenant columns that only exist once a fault actually fired.
CHAOS_ROW_COLUMNS = ("fault_shed", "replayed", "recovery_time_ns")

#: Fleet-level columns present on every chaos-configured run.
CHAOS_FLEET_COLUMNS = CHAOS_ROW_COLUMNS + (
    "faults_injected", "fabric_faults", "requests_lost", "seu_scrubs",
    "link_faults", "spare_us", "spare_promotions", "dead_nodes")


def aggregate_row(rows):
    return next(row for row in rows if row["tenant"] == "__all__")


def strip_chaos_columns(row):
    """A copy of ``row`` without any chaos-only column."""
    return {key: value for key, value in row.items()
            if key not in CHAOS_FLEET_COLUMNS}


def empty_schedule(seed=1):
    """A chaos config that injects nothing (the bit-identity baseline)."""
    return ChaosConfig(FaultSchedule(seed=seed, specs=()))


def pinned_fault(kind, at_epoch=0, at_node=0, seed=7, **kwargs):
    """A schedule firing exactly one ``kind`` fault at (epoch, node)."""
    return FaultSchedule(seed=seed, specs=(
        FaultSpec(kind=kind, at_epoch=at_epoch, at_node=at_node, **kwargs),))


def run_chaos_serve(chaos, policy="fcfs", **overrides):
    """A small, fast serve deployment with ``chaos`` armed."""
    params = dict(policy=policy, arrival_rate_krps=150.0,
                  duration_us=400.0, num_fabrics=2, chaos=chaos)
    params.update(overrides)
    return run_serve(**params)


def run_chaos_fleet(chaos, nodes=2, spares=1, epochs=3, epoch_us=300.0,
                    rate_krps=200.0, seed=2023, **overrides):
    """A small chaos fleet run (autoscaler off so node counts are pinned)."""
    params = dict(
        nodes=nodes,
        placement="affinity",
        epochs=epochs,
        epoch_us=epoch_us,
        autoscaler=AutoscalerConfig(enabled=False),
        chaos=chaos,
        spares=spares,
    )
    params.update(overrides)
    config = FleetConfig(**params)
    return run_fleet(config, FLEET_TENANTS,
                     total_rate_rps=rate_krps * 1000.0, seed=seed)


def assert_conservation(row):
    """The chaos bookkeeping invariant: nothing vanishes, nothing doubles."""
    assert row["completed"] + row["shed"] == row["submitted"], row
    assert row["fault_shed"] <= row["shed"], row
