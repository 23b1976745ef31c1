"""The request-lifecycle golden: every serving hook path, pinned by sha256.

``tests/data/obs_trace_golden.json`` pins one whole-fabric, fault-free
trace.  The cells here cover the hook paths it never reaches: region
tracks with telemetry, whole-fabric faults with recovery on and off
(lost / replay / fault_shed / seu_scrub / failover), and an alert-driven
fleet whose failover replays a dead node's requests as a burst.  Each
cell hashes the Chrome trace, the telemetry stream, the metrics snapshot
and the result rows, so a change to the hook plumbing has to leave every
observable byte where it was.

Regenerate only after an intentional output change, with::

    PYTHONPATH=src python -c "
    import json, sys; sys.path.insert(0, 'tests')
    from test_lifecycle import CELLS, cell_digests
    json.dump({name: cell_digests(name) for name in CELLS},
              open('tests/data/lifecycle_golden.json', 'w'),
              indent=2, sort_keys=True)"
"""

import hashlib
import json
import os

import pytest

from repro.chaos import ChaosConfig, FaultSchedule, FaultSpec
from repro.fleet import FleetConfig, run_fleet
from repro.fleet.autoscaler import AutoscalerConfig
from repro.fleet.experiments import FLEET_TENANTS
from repro.obs import TelemetryMonitor, Tracer
from repro.obs.trace import RequestTrace
from repro.serve.experiments import (DEFAULT_SEED, build_sources, get_mix,
                                     run_serve)
from repro.serve.scheduler import FabricScheduler, ServeConfig
from repro.serve.slo import SloMonitor
from repro.sim import Simulator

GOLDEN = os.path.join(os.path.dirname(__file__), "data",
                      "lifecycle_golden.json")

#: Fabric kill (healed 50 us later: a ``failover`` span) plus SEU noise.
WHOLE_FABRIC_FAULTS = FaultSchedule(seed=1, specs=(
    FaultSpec(kind="fabric", at_epoch=0, repair_ns=50_000.0),
    FaultSpec(kind="seu", rate_per_epoch=3.0),
))


def _sha(material) -> str:
    if not isinstance(material, str):
        material = json.dumps(material, sort_keys=True,
                              separators=(",", ":"), default=str)
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def _serve_cell(**kwargs):
    tracer = Tracer()
    outcome = run_serve(tracer=tracer, telemetry_window_us=50.0, **kwargs)
    return {"tracer": tracer, "trace": tracer.to_json(),
            "telemetry": outcome["telemetry"],
            "metrics": outcome["metrics"], "rows": outcome["rows"]}


def _fleet_cell():
    tracer = Tracer()
    config = FleetConfig(
        nodes=2, spares=1, placement="affinity", policy="affinity",
        epochs=3, epoch_us=300.0, autoscaler=AutoscalerConfig(enabled=False),
        chaos=ChaosConfig(FaultSchedule(seed=7, specs=(
            FaultSpec(kind="fabric", scope="node", at_epoch=0, at_node=0),))),
        chaos_control="alerts", telemetry_window_us=50.0)
    outcome = run_fleet(config, FLEET_TENANTS, total_rate_rps=200_000.0,
                        tracer=tracer)
    return {"tracer": tracer, "trace": tracer.to_json(),
            "telemetry": outcome.telemetry,
            "metrics": outcome.metrics,
            "rows": {"rows": outcome.rows, "chaos": outcome.chaos,
                     "alerts": [event.as_dict() for event in outcome.alerts]},
            "outcome": outcome}


CELLS = {
    "regions4_observed": lambda: _serve_cell(
        policy="affinity", tenant_mix="quad", arrival_rate_krps=300.0,
        duration_us=300.0, regions=4),
    "whole_fabric_chaos_recovery": lambda: _serve_cell(
        policy="fcfs", arrival_rate_krps=300.0, duration_us=400.0,
        num_fabrics=2, chaos=ChaosConfig(WHOLE_FABRIC_FAULTS, recovery=True)),
    "whole_fabric_chaos_no_recovery": lambda: _serve_cell(
        policy="fcfs", arrival_rate_krps=300.0, duration_us=400.0,
        num_fabrics=2, chaos=ChaosConfig(WHOLE_FABRIC_FAULTS, recovery=False)),
    "fleet_alerts_replay_burst": _fleet_cell,
}


def cell_digests(name, cell=None):
    cell = cell if cell is not None else CELLS[name]()
    return {"trace": _sha(cell["trace"]),
            "telemetry": _sha(cell["telemetry"].as_dict()),
            "metrics": _sha(cell["metrics"].as_dict()),
            "rows": _sha(cell["rows"])}


def _event_names(tracer):
    return ({instant.name for instant in tracer.instants}
            | {span.name for span in tracer.spans})


# What each cell must exercise for its digest to be worth its bytes.
def _check_regions(cell):
    assert any("/" in span.tid for span in cell["tracer"].spans)


def _check_recovery(cell):
    assert {"lost", "replay", "seu_scrub", "failover"} <= _event_names(
        cell["tracer"])


def _check_no_recovery(cell):
    assert {"lost", "fault_shed", "failover"} <= _event_names(cell["tracer"])


def _check_fleet(cell):
    outcome = cell["outcome"]
    assert outcome.chaos["promotions"] == 1
    # The alert log rides on the control-plane pid, so the export sorts.
    assert {(i.pid, i.tid) for i in cell["tracer"].instants
            if i.cat == "alert"} == {("fleet.ctrl", "alerts")}
    assert sum(account["replayed"] for report in outcome.reports
               if report["epoch"] == 1
               for account in report["tenants"].values()) > 0


CHECKS = {
    "regions4_observed": _check_regions,
    "whole_fabric_chaos_recovery": _check_recovery,
    "whole_fabric_chaos_no_recovery": _check_no_recovery,
    "fleet_alerts_replay_burst": _check_fleet,
}


@pytest.mark.parametrize("name", sorted(CELLS))
def test_lifecycle_cell_matches_golden(name):
    with open(GOLDEN) as handle:
        golden = json.load(handle)
    cell = CELLS[name]()
    CHECKS[name](cell)
    assert cell_digests(name, cell) == golden[name]


def test_scheduler_built_with_observers_orders_hooks_and_matches_golden():
    """A scheduler given its tracer and telemetry at construction fans
    each event out telemetry first (a window the clock crossed closes
    before the SLO monitor records), then the monitor, then the request
    trace; built by hand, it reproduces the ``regions4_observed`` golden's
    trace, telemetry and metrics bytes."""
    tenants = get_mix("quad")
    sim = Simulator()
    monitor = SloMonitor(sim, name="serve")
    tracer = Tracer()
    telemetry = TelemetryMonitor(monitor, 50_000.0)
    scheduler = FabricScheduler(sim, ServeConfig(
        policy="affinity", regions=4,
        accelerators=tuple(dict.fromkeys(t.accelerator for t in tenants))),
        monitor=monitor, tracer=tracer, telemetry=telemetry)
    assert scheduler.hooks[:2] == (telemetry, monitor)
    assert len(scheduler.hooks) == 3
    assert isinstance(scheduler.hooks[2], RequestTrace)
    assert scheduler.hooks[2].tracer is tracer
    assert telemetry.scheduler is scheduler
    assert all(fabric.tracer is tracer for fabric in scheduler.fabrics)
    sources = build_sources(sim, tenants, scheduler.submit,
                            total_rate_rps=300_000.0, duration_ns=300_000.0,
                            seed=DEFAULT_SEED)
    processes = [process for source in sources for process in source.start()]

    def supervisor():
        for process in processes:
            if not process.finished:
                yield process
        scheduler.close()

    sim.process(supervisor(), name="serve.supervisor")
    sim.run(max_events=2_000_000)
    telemetry.finalize(max(sim.now, 300_000.0))
    with open(GOLDEN) as handle:
        golden = json.load(handle)["regions4_observed"]
    assert _sha(tracer.to_json()) == golden["trace"]
    assert _sha(telemetry.stream.as_dict()) == golden["telemetry"]
    assert _sha(monitor.metrics.snapshot().as_dict()) == golden["metrics"]
