"""The ``alerting`` experiment: detection quality, scored against ground truth.

One cell = one chaos fleet run observed *only* through its telemetry
stream.  The sweep crosses fault family x control mode (x background rate
for the rate-scaled families):

* ``fault``: ``none`` (no chaos — the false-alarm floor), ``kill`` (the
  pinned whole-node fabric kill from :mod:`repro.chaos.experiments`),
  ``seu`` / ``link`` (rate-scaled background noise only);
* ``control``: ``omniscient`` (the chaos layer's epoch-boundary recovery,
  which reads simulator state directly) vs ``alerts`` (failover, spare
  promotion and replay keyed off *fired alerts alone* — see
  :func:`repro.fleet.cluster._suspects`).

Because the experiment holds the injected :class:`~repro.chaos.schedule.\
FaultSchedule`, it can score the alert log exactly
(:func:`repro.obs.alerts.score_alerts`): per-cell recall, precision,
false-alarm rate and detection latency, overall and per rule family.  The
acceptance pins (``tests/test_alerts.py``) are:

* fabric-kill detection recall 1.0 with detection latency <= 1 epoch at
  the default burn-rate rule,
* false-alarm rate 0.0 on the fault-free cell,
* alert-driven recovery goodput >= 0.9x the omniscient baseline within
  :data:`ALERT_RECOVERY_EPOCHS` epochs of the kill.

SEU/link recall is reported, not pinned: a scrubbed SEU or a transient
link detour that never dents the SLO is *invisible in telemetry by
design* — the experiment quantifies that blind spot instead of hiding it.

Cells are module-level and picklable; this module must not import
``repro.api`` (the registry imports us).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.chaos.experiments import (DEFAULT_SEED, KILL_EPOCH,
                                     build_schedule)
from repro.chaos.inject import ChaosConfig
from repro.chaos.schedule import FaultSchedule, noise_specs
from repro.fleet.autoscaler import AutoscalerConfig
from repro.fleet.cluster import (FleetConfig, FleetOutcome, epoch_goodput,
                                 run_fleet)
from repro.fleet.experiments import FLEET_TENANTS
from repro.obs.alerts import score_alerts

#: The fault families the sweep injects (one per cell).
FAULT_MODES: Tuple[str, ...] = ("none", "kill", "seu", "link")

#: Telemetry window of every alerting run (us of sim time).
ALERT_WINDOW_US = 100.0

#: Detection horizon: an alert counts for a fault only within this many
#: epochs of its injection instant.
DETECT_HORIZON_EPOCHS = 1.0

#: The alert-driven recovery pin: goodput back within this many epochs of
#: the kill...
ALERT_RECOVERY_EPOCHS = 3
#: ...to at least this fraction of what omniscient recovery achieves.
ALERT_RECOVERY_FLOOR = 0.9


def alerting_schedule(fault: str, fault_rate: float,
                      seed: int = DEFAULT_SEED) -> Optional[FaultSchedule]:
    """The injected schedule for one fault family (``None`` = no chaos)."""
    if fault == "none":
        return None
    if fault == "kill":
        return build_schedule(0.0, seed)
    if fault in ("seu", "link"):
        return FaultSchedule(seed=seed, specs=(noise_specs(fault_rate)[fault],))
    known = ", ".join(FAULT_MODES)
    raise ValueError(f"unknown fault mode {fault!r}; known: {known}")


def _observed_run(
    fault: str,
    control: str,
    fault_rate: float,
    nodes: int = 3,
    spares: int = 1,
    epochs: int = 5,
    epoch_us: float = 600.0,
    rate_krps: float = 300.0,
    window_us: float = ALERT_WINDOW_US,
    node_executor: str = "serial",
    seed: int = DEFAULT_SEED,
) -> Tuple[FleetConfig, FleetOutcome, List[Dict[str, Any]], Dict[str, Any], int]:
    """One telemetry-observed chaos fleet run, scored against its injected
    schedule: ``(config, outcome, truth, score, epoch_ps)``."""
    schedule = alerting_schedule(fault, fault_rate, seed)
    config = FleetConfig(
        nodes=nodes,
        placement="affinity",
        policy="affinity",
        epochs=epochs,
        epoch_us=epoch_us,
        autoscaler=AutoscalerConfig(enabled=False),
        node_executor=node_executor,
        power=True,
        chaos=ChaosConfig(schedule, recovery=True) if schedule else None,
        spares=spares,
        telemetry_window_us=window_us,
        chaos_control=control,
    )
    outcome = run_fleet(config, FLEET_TENANTS,
                        total_rate_rps=rate_krps * 1000.0, seed=seed)

    epoch_ns = epoch_us * 1000.0
    epoch_ps = int(round(epoch_ns * 1000.0))
    # The oracle covers the initially-active nodes: spares carry no
    # injections while parked, and none of the sweep's schedules draw
    # rated faults dense enough to fail over a healthy node onto one.
    truth = (schedule.ground_truth(epochs, range(nodes),
                                   config.fabrics_per_node, epoch_ns)
             if schedule is not None else [])
    horizon_ps = int(round(DETECT_HORIZON_EPOCHS * epoch_ps))
    score = score_alerts(outcome.alerts or [], truth, horizon_ps)
    return config, outcome, truth, score, epoch_ps


def alerting_cell(fault: str, control: str, fault_rate: float = 2.0,
                  **fleet: Any) -> List[Dict[str, Any]]:
    """One telemetry-observed chaos run; returns a single scored row.

    ``fleet`` overrides the run's ``nodes``, ``spares``, ``epochs``,
    ``epoch_us``, ``rate_krps``, ``window_us``, ``node_executor`` and
    ``seed`` (defaults in :func:`_observed_run`)."""
    config, outcome, _, score, epoch_ps = _observed_run(
        fault, control, fault_rate, **fleet)
    alerts = outcome.alerts or []
    goodput = epoch_goodput(outcome.reports)
    pre = goodput[KILL_EPOCH - 1]
    post_epoch = min(KILL_EPOCH + ALERT_RECOVERY_EPOCHS, len(goodput) - 1)
    row: Dict[str, Any] = {
        "fault": fault,
        "control": control,
        "fault_rate": fault_rate if fault in ("seu", "link") else 0.0,
        "nodes": config.nodes,
        "epochs": config.epochs,
        "windows": len(outcome.telemetry.samples) if outcome.telemetry else 0,
        "alerts_fired": sum(1 for a in alerts if a.event == "fired"),
        "alerts_resolved": sum(1 for a in alerts if a.event == "resolved"),
        "faults": score["faults"],
        "detected": score["detected"],
        "recall": score["recall"],
        "precision": score["precision"],
        "false_alarms": score["false_alarms"],
        "false_alarm_rate": score["false_alarm_rate"],
        "detection_latency_epochs": (
            score["max_detection_latency_ps"] / epoch_ps),
        "pre_fault_goodput": pre,
        "post_recovery_goodput": goodput[post_epoch],
        "good_total": sum(goodput),
    }
    for family, fam in sorted(score["by_family"].items()):
        row[f"fired_{family}"] = fam["fired"]
        row[f"recall_{family}"] = fam["recall"]
        row[f"false_alarm_rate_{family}"] = fam["false_alarm_rate"]
    return [row]


def alerting_summary(rows: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The acceptance view: the pinned detection/recovery aggregates."""
    def pick(fault: str, control: str) -> Optional[Dict[str, Any]]:
        for row in rows:
            if row["fault"] == fault and row["control"] == control:
                return row
        return None

    summary: Dict[str, Any] = {
        "detect_horizon_epochs": DETECT_HORIZON_EPOCHS,
        "alert_recovery_epochs": ALERT_RECOVERY_EPOCHS,
        "alert_recovery_floor": ALERT_RECOVERY_FLOOR,
    }
    kill_alerts = pick("kill", "alerts")
    if kill_alerts is not None:
        summary["kill_recall"] = kill_alerts["recall"]
        summary["kill_detection_latency_epochs"] = (
            kill_alerts["detection_latency_epochs"])
        summary["kill_detected_within_horizon"] = (
            kill_alerts["recall"] >= 1.0
            and kill_alerts["detection_latency_epochs"]
            <= DETECT_HORIZON_EPOCHS)
    fault_free = pick("none", "alerts")
    if fault_free is not None:
        summary["fault_free_alerts_fired"] = fault_free["alerts_fired"]
        summary["fault_free_false_alarm_rate"] = (
            fault_free["false_alarm_rate"])
    kill_omniscient = pick("kill", "omniscient")
    if kill_alerts is not None and kill_omniscient is not None:
        baseline = kill_omniscient["post_recovery_goodput"]
        summary["alert_recovery_ratio"] = (
            kill_alerts["post_recovery_goodput"] / baseline if baseline
            else 0.0)
        summary["alert_recovery_ok"] = (
            summary["alert_recovery_ratio"] >= ALERT_RECOVERY_FLOOR)
    for fault in ("seu", "link"):
        row = pick(fault, "alerts")
        if row is not None:
            summary[f"{fault}_recall"] = row["recall"]
            summary[f"{fault}_false_alarms"] = row["false_alarms"]
    return summary


# ---------------------------------------------------------------------- #
# The `python -m repro alerts` driver
# ---------------------------------------------------------------------- #
def alerts_report(fault: str = "kill", control: str = "alerts",
                  fault_rate: float = 2.0,
                  seed: int = DEFAULT_SEED) -> Dict[str, Any]:
    """One canonical alerting run, packaged for the CLI: the typed alert
    log, the detection scores and the ground truth it was scored against."""
    _, outcome, truth, score, _ = _observed_run(fault, control, fault_rate,
                                                seed=seed)
    return {
        "fault": fault,
        "control": control,
        "windows": len(outcome.telemetry.samples) if outcome.telemetry else 0,
        "alerts": [a.as_dict() for a in outcome.alerts or []],
        "truth": truth,
        "score": score,
    }
