"""Tests for the online health-monitoring layer: windowed telemetry
streams (``repro.obs.monitor``), the declarative alert engine
(``repro.obs.alerts``), gauge merge modes, alert-driven fleet control, the
``alerting`` experiment's acceptance pins, and the ``repro alerts`` CLI."""

import json
import os
import subprocess
import sys

import pytest

from repro.api import Runner
from repro.fleet.cluster import FleetConfig, epoch_goodput, run_fleet
from repro.fleet.experiments import FLEET_TENANTS
from repro.fleet.node import NodeSpec
from repro.obs import (
    DEFAULT_RULES,
    AlertEngine,
    AlertEvent,
    AlertRule,
    MetricsRegistry,
    MetricsSnapshot,
    TelemetryMonitor,
    TelemetryStream,
    score_alerts,
)
from repro.serve.experiments import run_serve
from repro.serve.slo import SloMonitor

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# --------------------------------------------------------------------------- #
# Fakes for unit-driving the SLO hooks on a hand-rolled timeline
# --------------------------------------------------------------------------- #
class _Sim:
    now = 0.0


class _Req:
    """Just enough of ``repro.serve.request.Request`` for the SLO hooks."""

    def __init__(self, tenant="alpha", slo_ns=10_000.0, latency_ns=5_000.0):
        self.tenant = tenant
        self.slo_ns = slo_ns
        self.latency_ns = latency_ns
        self.queue_wait_ns = 0.0
        self.start_ns = 0.0
        self.finish_ns = latency_ns
        self.slo_met = latency_ns <= slo_ns


def _monitored(window_ns=100.0):
    """Telemetry subscribed ahead of an SLO monitor, the scheduler's
    order; ``emit`` fans one lifecycle event out to both."""
    sim = _Sim()
    monitor = SloMonitor(sim)
    telemetry = TelemetryMonitor(monitor, window_ns)

    def emit(event, *args):
        for hook in (telemetry, monitor):
            getattr(hook, event)(*args)
    return sim, emit, telemetry


# --------------------------------------------------------------------------- #
# TelemetryMonitor window semantics
# --------------------------------------------------------------------------- #
def test_event_exactly_at_window_boundary_lands_in_the_window_it_opens():
    """Window k is [k·w, (k+1)·w): an event at exactly t=w closes window 0
    *first* and records into window 1 — the boundary is half-open."""
    sim, emit, telemetry = _monitored(window_ns=100.0)
    sim.now = 50.0
    emit("on_submit", _Req(), 1)
    sim.now = 100.0  # exactly the window-0 boundary
    emit("on_complete", _Req())
    telemetry.finalize(200.0)
    w0, w1 = telemetry.stream.samples
    assert (w0["submitted"], w0["completed"]) == (1, 0)
    assert (w1["submitted"], w1["completed"]) == (0, 1)
    assert w0["t_ps"] == 100_000 and w1["t_ps"] == 200_000  # ns -> ps


def test_zero_traffic_windows_emit_zero_bad_fraction_not_a_division_error():
    _, _, telemetry = _monitored(window_ns=100.0)
    telemetry.finalize(500.0)
    assert len(telemetry.stream.samples) == 5
    for sample in telemetry.stream.samples:
        assert sample["resolved"] == 0
        assert sample["bad_fraction"] == 0.0
        assert sample["shed_rate"] == 0.0
        assert sample["goodput_krps"] == 0.0


def test_burst_crossing_many_windows_attributes_deltas_to_the_last_window():
    """A quiet gap then a burst: the empty windows flush as zeros and the
    burst's counts land in the window the sim clock says they belong to."""
    sim, emit, telemetry = _monitored(window_ns=100.0)
    sim.now = 350.0
    emit("on_submit", _Req(), 1)
    emit("on_complete", _Req())
    telemetry.finalize(400.0)
    counts = [(s["submitted"], s["completed"])
              for s in telemetry.stream.samples]
    assert counts == [(0, 0), (0, 0), (0, 0), (1, 1)]


def test_stream_merge_rejects_mismatched_windows_and_sorts_totally():
    a = TelemetryStream(window_ps=100, samples=[
        {"epoch": 1, "t_ps": 5, "node_id": 0, "seq": 0, "submitted": 1}])
    b = TelemetryStream(window_ps=100, samples=[
        {"epoch": 0, "t_ps": 9, "node_id": 1, "seq": 0, "submitted": 2}])
    merged = TelemetryStream.merged([a, b])
    assert [s["epoch"] for s in merged.samples] == [0, 1]
    with pytest.raises(ValueError, match="different windows"):
        merged.merge(TelemetryStream(window_ps=7, samples=[]))


def test_stream_series_and_sliding_reads():
    stream = TelemetryStream(window_ps=1, samples=[
        {"epoch": 0, "t_ps": t, "node_id": 0, "seq": t, "goodput_krps": v}
        for t, v in enumerate([4.0, 0.0, 2.0])])
    assert stream.series("goodput_krps") == [(0, 4.0), (1, 0.0), (2, 2.0)]
    assert stream.sliding("goodput_krps", 2) == [(0, 4.0), (1, 2.0), (2, 1.0)]
    with pytest.raises(KeyError, match="unknown telemetry metric"):
        stream.series("nope")


def test_percentile_readings_agree_with_nearest_rank():
    """``nearest_rank`` is the one percentile rule: the histogram and
    ``ResultSet`` readings match it, and it matches the definition — the
    smallest sample with at least ``fraction`` of the samples at or below
    it — at every n and tail fraction."""
    from repro.api.results import ResultSet
    from repro.sim.stats import Histogram, nearest_rank

    disagreements = 0
    for n in range(1, 400):
        ordered = [float(i) for i in range(n)]
        samples = ordered[::-1]
        histogram = Histogram("h", samples=samples)
        results = ResultSet("t", [{"x": value} for value in samples])
        for fraction in (0.50, 0.95, 0.99, 0.999):
            expected = next(value for rank, value in enumerate(ordered, 1)
                            if rank >= fraction * n)
            readings = {nearest_rank(samples, fraction),
                        histogram.percentile(fraction),
                        results.percentile("x", fraction)}
            if readings != {expected}:
                disagreements += 1
    assert disagreements == 0


def test_window_of_100_latencies_reports_the_99th_smallest_as_p99():
    """Window and per-tenant ``p99_us`` use ``nearest_rank`` too: at
    exactly 100 latencies the 99th smallest, not the 100th."""
    _, emit, telemetry = _monitored(window_ns=1_000_000.0)
    for latency_us in range(100, 0, -1):
        request = _Req(slo_ns=1e9, latency_ns=latency_us * 1000.0)
        emit("on_submit", request, 1)
        emit("on_complete", request)
    telemetry.finalize(1_000_000.0)
    (window,) = telemetry.stream.samples
    assert window["completed"] == 100
    assert window["p99_us"] == 99.0
    assert window["tenants"]["alpha"]["p99_us"] == 99.0


# --------------------------------------------------------------------------- #
# Gauge merge modes (per-gauge max/min)
# --------------------------------------------------------------------------- #
def test_gauge_merge_modes_min_and_default_max():
    left = MetricsSnapshot(gauges={"peak": 3.0, "floor": 2.0},
                           gauge_modes={"floor": "min"})
    right = MetricsSnapshot(gauges={"peak": 1.0, "floor": 5.0},
                            gauge_modes={"floor": "min"})
    merged = MetricsSnapshot.merged((left, right))
    assert merged.gauges == {"peak": 3.0, "floor": 2.0}
    # Round trip preserves the modes; the pre-mode dict shape is kept for
    # snapshots that only use the default.
    assert MetricsSnapshot.from_dict(merged.as_dict()) == merged
    assert "gauge_modes" not in MetricsSnapshot(gauges={"g": 1.0}).as_dict()


def test_gauge_mode_conflict_refuses_to_merge():
    left = MetricsSnapshot(gauges={"g": 1.0}, gauge_modes={"g": "min"})
    right = MetricsSnapshot(gauges={"g": 2.0}, gauge_modes={"g": "max"})
    with pytest.raises(ValueError, match="previously merged as"):
        MetricsSnapshot.merged((left, right))


def test_registry_gauge_mode_is_sticky_and_validated():
    registry = MetricsRegistry("t")
    gauge = registry.gauge("free", mode="min")
    gauge.set(4.0)
    assert registry.gauge("free", mode="min") is gauge
    with pytest.raises(ValueError, match="mode"):
        registry.gauge("free", mode="max")
    with pytest.raises(ValueError, match="mode"):
        registry.gauge("fresh", mode="median")
    assert registry.snapshot().gauge_modes == {"free": "min"}


def test_fleet_free_capacity_gauge_merges_as_min_across_nodes():
    """The regression the mode system exists for: cluster headroom is the
    *minimum* free capacity over nodes — a max-merge would report the
    least-loaded node and hide exhaustion on the hottest one."""
    outcome = run_fleet(FleetConfig(nodes=2, epochs=2, epoch_us=200.0),
                        FLEET_TENANTS, total_rate_rps=200_000.0)
    snapshot = outcome.metrics
    assert snapshot.gauge_modes.get("free_capacity") == "min"
    per_node = []
    for report in outcome.reports:
        node_snapshot = MetricsSnapshot.from_dict(report["metrics"])
        per_node.append(node_snapshot.gauges["free_capacity"])
    assert snapshot.gauges["free_capacity"] == min(per_node)


# --------------------------------------------------------------------------- #
# Alert rules and the engine
# --------------------------------------------------------------------------- #
def _sample(t, node=0, epoch=0, **metrics):
    base = {"t_ps": t, "node_id": node, "epoch": epoch, "bad": 0,
            "resolved": 0, "shed_rate": 0.0, "queue_depth": 0.0,
            "busy_fraction": 0.5, "bad_fraction": 0.0}
    base.update(metrics)
    return base


def test_alert_rule_validation():
    with pytest.raises(ValueError, match="kind"):
        AlertRule(name="r", kind="sigma")
    with pytest.raises(ValueError, match="severity"):
        AlertRule(name="r", kind="threshold", severity="fatal")
    with pytest.raises(ValueError, match="short_windows"):
        AlertRule(name="r", kind="burn_rate", short_windows=3, long_windows=2)
    with pytest.raises(ValueError, match="duplicate rule names"):
        AlertEngine([AlertRule(name="r", kind="threshold"),
                     AlertRule(name="r", kind="ewma")])


def test_threshold_rule_hysteresis_resolve_and_rearm():
    rule = AlertRule(name="hot", kind="threshold", metric="shed_rate",
                     op=">", value=0.5, for_windows=2, clear_windows=2)
    engine = AlertEngine([rule])
    readings = [0.9, 0.9,          # fire on the 2nd consecutive breach
                0.0, 0.9,          # one clear does NOT resolve
                0.0, 0.0,          # two consecutive clears resolve + re-arm
                0.9, 0.9]          # a fresh streak fires a second event
    for t, value in enumerate(readings):
        engine.observe(_sample(t, shed_rate=value))
    assert [(e.t_ps, e.event) for e in engine.events] == [
        (1, "fired"), (5, "resolved"), (7, "fired")]
    assert engine.firing() == [("hot", 0)]


def test_burn_rate_needs_short_and_long_windows_and_survives_zero_traffic():
    rule = AlertRule(name="burn", kind="burn_rate", budget=0.1,
                     burn_threshold=5.0, short_windows=1, long_windows=4,
                     severity="critical")
    engine = AlertEngine([rule])
    # Zero-traffic windows: resolved == 0 must read as burn 0, not 1/0.
    for t in range(4):
        assert engine.observe(_sample(t)) == []
    # One bad window lights the short burn but the long window still
    # remembers three clean ones... make them count-bearing.
    engine2 = AlertEngine([rule])
    for t in range(3):
        engine2.observe(_sample(t, bad=0, resolved=100))
    assert engine2.observe(_sample(3, bad=90, resolved=100)) == []
    # Second bad window: short burn 9.5x but the 4-window long burn is
    # still diluted to 4.6x by the clean history -> still quiet.
    assert engine2.observe(_sample(4, bad=95, resolved=100)) == []
    # Sustained badness pushes the long burn over too -> fires.
    events = engine2.observe(_sample(5, bad=95, resolved=100))
    assert [e.event for e in events] == ["fired"]
    assert events[0].family == "burn_rate"
    assert events[0].severity == "critical"


def test_ewma_rule_fires_on_a_spike_after_warmup_only():
    rule = AlertRule(name="queue", kind="ewma", metric="queue_depth",
                     warmup_windows=4, z_threshold=3.0, min_std=1.0,
                     for_windows=1)
    engine = AlertEngine([rule])
    for t in range(4):
        engine.observe(_sample(t, queue_depth=2.0))  # warmup: never fires
    assert engine.events == []
    assert engine.observe(_sample(4, queue_depth=2.0)) == []
    events = engine.observe(_sample(5, queue_depth=50.0))
    assert [e.event for e in events] == ["fired"]
    assert events[0].value > 3.0


def test_firing_respects_the_severity_floor_and_sorts():
    idle = AlertRule(name="idle", kind="threshold", metric="busy_fraction",
                     op="<", value=0.30, for_windows=4, severity="info")
    engine = AlertEngine(DEFAULT_RULES + (idle,))
    for t in range(6):
        engine.observe(_sample(t, node=1, busy_fraction=0.0,
                               shed_rate=0.9))
    assert engine.firing("info") == [("idle", 1), ("shed_spike", 1)]
    assert engine.firing("warning") == [("shed_spike", 1)]
    assert engine.firing("critical") == []


def test_engine_export_mirrors_the_log_as_trace_instants():
    from repro.obs import Tracer

    engine = AlertEngine([AlertRule(name="hot", kind="threshold",
                                    metric="shed_rate", value=0.5)])
    engine.observe(_sample(3, shed_rate=0.9))
    tracer = Tracer()
    engine.export(tracer)
    instant = tracer.instants[0]
    assert instant.name == "hot:fired"
    assert instant.args["node"] == 0 and instant.args["seq"] == 0


def test_score_alerts_latency_recall_and_false_alarms():
    truth = [{"kind": "fabric", "node_id": 0, "t_ps": 100},
             {"kind": "seu", "node_id": 1, "t_ps": 500}]
    fired = [
        AlertEvent(150, "slo_fast_burn", "burn_rate", 0, "fired",
                   "critical", 9.0, 0),          # detects fault 0, latency 50
        AlertEvent(900, "shed_spike", "threshold", 2, "fired",
                   "warning", 0.9, 0),           # wrong node: false alarm
        AlertEvent(90, "slo_fast_burn", "burn_rate", 0, "resolved",
                   "critical", 0.0, 0),          # resolved events never score
    ]
    score = score_alerts(fired, truth, horizon_ps=200)
    assert score["faults"] == 2 and score["detected"] == 1
    assert score["recall"] == 0.5
    assert score["false_alarms"] == 1 and score["true_alarms"] == 1
    assert score["precision"] == 0.5
    assert score["max_detection_latency_ps"] == 50
    assert score["by_family"]["threshold"]["false_alarm_rate"] == 1.0
    kill_only = score_alerts(fired, truth, horizon_ps=200, kinds=("fabric",))
    assert kill_only["faults"] == 1 and kill_only["recall"] == 1.0


# --------------------------------------------------------------------------- #
# Monitor-off ≡ monitor-on bit-identity, serial ≡ process, hashseed pins
# --------------------------------------------------------------------------- #
def test_attaching_telemetry_never_perturbs_serve_results():
    kwargs = dict(tenant_mix="duo", arrival_rate_krps=250.0,
                  duration_us=400.0)
    plain = run_serve("affinity", **kwargs)
    watched = run_serve("affinity", telemetry_window_us=50.0, **kwargs)
    assert plain["rows"] == watched["rows"]
    assert plain["elapsed_ns"] == watched["elapsed_ns"]
    assert plain["metrics"].as_dict() == watched["metrics"].as_dict()
    assert plain["telemetry"] is None
    assert len(watched["telemetry"].samples) > 0


def test_attaching_telemetry_never_perturbs_fleet_results():
    kwargs = dict(tenants=FLEET_TENANTS, total_rate_rps=200_000.0, seed=7)
    plain = run_fleet(FleetConfig(nodes=2, epochs=2, epoch_us=200.0),
                      **kwargs)
    watched = run_fleet(FleetConfig(nodes=2, epochs=2, epoch_us=200.0,
                                    telemetry_window_us=50.0), **kwargs)
    assert plain.rows == watched.rows
    assert plain.metrics == watched.metrics
    assert plain.telemetry is None and plain.alerts is None
    assert watched.alerts == []
    assert watched.telemetry.node_ids() == [0, 1]


def test_fleet_telemetry_and_alerts_are_serial_process_bit_identical():
    """The registered alerting cell under an alert-driven node kill scores
    the same alert log in a Runner pool worker as in this process."""
    overrides = dict(fault="kill", control="alerts")
    serial = Runner().run("alerting", **overrides)
    with Runner(executor="process", workers=2) as runner:
        pooled = runner.run("alerting", **overrides)
    assert pooled.stats.executor == "process"
    assert serial.rows and serial.rows == pooled.rows
    assert serial.summary == pooled.summary
    assert serial.rows[0]["alerts_fired"] > 0


def test_alert_log_is_pythonhashseed_independent():
    """The typed alert log (and the stream that feeds it) must not depend
    on string-hash ordering: three interpreters with different hash
    randomization emit identical JSON."""
    script = (
        "import json, sys\n"
        "from repro.obs.alerting import alerts_report\n"
        "report = alerts_report(fault='kill', control='alerts')\n"
        "sys.stdout.write(json.dumps(\n"
        "    {'alerts': report['alerts'], 'truth': report['truth'],\n"
        "     'score': report['score']}, sort_keys=True))\n"
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
    assert json.loads(outputs[0])["score"]["recall"] == 1.0


# --------------------------------------------------------------------------- #
# Alert-driven control: chaos failover
# --------------------------------------------------------------------------- #
def test_fleet_config_alerts_modes_require_telemetry():
    with pytest.raises(ValueError, match="chaos_control"):
        FleetConfig(chaos_control="psychic")
    with pytest.raises(ValueError, match="telemetry_window_us"):
        FleetConfig(chaos_control="alerts")


# --------------------------------------------------------------------------- #
# The alerting experiment's acceptance pins
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def alerting_rows():
    from repro.obs.alerting import alerting_cell

    rows = []
    for fault in ("none", "kill"):
        for control in ("omniscient", "alerts"):
            rows.extend(alerting_cell(fault, control))
    return rows


def test_kill_detection_recall_and_latency_pins(alerting_rows):
    """From telemetry alone: the whole-node kill is detected with recall
    1.0 within one epoch by the default burn-rate rule."""
    row = next(r for r in alerting_rows
               if r["fault"] == "kill" and r["control"] == "alerts")
    assert row["recall"] == 1.0
    assert row["detection_latency_epochs"] <= 1.0
    assert row["fired_burn_rate"] >= 1
    assert row["recall_burn_rate"] == 1.0


def test_fault_free_sweep_cell_has_zero_false_alarms(alerting_rows):
    row = next(r for r in alerting_rows
               if r["fault"] == "none" and r["control"] == "alerts")
    assert row["alerts_fired"] == 0
    assert row["false_alarm_rate"] == 0.0


def test_alert_driven_recovery_matches_omniscient_goodput(alerting_rows):
    from repro.obs.alerting import ALERT_RECOVERY_FLOOR, alerting_summary

    summary = alerting_summary(alerting_rows)
    assert summary["kill_detected_within_horizon"]
    assert summary["alert_recovery_ratio"] >= ALERT_RECOVERY_FLOOR
    assert summary["fault_free_false_alarm_rate"] == 0.0


def test_alert_chaos_control_promotes_the_spare_from_alerts_alone():
    from repro.chaos.experiments import build_schedule
    from repro.chaos.inject import ChaosConfig

    config = FleetConfig(
        nodes=3, placement="affinity", policy="affinity", epochs=4,
        epoch_us=600.0, spares=1,
        chaos=ChaosConfig(build_schedule(0.0), recovery=True),
        telemetry_window_us=100.0, chaos_control="alerts")
    outcome = run_fleet(config, FLEET_TENANTS, total_rate_rps=300_000.0)
    assert outcome.chaos["promotions"] == 1
    assert 0 in outcome.chaos["dead_nodes"]
    # The detection fired before the control plane acted.
    assert any(e.event == "fired" and e.severity == "critical"
               for e in outcome.alerts)
    goodput = epoch_goodput(outcome.reports)
    assert goodput[-1] >= 0.8 * goodput[0]


@pytest.mark.parametrize("control, handled", [("omniscient", True),
                                              ("alerts", False)])
def test_failover_keeping_the_last_node_differs_by_mode(control, handled):
    """A one-node fleet whose only node died keeps it (tenants must stay
    placeable).  The omniscient mode still re-places and claims the
    boundary, so the autoscaler sits it out; the alert mode does neither."""
    from repro.chaos.inject import ChaosConfig
    from repro.chaos.schedule import FaultSchedule
    from repro.fleet.cluster import _failover
    from repro.fleet.node import TenantShare
    from repro.fleet.router import Router

    config = FleetConfig(nodes=1, chaos=ChaosConfig(FaultSchedule()),
                         chaos_control=control, telemetry_window_us=100.0)
    nodes = [NodeSpec(node_id=0)]
    report = {"node_id": 0, "fabrics": 1, "tenants": {},
              "dead_fabrics": [0]}
    shares = tuple(TenantShare(tenant, 1.0) for tenant in FLEET_TENANTS)
    router = Router("affinity")
    outcome = _failover(config, [report], shares, nodes, [], router, [0])
    (survivors, spares, dead, replays, _, promotions, epoch_dead,
     claimed) = outcome
    assert claimed is handled
    assert bool(router.placement) is handled   # re-placed or untouched
    assert [n.node_id for n in survivors] == [0] and spares == []
    assert dead == {0: (0,)} and replays == {}
    assert (promotions, epoch_dead) == (0, [])


def test_alerting_experiment_is_registered_with_both_axes():
    from repro.api.registry import get_experiment

    spec = get_experiment("alerting")
    assert spec.num_cells() == 8
    assert set(spec.grid["control"]) == {"omniscient", "alerts"}
    assert "none" in spec.grid["fault"] and "kill" in spec.grid["fault"]


def test_ground_truth_covers_every_epoch_node_and_sorts():
    from repro.chaos.schedule import FaultSchedule, FaultSpec

    schedule = FaultSchedule(seed=9, specs=(
        FaultSpec(kind="seu", rate_per_epoch=2.0),))
    truth = schedule.ground_truth(3, [1, 0], 2, 1000.0)
    assert truth == sorted(
        truth, key=lambda t: (t["t_ps"], t["node_id"], t["kind"]))
    for record in truth:
        assert record["kind"] == "seu"
        assert record["node_id"] in (0, 1) and 0 <= record["epoch"] < 3
        assert record["t_ps"] == int(round(
            record["t_ps"] / 1.0))  # integral ps
    # The oracle re-runs the same draws as events(): counts must agree.
    expected = sum(len(schedule.events(e, n, 2, 1000.0))
                   for e in range(3) for n in (0, 1))
    assert len(truth) == expected


# --------------------------------------------------------------------------- #
# CLI wiring
# --------------------------------------------------------------------------- #
def test_alerts_cli_emits_the_log_and_scores(capsys):
    from repro.api.cli import main

    assert main(["alerts", "--fault", "kill", "--control", "alerts"]) == 0
    out = capsys.readouterr().out
    assert "slo_fast_burn" in out
    assert "recall: 1.000" in out
