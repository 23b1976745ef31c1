"""Tests for the ``repro.serve`` subsystem: traffic, scheduling policies,
SLO accounting, and the serving experiments (including the acceptance pin
that reconfiguration affinity beats FCFS under reconfiguration pressure)."""

import dataclasses
import json
import os

import pytest

from repro.api.registry import get_experiment
from repro.api.runner import Runner
from repro.core.control_hub import PROGRAMMING_BITS_PER_CYCLE
from repro.fleet.cluster import FleetConfig
from repro.obs import Tracer
from repro.serve import (
    POLICY_KINDS,
    SERVE_ACCELERATORS,
    AffinityPolicy,
    FabricScheduler,
    Request,
    ServeConfig,
    SloMonitor,
    TenantSpec,
    TrafficSource,
    build_sources,
    make_policy,
    materialize,
    resolve_accelerator,
)
from repro.serve.experiments import (
    DEFAULT_SEED,
    TENANT_MIXES,
    get_mix,
    run_serve,
    serve_energy_cell,
    serve_policy_cell,
    serve_policy_summary,
)
from repro.sim import Simulator

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def aggregate_row(rows):
    return next(row for row in rows if row["tenant"] == "__all__")


# --------------------------------------------------------------------------- #
# Catalog
# --------------------------------------------------------------------------- #
def test_catalog_entries_materialize():
    for name in SERVE_ACCELERATORS:
        accelerator = materialize(name)
        assert accelerator.name == name
        assert accelerator.fmax_mhz > 0
        assert accelerator.bitstream.verify()
        assert accelerator.service_cycles(0) == accelerator.spec.base_cycles
        assert (accelerator.service_cycles(10)
                > accelerator.service_cycles(1))


def test_catalog_unknown_name():
    with pytest.raises(KeyError, match="catalog"):
        resolve_accelerator("fft")


# --------------------------------------------------------------------------- #
# Tenants and traffic
# --------------------------------------------------------------------------- #
def test_tenant_spec_validation():
    with pytest.raises(ValueError, match="pattern"):
        TenantSpec(name="x", accelerator="popcount", pattern="uniform")
    with pytest.raises(KeyError, match="catalog"):
        TenantSpec(name="x", accelerator="does-not-exist")
    with pytest.raises(ValueError, match="weight"):
        TenantSpec(name="x", accelerator="popcount", weight=0.0)
    with pytest.raises(ValueError, match="size_min"):
        TenantSpec(name="x", accelerator="popcount", size_min=9, size_max=3)
    with pytest.raises(ValueError, match="client"):
        TenantSpec(name="x", accelerator="popcount", pattern="closed", clients=0)
    # Timing knobs must be positive, or the arrival generators divide by
    # zero deep inside the simulation instead of failing at config time.
    with pytest.raises(ValueError, match="on_ns"):
        TenantSpec(name="x", accelerator="popcount", pattern="bursty", on_ns=0.0)
    with pytest.raises(ValueError, match="off_ns"):
        TenantSpec(name="x", accelerator="popcount", off_ns=-1.0)
    with pytest.raises(ValueError, match="period_ns"):
        TenantSpec(name="x", accelerator="popcount", pattern="diurnal",
                   period_ns=0.0)
    with pytest.raises(ValueError, match="think_ns"):
        TenantSpec(name="x", accelerator="popcount", pattern="closed",
                   think_ns=0.0)


def test_tenant_spec_rejects_a_negative_slo():
    """A negative target used to pass and then read as "no SLO" in
    ``Request.slo_met``; 0 is the one way to switch SLO accounting off."""
    with pytest.raises(ValueError, match="slo_ns"):
        TenantSpec(name="x", accelerator="popcount", slo_ns=-1.0)
    tenant = TenantSpec(name="x", accelerator="popcount", slo_ns=0.0)
    request = Request(request_id=0, tenant="x", accelerator="popcount",
                      size=8, slo_ns=tenant.slo_ns)
    request.arrival_ns, request.finish_ns = 0.0, 1e9
    assert request.slo_met


def _collect_arrivals(pattern, seed=7, rate_rps=500_000.0, duration_ns=400_000.0,
                      **tenant_kwargs):
    sim = Simulator()
    tenant = TenantSpec(name="t", accelerator="popcount", pattern=pattern,
                        **tenant_kwargs)
    arrivals = []

    def submit(request):
        arrivals.append((sim.now, request.request_id, request.size))

    source = TrafficSource(sim, tenant, submit, rate_rps,
                           duration_ns=duration_ns, seed=seed)
    source.start()
    sim.run()
    return arrivals


@pytest.mark.parametrize("pattern", ["poisson", "bursty", "diurnal"])
def test_open_loop_arrivals_are_seed_deterministic(pattern):
    first = _collect_arrivals(pattern)
    second = _collect_arrivals(pattern)
    assert first == second
    assert first != _collect_arrivals(pattern, seed=8)
    # The long-run rate is in the right ballpark (0.5 req/us over 400 us).
    assert 60 <= len(first) <= 400


def _record_golden_stream(pattern, seed, rate_krps=200.0, duration_us=400.0,
                          **knobs):
    """Replays the recording recipe behind ``tests/data/traffic_golden.json``."""
    sim = Simulator()
    tenant = TenantSpec(name="golden", accelerator="popcount",
                        pattern=pattern, **knobs)
    seen = []

    def submit(request):
        request.arrival_ns = sim.now
        seen.append([round(sim.now, 6), request.size, request.request_id])
        if request.completion is not None:
            # Complete instantly so closed loops keep cycling.
            request.finish_ns = sim.now
            request.completion.succeed(request)

    source = TrafficSource(sim, tenant, submit, rate_krps * 1000.0,
                           duration_ns=duration_us * 1000.0, seed=seed)
    source.start()
    sim.run()
    return seen


def test_arrival_streams_match_pre_batching_golden():
    """The batched arrival generators reproduce the retired per-request
    draws bit for bit (``tests/data/traffic_golden.json`` was recorded
    before the ARRIVAL_CHUNK pre-generation rewrite)."""
    with open(os.path.join(DATA_DIR, "traffic_golden.json")) as handle:
        golden = json.load(handle)
    assert sorted({key.split("/")[0] for key in golden}) == [
        "bursty", "closed", "diurnal", "poisson"]
    for key in sorted(golden):
        pattern, seed = key.split("/")
        knobs = {"clients": 3, "think_ns": 5_000.0} if pattern == "closed" else {}
        fresh = _record_golden_stream(pattern, int(seed), **knobs)
        assert fresh == golden[key], f"stream {key} diverged from the recording"


def test_open_loop_stops_at_duration():
    arrivals = _collect_arrivals("poisson", duration_ns=100_000.0)
    assert all(t < 110_000.0 for t, _, _ in arrivals)


def test_open_loop_requires_positive_rate():
    sim = Simulator()
    tenant = TenantSpec(name="t", accelerator="popcount")
    with pytest.raises(ValueError, match="rate"):
        TrafficSource(sim, tenant, lambda r: None, 0.0,
                      duration_ns=1000.0, seed=1)


def test_closed_loop_clients_wait_for_completion():
    sim = Simulator()
    tenant = TenantSpec(name="t", accelerator="popcount", pattern="closed",
                        clients=2, think_ns=1_000.0)
    in_flight = {"now": 0, "max": 0}

    def submit(request):
        in_flight["now"] += 1
        in_flight["max"] = max(in_flight["max"], in_flight["now"])

        def finish():
            yield sim.timeout(500.0)
            request.finish_ns = sim.now
            in_flight["now"] -= 1
            request.completion.succeed(request)

        sim.process(finish())

    source = TrafficSource(sim, tenant, submit, 0.0,
                           duration_ns=50_000.0, seed=3)
    source.start()
    sim.run()
    assert source.emitted > 2
    # A closed loop never has more outstanding requests than clients.
    assert in_flight["max"] <= 2


def _instant_finish(sim):
    """A submit callback that completes every request after a fixed delay."""
    arrivals = []

    def submit(request):
        arrivals.append(sim.now)

        def finish():
            yield sim.timeout(100.0)
            request.finish_ns = sim.now
            if request.completion is not None:
                request.completion.succeed(request)

        sim.process(finish())

    return submit, arrivals


@pytest.mark.parametrize("pattern", ["poisson", "closed"])
def test_start_delay_blackout_delays_but_never_drops(pattern):
    """A migration blackout (``start_delay_ns``) postpones the tenant's
    whole arrival process; the first request lands after the blackout and
    the stream still flows (regression: closed-loop clients must pay the
    blackout *before* their think-time stagger, not lose requests to it)."""
    sim = Simulator()
    tenant = TenantSpec(name="t", accelerator="popcount", pattern=pattern,
                        clients=2, think_ns=1_000.0)
    submit, arrivals = _instant_finish(sim)
    source = TrafficSource(sim, tenant, submit, 500_000.0,
                           duration_ns=100_000.0, seed=3,
                           start_delay_ns=40_000.0)
    source.start()
    sim.run()
    assert source.emitted > 0
    assert min(arrivals) >= 40_000.0
    assert max(arrivals) < 110_000.0


@pytest.mark.parametrize("pattern", ["poisson", "closed"])
def test_blackout_longer_than_window_emits_nothing_and_terminates(pattern):
    """A blackout outlasting the epoch swallows the tenant's traffic
    entirely — zero arrivals, but the processes still terminate (a closed
    client must re-check the duration after the blackout, not block)."""
    sim = Simulator()
    tenant = TenantSpec(name="t", accelerator="popcount", pattern=pattern,
                        clients=2, think_ns=1_000.0)
    submit, arrivals = _instant_finish(sim)
    source = TrafficSource(sim, tenant, submit, 500_000.0,
                           duration_ns=100_000.0, seed=3,
                           start_delay_ns=250_000.0)
    processes = source.start()
    sim.run()
    assert arrivals == []
    assert source.emitted == 0
    assert all(process.finished for process in processes)


def test_request_lifecycle_metrics():
    request = Request(request_id=1, tenant="t", accelerator="popcount",
                      size=4, slo_ns=100.0)
    assert request.latency_ns == 0.0 and request.queue_wait_ns == 0.0
    request.arrival_ns, request.start_ns, request.finish_ns = 10.0, 30.0, 90.0
    assert request.queue_wait_ns == 20.0
    assert request.latency_ns == 80.0
    assert request.slo_met
    request.finish_ns = 200.0
    assert not request.slo_met


def test_build_sources_splits_rate_by_weight():
    sim = Simulator()
    tenants = TENANT_MIXES["quad"]
    sources = build_sources(sim, tenants, lambda r: None,
                            total_rate_rps=100_000.0, duration_ns=1000.0, seed=1)
    by_name = {source.tenant.name: source for source in sources}
    # Open-loop weights: alpha .4, beta .4, gamma .2; delta is closed-loop.
    assert by_name["alpha"].rate_per_ns == pytest.approx(
        by_name["beta"].rate_per_ns)
    assert by_name["alpha"].rate_per_ns == pytest.approx(
        2 * by_name["gamma"].rate_per_ns)
    assert by_name["delta"].rate_per_ns == 0.0


# --------------------------------------------------------------------------- #
# Policies (pure selection logic)
# --------------------------------------------------------------------------- #
class _FakeFabric:
    def __init__(self, sim, current_design=None):
        self.sim = sim
        self.current_design = current_design

    def has_resident(self, name):
        return name == self.current_design

    def estimate_service_ns(self, request):
        return float(request.size)


def _pending(*specs):
    requests = []
    for index, (accelerator, size, priority, arrival) in enumerate(specs):
        request = Request(request_id=index, tenant="t", accelerator=accelerator,
                          size=size, priority=priority)
        request.arrival_ns = arrival
        requests.append(request)
    return requests


def test_policy_factory_and_kinds():
    assert set(POLICY_KINDS) == {"fcfs", "sjf", "priority", "affinity"}
    for kind in POLICY_KINDS:
        assert make_policy(kind).kind == kind
    with pytest.raises(ValueError, match="known policies"):
        make_policy("round_robin")
    with pytest.raises(ValueError, match="patience"):
        AffinityPolicy(patience_ns=-1.0)


def test_fcfs_and_sjf_and_priority_selection():
    sim = Simulator()
    fabric = _FakeFabric(sim)
    pending = _pending(("popcount", 30, 0, 0.0), ("sort64", 5, 2, 1.0),
                       ("tangent", 10, 1, 2.0))
    assert make_policy("fcfs").select(pending, fabric) == 0
    assert make_policy("sjf").select(pending, fabric) == 1
    assert make_policy("priority").select(pending, fabric) == 1


def test_affinity_prefers_current_bitstream():
    sim = Simulator()
    fabric = _FakeFabric(sim, current_design="sort64")
    pending = _pending(("popcount", 8, 0, 0.0), ("sort64", 8, 0, 1.0))
    assert make_policy("affinity").select(pending, fabric) == 1
    # Nothing matching -> oldest.
    fabric.current_design = "tangent"
    assert make_policy("affinity").select(pending, fabric) == 0


def test_affinity_starvation_guard():
    sim = Simulator()
    fabric = _FakeFabric(sim, current_design="sort64")
    pending = _pending(("popcount", 8, 0, 0.0), ("sort64", 8, 0, 1.0))
    # Head has waited beyond patience (sim.now == 0, arrival 0 -> wait 0,
    # so shrink patience to force the guard with a fake old arrival).
    pending[0].arrival_ns = -200.0
    policy = AffinityPolicy(patience_ns=100.0)
    assert policy.select(pending, fabric) == 0


# --------------------------------------------------------------------------- #
# Scheduler / admission control
# --------------------------------------------------------------------------- #
def test_serve_config_validation():
    with pytest.raises(ValueError, match="fabric"):
        ServeConfig(num_fabrics=0, accelerators=("popcount",))
    with pytest.raises(ValueError, match="queue_capacity"):
        ServeConfig(queue_capacity=0, accelerators=("popcount",))
    with pytest.raises(ValueError, match="known policies"):
        ServeConfig(policy="lifo", accelerators=("popcount",))
    with pytest.raises(ValueError, match="accelerators"):
        FabricScheduler(Simulator(), ServeConfig())


@pytest.mark.parametrize("accelerators", [("bogus",), ("popcount", "fft")],
                         ids=["only", "one_of_two"])
def test_serve_config_rejects_unknown_accelerators_when_built(accelerators):
    """A catalog typo fails at ``ServeConfig`` construction, naming the
    field, not as a catalog ``KeyError`` out of ``FabricScheduler``."""
    with pytest.raises(ValueError, match="accelerators"):
        ServeConfig(accelerators=accelerators)


def test_serve_config_accepts_no_accelerators():
    """An empty tuple stays legal on the config (``FleetConfig`` builds
    one to check its node fields); only the scheduler needs an entry."""
    assert ServeConfig().accelerators == ()


def _bad_serving_field_error(config, field):
    """How ``config`` refuses a bad clock or patience: a field it holds
    rejects the value (``ValueError``); a field it lacks rejects the
    argument (``TypeError``).  Every deployment runs at the fixed serving
    clocks, so neither config holds one; ``FleetConfig`` holds no
    patience either (every node serves at the ``ServeConfig`` value)."""
    known = {f.name for f in dataclasses.fields(config)}
    return ValueError if field in known else TypeError


@pytest.mark.parametrize("config", [ServeConfig, FleetConfig])
@pytest.mark.parametrize("field, value", [
    ("system_mhz", 0.0), ("system_mhz", -1.0), ("fpga_mhz", 0.0),
    ("fpga_mhz", -5.0), ("patience_ns", -1.0),
])
def test_bad_clocks_and_patience_fail_when_the_config_is_built(
        config, field, value):
    """Under the default fcfs policy too: no run ever starts."""
    with pytest.raises(_bad_serving_field_error(config, field), match=field):
        config(**{field: value})


def test_bounded_queue_sheds_load():
    outcome = run_serve("fcfs", tenant_mix="duo", arrival_rate_krps=400.0,
                        duration_us=2_000.0, queue_capacity=8)
    aggregate = aggregate_row(outcome["rows"])
    assert aggregate["shed"] > 0
    assert (aggregate["completed"] + aggregate["shed"]
            == aggregate["submitted"])
    monitor = outcome["monitor"]
    # Queue depth never exceeded the bound.
    assert max(monitor.queue_depth.values) <= 8


def test_unbounded_queue_never_sheds():
    outcome = run_serve("fcfs", tenant_mix="duo", arrival_rate_krps=400.0,
                        duration_us=1_000.0, queue_capacity=None)
    aggregate = aggregate_row(outcome["rows"])
    assert aggregate["shed"] == 0
    assert aggregate["completed"] == aggregate["submitted"]


def test_scheduler_charges_real_reconfiguration_cost():
    tracer = Tracer()
    outcome = run_serve("fcfs", tenant_mix="duo", arrival_rate_krps=150.0,
                        duration_us=1_000.0, tracer=tracer)
    scheduler = outcome["scheduler"]
    fabric = scheduler.fabrics[0]
    assert fabric.reconfigurations > 0
    # Every programming went through the programming engine's transfer.
    transfers = [span for span in tracer.spans
                 if span.name == "xfer" and span.tid == f"{fabric.name}.ctrl"]
    assert len(transfers) == fabric.reconfigurations
    # The per-reconfiguration time matches the engine's transfer formula:
    # config_bits / PROGRAMMING_BITS_PER_CYCLE system cycles.  Starting
    # mid-cycle, wait_cycles(N) takes (N-1, N] periods.  Each traced
    # ``program`` span covers exactly one reconfigure() call.
    samples = [span.dur_ps / 1000.0 for span in tracer.spans
               if span.name == "program" and span.tid == fabric.name]
    assert len(samples) == fabric.reconfigurations
    bits_per_cycle = PROGRAMMING_BITS_PER_CYCLE
    period_ns = scheduler.sys_domain.period_ns
    expected = {
        accelerator.name: max(1, accelerator.bitstream.config_bits // bits_per_cycle)
        for accelerator in scheduler.accelerators.values()
    }
    low = (min(expected.values()) - 1) * period_ns
    high = max(expected.values()) * period_ns
    assert all(low < sample <= high for sample in samples)


def test_fabric_clock_follows_programmed_accelerator():
    outcome = run_serve("fcfs", tenant_mix="duo", arrival_rate_krps=100.0,
                        duration_us=500.0)
    scheduler = outcome["scheduler"]
    fabric = scheduler.fabrics[0]
    current = fabric.current_design
    assert current in scheduler.accelerators
    accelerator = scheduler.accelerators[current]
    assert (fabric.clock_generator.frequency_mhz
            == pytest.approx(accelerator.fmax_mhz))
    assert fabric.clock_generator.max_mhz == pytest.approx(accelerator.fmax_mhz)


def test_multiple_fabrics_raise_throughput():
    one = aggregate_row(run_serve("fcfs", tenant_mix="duo",
                                  arrival_rate_krps=400.0, duration_us=1_500.0,
                                  num_fabrics=1)["rows"])
    two = aggregate_row(run_serve("fcfs", tenant_mix="duo",
                                  arrival_rate_krps=400.0, duration_us=1_500.0,
                                  num_fabrics=2)["rows"])
    assert two["completed"] > one["completed"]
    assert two["p99_latency_us"] < one["p99_latency_us"]


# --------------------------------------------------------------------------- #
# SLO monitor
# --------------------------------------------------------------------------- #
def test_slo_monitor_accounting():
    sim = Simulator()
    monitor = SloMonitor(sim)
    good = Request(request_id=0, tenant="t", accelerator="popcount", size=1,
                   slo_ns=100.0)
    good.arrival_ns, good.start_ns, good.finish_ns = 0.0, 10.0, 50.0
    late = Request(request_id=1, tenant="t", accelerator="popcount", size=1,
                   slo_ns=100.0)
    late.arrival_ns, late.start_ns, late.finish_ns = 0.0, 10.0, 500.0
    monitor.on_submit(good, 1)
    monitor.on_submit(late, 2)
    monitor.on_complete(good)
    monitor.on_complete(late)
    rows = monitor.tenant_rows(elapsed_ns=1_000.0)
    tenant_row = rows[0]
    assert tenant_row["tenant"] == "t"
    assert tenant_row["completed"] == 2
    assert tenant_row["slo_violations"] == 1
    # Goodput counts only the SLO-met completion: 1 per 1000 ns = 1000 krps.
    assert tenant_row["goodput_krps"] == pytest.approx(1000.0)
    assert tenant_row["throughput_krps"] == pytest.approx(2000.0)
    aggregate = rows[-1]
    assert aggregate["tenant"] == "__all__"
    assert aggregate["completed"] == 2
    with pytest.raises(ValueError, match="elapsed"):
        monitor.tenant_rows(elapsed_ns=0.0)


def test_registered_tenant_reports_zeroed_row_without_traffic():
    """Regression: a tenant whose migration blackout swallowed its whole
    epoch must still appear in the rows (zeroed), not vanish from the
    accounts — downstream merges key on the tenant column."""
    sim = Simulator()
    monitor = SloMonitor(sim)
    monitor.register("silent", slo_ns=100.0)
    request = Request(request_id=0, tenant="busy", accelerator="popcount",
                      size=1, slo_ns=100.0)
    request.arrival_ns, request.start_ns, request.finish_ns = 0.0, 1.0, 2.0
    monitor.on_submit(request, 1)
    monitor.on_complete(request)
    rows = monitor.tenant_rows(elapsed_ns=1_000.0)
    silent = next(row for row in rows if row["tenant"] == "silent")
    assert silent["submitted"] == 0
    assert silent["completed"] == 0
    assert silent["goodput_krps"] == 0.0
    # Idempotent: re-registering never resets a live account.
    account = monitor.register("busy", slo_ns=999.0)
    assert account.completed == 1
    assert account.slo_ns == 100.0


def test_tenant_rows_are_sorted_and_percentiles_monotone():
    outcome = run_serve("affinity", tenant_mix="quad", arrival_rate_krps=250.0,
                        duration_us=1_000.0)
    rows = outcome["rows"]
    names = [row["tenant"] for row in rows]
    assert names == sorted(names[:-1]) + ["__all__"]
    for row in rows:
        assert (row["p50_latency_us"] <= row["p95_latency_us"]
                <= row["p99_latency_us"])


# --------------------------------------------------------------------------- #
# Experiments
# --------------------------------------------------------------------------- #
def test_mixes_and_registry():
    assert set(TENANT_MIXES) == {"mono", "duo", "quad"}
    with pytest.raises(KeyError, match="known mixes"):
        get_mix("octet")
    spec = get_experiment("serve_policy")
    assert set(spec.grid["policy"]) == set(POLICY_KINDS)
    assert get_experiment("serve_energy").fixed["tenant_mix"] == "duo"


def test_serve_policy_cell_rows_are_deterministic():
    kwargs = dict(policy="affinity", arrival_rate_krps=250.0,
                  tenant_mix="duo", duration_us=1_000.0)
    assert serve_policy_cell(**kwargs) == serve_policy_cell(**kwargs)
    assert (serve_policy_cell(**kwargs)
            != serve_policy_cell(**{**kwargs, "seed": DEFAULT_SEED + 1}))


def test_serve_policy_runner_serial_matches_process_executor():
    serial = Runner().run("serve_policy", policy=("fcfs", "affinity"),
                          arrival_rate_krps=250.0, tenant_mix="duo")
    parallel = Runner(executor="process", workers=2).run(
        "serve_policy", policy=("fcfs", "affinity"),
        arrival_rate_krps=250.0, tenant_mix="duo")
    assert serial.rows == parallel.rows
    assert serial.summary == parallel.summary
    assert parallel.stats.executor == "process"


def test_affinity_beats_fcfs_under_reconfiguration_pressure():
    """The acceptance pin: >= 2 tenants with different bitstreams on one
    fabric, offered load past FCFS's reconfiguration-thrash capacity —
    affinity must win on both p99 latency and goodput."""
    fcfs = aggregate_row(serve_policy_cell("fcfs", 250.0, "duo"))
    affinity = aggregate_row(serve_policy_cell("affinity", 250.0, "duo"))
    assert len(TENANT_MIXES["duo"]) >= 2
    # Reconfiguration pressure is real: FCFS spends most of its busy time
    # reprogramming the fabric.
    assert fcfs["reconfig_overhead"] > 0.4
    # Affinity batches same-bitstream requests: fewer reconfigurations ...
    assert affinity["reconfigurations"] < fcfs["reconfigurations"]
    # ... and wins on both headline serving metrics, with margin.
    assert affinity["p99_latency_us"] < 0.5 * fcfs["p99_latency_us"]
    assert affinity["goodput_krps"] > 1.2 * fcfs["goodput_krps"]


def test_serve_policy_summary_names_affinity():
    rows = []
    for policy in ("fcfs", "affinity"):
        rows.extend(serve_policy_cell(policy, 250.0, "duo"))
    summary = serve_policy_summary(rows)
    assert summary["best_p99_policy[duo@250krps]"] == "affinity"
    assert summary["affinity_p99_vs_fcfs[duo@250krps]"] < 1.0
    assert summary["affinity_goodput_vs_fcfs[duo@250krps]"] > 1.0


def test_serve_energy_cell_reports_energy_per_request():
    rows = serve_energy_cell("affinity", duration_us=1_000.0)
    assert len(rows) == 1
    row = rows[0]
    assert row["tenant"] == "__all__"
    assert row["energy_nj"] > 0
    assert row["energy_per_request_nj"] > 0
    assert row["avg_power_mw"] > 0
    assert row["e_fpga_nj"] > 0
    # Deterministic too.
    assert rows == serve_energy_cell("affinity", duration_us=1_000.0)


def test_energy_accounting_does_not_change_timing():
    with_power = run_serve("affinity", tenant_mix="duo",
                           arrival_rate_krps=250.0, duration_us=1_000.0,
                           power=True)
    without = run_serve("affinity", tenant_mix="duo",
                        arrival_rate_krps=250.0, duration_us=1_000.0,
                        power=False)
    keys = ("submitted", "completed", "shed", "p99_latency_us",
            "goodput_krps", "reconfigurations")
    for key in keys:
        assert (aggregate_row(with_power["rows"])[key]
                == aggregate_row(without["rows"])[key])


def test_energy_accounting_requires_single_fabric():
    with pytest.raises(ValueError, match="one fabric"):
        run_serve("fcfs", tenant_mix="duo", arrival_rate_krps=100.0,
                  duration_us=500.0, num_fabrics=2, power=True)
