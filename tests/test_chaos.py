"""Tests for the ``repro.chaos`` reliability layer: deterministic fault
schedules (seeded, picklable, ``PYTHONHASHSEED``-independent), serve-level
failover (fabric kills, latent SEUs, cuts in the chain of control links),
the fleet chaos control plane (spare promotion, replay, the recovery
acceptance pins), and the consistent-hash ring's arc-neighbour property
that failover re-placement relies on."""

import dataclasses
import os
import pickle
import random
import subprocess
import sys

import pytest

from chaos_utils import (
    REPO_ROOT,
    aggregate_row,
    assert_conservation,
    empty_schedule,
    pinned_fault,
    run_chaos_fleet,
    run_chaos_serve,
    strip_chaos_columns,
)
from repro.api import Runner
from repro.chaos import (
    ChaosConfig,
    FAULT_KINDS,
    FaultEvent,
    FaultInjector,
    FaultSchedule,
    FaultSpec,
)
from repro.fleet import NodeSpec, TenantShare
from repro.fleet.experiments import FLEET_TENANTS
from repro.fleet.router import HashPlacement
from repro.serve.experiments import run_serve
from repro.obs import Tracer
from repro.serve.scheduler import SEU_DETECT_NS, FabricScheduler, ServeConfig
from repro.serve.traffic import Request
from repro.sim import Delay, Simulator


# --------------------------------------------------------------------------- #
# FaultSchedule: validation, determinism, stream independence
# --------------------------------------------------------------------------- #
def test_fault_spec_validation():
    with pytest.raises(ValueError, match="kind"):
        FaultSpec(kind="gamma_ray", rate_per_epoch=1.0)
    with pytest.raises(ValueError, match="scope"):
        FaultSpec(kind="seu", rate_per_epoch=1.0, scope="rack")
    with pytest.raises(ValueError, match="rate_per_epoch"):
        FaultSpec(kind="seu", rate_per_epoch=-1.0)
    with pytest.raises(ValueError, match="never fires"):
        FaultSpec(kind="seu")
    with pytest.raises(ValueError, match="negative"):
        FaultSpec(kind="link", rate_per_epoch=1.0, repair_ns=-1.0)


def test_schedule_events_are_sorted_in_window_and_deterministic():
    schedule = FaultSchedule(seed=11, specs=(
        FaultSpec(kind="seu", rate_per_epoch=3.0),
        FaultSpec(kind="fabric", rate_per_epoch=1.5),
        FaultSpec(kind="link", rate_per_epoch=1.0, repair_ns=50_000.0),
    ))
    for epoch in range(4):
        events = schedule.events(epoch=epoch, node_id=2, fabrics=3,
                                 epoch_ns=400_000.0)
        assert events == schedule.events(epoch=epoch, node_id=2, fabrics=3,
                                         epoch_ns=400_000.0)
        times = [event.time_ns for event in events]
        assert times == sorted(times)
        for event in events:
            assert 0.0 <= event.time_ns <= 400_000.0
            assert 0 <= event.fabric < 3
            assert event.kind in FAULT_KINDS


def test_schedule_streams_are_independent_per_spec_epoch_and_node():
    base = FaultSchedule(seed=5, specs=(
        FaultSpec(kind="seu", rate_per_epoch=2.0),))
    extended = FaultSchedule(seed=5, specs=(
        FaultSpec(kind="seu", rate_per_epoch=2.0),
        FaultSpec(kind="fabric", rate_per_epoch=2.0),
    ))
    # Appending a spec never perturbs the streams of the ones before it
    # (spec identity enters the stream seed, not tuple-wide state).
    for epoch in range(3):
        first = [e for e in extended.events(epoch, 0, 2, 400_000.0)
                 if e.spec_index == 0]
        assert tuple(first) == base.events(epoch, 0, 2, 400_000.0)
    # Different epochs and nodes draw from different streams.
    draws = {base.events(epoch, node, 2, 400_000.0)
             for epoch in range(4) for node in range(4)}
    assert len(draws) > 1


def test_schedule_pinned_events_fire_exactly_once():
    schedule = pinned_fault("fabric", at_epoch=2, at_node=1, scope="node")
    fired = [(epoch, node)
             for epoch in range(4) for node in range(3)
             if schedule.events(epoch, node, 2, 400_000.0)]
    assert fired == [(2, 1)]
    (event,) = schedule.events(2, 1, 2, 400_000.0)
    assert event.kind == "fabric" and event.scope == "node"


def test_schedule_rate_scales_mean_event_count():
    schedule = FaultSchedule(seed=3, specs=(
        FaultSpec(kind="seu", rate_per_epoch=0.5),
        FaultSpec(kind="seu", rate_per_epoch=4.0),
    ))
    counts = {0: 0, 1: 0}
    samples = 200
    for epoch in range(samples):
        for event in schedule.events(epoch, 0, 2, 400_000.0):
            counts[event.spec_index] += 1
    # Loose two-sided bounds: Poisson means 0.5 and 4.0 over 200 draws.
    assert 0.25 * samples < counts[0] < 0.9 * samples
    assert 3.0 * samples < counts[1] < 5.0 * samples


def test_schedule_validates_events_arguments():
    schedule = FaultSchedule(seed=1, specs=(
        FaultSpec(kind="seu", rate_per_epoch=1.0),))
    with pytest.raises(ValueError, match="fabric"):
        schedule.events(0, 0, 0, 400_000.0)
    with pytest.raises(ValueError, match="epoch_ns"):
        schedule.events(0, 0, 2, 0.0)


def test_schedule_pickle_round_trip_preserves_draws():
    schedule = FaultSchedule(seed=17, specs=(
        FaultSpec(kind="seu", rate_per_epoch=2.0),
        FaultSpec(kind="link", rate_per_epoch=1.0, repair_ns=30_000.0),
    ))
    clone = pickle.loads(pickle.dumps(schedule))
    assert clone == schedule
    assert clone.events(1, 2, 3, 400_000.0) == schedule.events(1, 2, 3, 400_000.0)


def test_fault_schedules_are_pythonhashseed_independent():
    """Stream seeds are CRC-32 + arithmetic mixing only, so interpreters
    with different string-hash randomization draw identical schedules."""
    script = (
        "import dataclasses, json, sys\n"
        "from repro.chaos import FaultSchedule, FaultSpec\n"
        "schedule = FaultSchedule(seed=2023, specs=(\n"
        "    FaultSpec(kind='seu', rate_per_epoch=2.0),\n"
        "    FaultSpec(kind='fabric', rate_per_epoch=1.0, scope='node'),\n"
        "    FaultSpec(kind='link', rate_per_epoch=0.5, repair_ns=60000.0),\n"
        "))\n"
        "events = [dataclasses.astuple(event)\n"
        "          for epoch in range(3) for node in range(3)\n"
        "          for event in schedule.events(epoch, node, 2, 400000.0)]\n"
        "json.dump(events, sys.stdout)\n"
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


def test_chaos_config_validation_and_enabled():
    config = ChaosConfig(empty_schedule().schedule)
    assert config.schedule.specs == () and config.recovery


# --------------------------------------------------------------------------- #
# Serve-level failover
# --------------------------------------------------------------------------- #
def test_no_fault_chaos_serve_run_is_bit_identical_to_plain():
    """An armed-but-empty schedule must not move a single byte: the chaos
    hooks are default-off and fault-free goldens never change shape."""
    plain = run_serve(policy="fcfs", duration_us=400.0, num_fabrics=2)
    chaos = run_serve(policy="fcfs", duration_us=400.0, num_fabrics=2,
                      chaos=empty_schedule())
    assert chaos["rows"] == plain["rows"]
    assert chaos["chaos"]["faults_injected"] == 0


def test_fabric_kill_sheds_nothing_with_recovery():
    # 300 krps keeps both fabrics busy, so the pinned kill is guaranteed
    # to catch a request in flight.
    outcome = run_chaos_serve(ChaosConfig(pinned_fault("fabric")),
                              arrival_rate_krps=300.0)
    row = aggregate_row(outcome["rows"])
    assert_conservation(row)
    assert outcome["chaos"]["fabric_faults"] == 1
    assert outcome["chaos"]["dead_fabrics"] == 1
    # The in-flight request on the dead fabric was lost and replayed, not
    # dropped; recovery_time_ns tracks how long tenants took to recover.
    assert row["replayed"] == outcome["chaos"]["requests_lost"] > 0
    assert row["fault_shed"] == 0
    assert row["recovery_time_ns"] > 0.0


def test_fabric_kill_without_recovery_sheds_lost_requests():
    outcome = run_chaos_serve(
        ChaosConfig(pinned_fault("fabric"), recovery=False),
        arrival_rate_krps=300.0)
    row = aggregate_row(outcome["rows"])
    assert_conservation(row)
    assert row["replayed"] == 0
    assert row["fault_shed"] == outcome["chaos"]["requests_lost"] > 0


def test_node_scope_kill_flushes_queue_when_no_fabric_survives():
    outcome = run_chaos_serve(
        ChaosConfig(pinned_fault("fabric", scope="node")), num_fabrics=2)
    row = aggregate_row(outcome["rows"])
    assert_conservation(row)
    assert outcome["chaos"]["dead_fabrics"] == 2
    # Everything submitted after the kill is stranded, then flushed as shed.
    assert row["shed"] > 0


def test_seu_is_latent_until_reprogram_then_scrubbed():
    # seed=3 lands the upset before the accelerator's next reconfiguration,
    # so the latent corruption is guaranteed to trip the integrity check.
    outcome = run_chaos_serve(ChaosConfig(pinned_fault("seu", seed=3)),
                              policy="fcfs", num_fabrics=1)
    row = aggregate_row(outcome["rows"])
    assert_conservation(row)
    assert outcome["chaos"]["seu_scrubs"] >= 1
    assert row["replayed"] >= 1
    # Scrubbing restores the pristine image: the run completes traffic.
    assert row["completed"] > 0


def test_seu_without_recovery_poisons_the_accelerator():
    outcome = run_chaos_serve(
        ChaosConfig(pinned_fault("seu", seed=3), recovery=False),
        policy="fcfs", num_fabrics=1)
    row = aggregate_row(outcome["rows"])
    assert_conservation(row)
    scheduler = outcome["scheduler"]
    assert scheduler.poisoned
    assert row["fault_shed"] > 0


def test_seu_during_a_transfer_stays_latent_until_the_next_program():
    """An SEU lands in the *stored* image: ``corrupt_image`` swaps in a new
    object, so the image already in flight is untouched.  The transfer that
    was running completes on the pristine image, and the next program of
    that accelerator trips the integrity check and takes the scrub path."""
    sim = Simulator()
    tracer = Tracer()
    scheduler = FabricScheduler(sim, ServeConfig(
        policy="fcfs", accelerators=("popcount", "sort64")), tracer=tracer)
    fabric = scheduler.fabrics[0]
    injected = []
    corrupt_image = scheduler.corrupt_image

    def observed_corrupt_image(name, offset, flip_mask):
        injected.append((name, sim.now_ps, fabric.current_design,
                         fabric.reconfigurations))
        corrupt_image(name, offset, flip_mask)

    scheduler.corrupt_image = observed_corrupt_image
    # 1 ns in: the worker is inside popcount's configuration transfer.
    FaultInjector(sim, scheduler, [FaultEvent(
        kind="seu", time_ns=1.0, fabric=0, spec_index=0, seu_offset=3)])
    first, other, again = (
        Request(request_id=index, tenant="t", accelerator=name, size=8)
        for index, name in enumerate(("popcount", "sort64", "popcount")))

    def feeder():
        for request in (first, other, again):
            scheduler.submit(request)
        scheduler.close()
        yield from ()

    sim.process(feeder(), name="test.feeder")
    sim.run(max_events=500_000)
    # The upset hit while the fabric's first program was still running.
    assert len(injected) == 1
    name, injected_ps, design, reconfigurations = injected[0]
    assert (name, design, reconfigurations) == ("popcount", None, 0)
    transfers = [span for span in tracer.spans
                 if span.name == "xfer" and span.tid == f"{fabric.name}.ctrl"]
    assert [span.args["design"] for span in transfers] == [
        "popcount", "sort64", "popcount"]
    assert transfers[0].start_ps < injected_ps < transfers[0].start_ps + transfers[0].dur_ps
    # The in-flight program completed: the first request was served.
    assert first.finish_ns > 0 and not first.shed
    # The next popcount program tripped the check, after sort64 was served:
    # the scrub starts at the trip, and no transfer ran for that attempt.
    scrubs = [span for span in tracer.spans if span.name == "seu_scrub"]
    assert [(span.tid, span.args["design"]) for span in scrubs] == [
        (fabric.name, "popcount")]
    assert other.finish_ns * 1000.0 <= scrubs[0].start_ps
    assert scrubs[0].start_ps + scrubs[0].dur_ps <= transfers[2].start_ps
    assert scheduler.fault_stats["seu_scrubs"].value == 1
    assert scheduler.monitor.accounts["t"].replayed == 1
    assert again.finish_ns > 0 and not again.shed
    assert "popcount" not in scheduler.images
    assert fabric.current_design == "popcount"
    assert fabric.reconfigurations == 3


def test_the_injector_keeps_the_fault_path_the_scheduler_was_built_with():
    """``recovery`` is fixed when the scheduler is built: arming a
    :class:`FaultInjector` does not switch a shedding scheduler back to
    failover, so the tripped SEU poisons the accelerator."""
    sim = Simulator()
    scheduler = FabricScheduler(sim, ServeConfig(
        policy="fcfs", accelerators=("popcount", "sort64")), recovery=False)
    FaultInjector(sim, scheduler, [FaultEvent(
        kind="seu", time_ns=0.0, fabric=0, spec_index=0, seu_offset=3)])
    requests = [Request(request_id=index, tenant="t", accelerator="popcount",
                        size=8) for index in range(2)]

    def feeder():
        yield Delay(1.0)
        for request in requests:
            scheduler.submit(request)
        scheduler.close()

    sim.process(feeder(), name="test.feeder")
    sim.run(max_events=500_000)
    assert scheduler.recovery is False
    assert scheduler.poisoned == {"popcount"}
    assert scheduler.fault_stats["seu_scrubs"].value == 0
    assert all(request.shed for request in requests)


def test_every_seu_scrub_pays_the_one_detection_latency():
    """Each traced ``seu_scrub`` span, from the tripped program to the
    requeue, lasts exactly :data:`SEU_DETECT_NS` — the scheduler's one
    detection latency, whatever schedule drew the upset."""
    tracer = Tracer()
    run_serve("fcfs", arrival_rate_krps=300.0, duration_us=400.0,
              num_fabrics=2, tracer=tracer,
              chaos=ChaosConfig(FaultSchedule(seed=1, specs=(
                  FaultSpec(kind="seu", rate_per_epoch=3.0),)), recovery=True))
    scrubs = [span.dur_ps for span in tracer.spans if span.name == "seu_scrub"]
    assert scrubs
    assert set(scrubs) == {int(SEU_DETECT_NS * 1000)}


def test_link_cut_fails_unreachable_fabrics_and_repair_restores_them():
    outcome = run_chaos_serve(
        ChaosConfig(pinned_fault("link", repair_ns=50_000.0)),
        num_fabrics=2)
    row = aggregate_row(outcome["rows"])
    assert_conservation(row)
    assert outcome["chaos"]["link_faults"] == 1
    # The link repaired mid-run, so no fabric is dead at the end.
    assert outcome["chaos"]["dead_fabrics"] == 0
    assert row["completed"] > 0


@pytest.mark.parametrize("num_fabrics", [3, 4])
def test_link_cuts_fail_exactly_the_fabrics_cut_off_from_the_control_tile(
        num_fabrics):
    """On the chain of control links (link ``a`` joins fabric ``a`` to
    ``a + 1``), after every cut or repair the dead fabrics are exactly
    those unreachable from fabric 0 plus those a ``fabric`` fault killed;
    a repair revives only ``unreachable`` ones, and a fabric-killed fabric
    stays dead through every link repair."""
    scheduler = FabricScheduler(Simulator(), ServeConfig(
        num_fabrics=num_fabrics, accelerators=("popcount",)))
    links = list(range(num_fabrics - 1))
    cut = set()
    rng = random.Random(num_fabrics)
    killed = {num_fabrics - 1}
    assert scheduler.fail_fabric(num_fabrics - 1, reason="fabric")
    cuts = 0

    def reachable_from_control_tile():
        seen, frontier = {0}, [0]
        while frontier:
            node = frontier.pop()
            for link, other in ((node - 1, node - 1), (node, node + 1)):
                if link in links and link not in cut and other not in seen:
                    seen.add(other)
                    frontier.append(other)
        return seen

    def check():
        cut_off = set(range(num_fabrics)) - reachable_from_control_tile()
        failed = {f.index: f.fail_reason for f in scheduler.fabrics if f.failed}
        assert set(failed) == cut_off | killed
        assert all(failed[index] == "fabric" for index in killed)
        assert all(failed[index] == "unreachable"
                   for index in cut_off - killed)
        return cut_off

    cut_off = check()
    for _ in range(16):
        link = rng.choice(links)
        if rng.random() < 0.5:
            before = {f.index for f in scheduler.fabrics if f.failed}
            cut.add(link)
            cuts += 1
            lost = scheduler.cut_link(link)
            cut_off = check()
            assert set(lost) == cut_off - before
        else:
            was_unreachable = cut_off - killed
            cut.discard(link)
            revived = scheduler.restore_link(link)
            cut_off = check()
            assert set(revived) == was_unreachable - cut_off
            assert not set(revived) & killed
    for link in links:
        cut.discard(link)
        scheduler.restore_link(link)
    assert check() == set()
    assert {f.index for f in scheduler.fabrics if f.failed} == killed
    assert scheduler.fault_stats["link_faults"].value == cuts > 0
    for link in (-1, num_fabrics - 1):
        with pytest.raises(ValueError, match="control link"):
            scheduler.cut_link(link)


@pytest.mark.xfail(strict=True, reason=(
    "FaultInjector._run counts faults_injected even when _apply did "
    "nothing; the fix moves fleet_chaos rows"))
def test_faults_injected_counts_only_applied_faults():
    """A ``link`` fault on one fabric has no control link to cut, so it
    injects nothing and must not count (nor must a ``fabric`` kill of a
    fabric that is already dead)."""
    outcome = run_chaos_serve(ChaosConfig(pinned_fault("link")),
                              num_fabrics=1)
    assert outcome["chaos"]["link_faults"] == 0
    assert outcome["chaos"]["faults_injected"] == 0


def test_serve_chaos_rows_only_grow_columns_after_a_fault():
    plain = run_serve(policy="fcfs", duration_us=400.0, num_fabrics=2)
    chaos = run_chaos_serve(ChaosConfig(pinned_fault("fabric")))
    assert "fault_shed" not in aggregate_row(plain["rows"])
    faulted = aggregate_row(chaos["rows"])
    for column in ("fault_shed", "replayed", "recovery_time_ns"):
        assert column in faulted


# --------------------------------------------------------------------------- #
# Fleet chaos control plane
# --------------------------------------------------------------------------- #
def test_no_fault_chaos_fleet_matches_plain_rows_on_shared_columns():
    plain = run_chaos_fleet(chaos=None, spares=0)
    chaos = run_chaos_fleet(empty_schedule(), spares=0)
    assert [strip_chaos_columns(row) for row in chaos.rows] == plain.rows
    for row in chaos.rows:
        assert row["fault_shed"] == 0
        assert row["replayed"] == 0
        assert row["spare_promotions"] == 0
        assert row["dead_nodes"] == 0
    assert chaos.chaos["promotions"] == 0
    assert chaos.chaos["dead_nodes"] == []


def test_node_kill_promotes_spare_and_replays_lost_requests():
    schedule = pinned_fault("fabric", at_epoch=1, at_node=0, scope="node")
    outcome = run_chaos_fleet(ChaosConfig(schedule))
    row = aggregate_row(outcome.rows)
    assert_conservation(row)
    assert outcome.chaos["promotions"] == 1
    assert outcome.chaos["dead_nodes"] == [0]
    assert row["spare_promotions"] == 1
    # The promoted spare simulates as a live node in later epochs.
    promoted = [report for report in outcome.reports
                if report["node_id"] >= 1000 and not report.get("spare")]
    assert promoted
    assert row["replayed"] > 0


def test_node_kill_without_recovery_keeps_shedding():
    schedule = pinned_fault("fabric", at_epoch=1, at_node=0, scope="node")
    recovered = run_chaos_fleet(ChaosConfig(schedule))
    ablated = run_chaos_fleet(ChaosConfig(schedule, recovery=False))
    assert ablated.chaos["promotions"] == 0
    assert ablated.chaos["dead_nodes"] == []
    row = aggregate_row(ablated.rows)
    assert_conservation(row)
    assert row["fault_shed"] > 0
    # Recovery strictly beats the ablation on post-kill goodput.
    assert (sum(recovered.chaos["epoch_goodput"][2:])
            > sum(ablated.chaos["epoch_goodput"][2:]))


def test_chaos_fleet_serial_matches_process_executor():
    """A chaos fleet simulates its nodes in-process: asking for a process
    node executor fails when the config is built, naming the Runner's
    process executor (which runs whole chaos cells in parallel, pinned by
    the next test)."""
    schedule = FaultSchedule(seed=2023, specs=(
        FaultSpec(kind="fabric", at_epoch=1, at_node=0, scope="node"),
        FaultSpec(kind="seu", rate_per_epoch=1.0),
    ))
    with pytest.raises(ValueError, match=r'Runner\(executor="process"\)'):
        run_chaos_fleet(ChaosConfig(schedule), node_executor="process")


def test_chaos_runner_serial_matches_process_executor():
    overrides = dict(fault_rate=(0.0, 1.0), policy=("affinity",),
                     recovery=(True,), epochs=3, epoch_us=300.0)
    serial = Runner().run("chaos", **overrides)
    parallel = Runner(executor="process", workers=2).run("chaos", **overrides)
    assert serial.rows and serial.rows == parallel.rows
    assert serial.summary == parallel.summary
    assert parallel.stats.executor == "process"


def test_spares_burn_cost_but_take_no_traffic():
    outcome = run_chaos_fleet(empty_schedule(), spares=1)
    spare_reports = [r for r in outcome.reports if r.get("spare")]
    assert len(spare_reports) == 3  # one per epoch
    for report in spare_reports:
        assert all(account["submitted"] == 0
                   for account in report["tenants"].values())
    assert aggregate_row(outcome.rows)["spare_us"] > 0.0


# --------------------------------------------------------------------------- #
# Acceptance pins (mirrors the registered `chaos` experiment)
# --------------------------------------------------------------------------- #
def test_pinned_failover_restores_goodput_within_two_epochs():
    """The headline pin: after losing a whole node in epoch 1, spare
    promotion + re-placement + replay restore cluster goodput to >= 0.8x
    its pre-fault level within two epochs."""
    from repro.chaos.experiments import chaos_cell

    rows = chaos_cell(fault_rate=0.0, policy="affinity", recovery=True)
    row = aggregate_row(rows)
    assert row["goodput_recovery"] >= 0.8
    assert row["spare_promotions"] == 1
    assert_conservation(row)


def test_chaos_experiment_is_registered_with_full_grid():
    from repro.api.registry import get_experiment

    spec = get_experiment("chaos")
    assert spec.num_cells() == 3 * 2 * 2  # fault_rate x policy x recovery
    assert "reliability" in spec.tags


def test_chaos_summary_reports_recovery_and_gain():
    from repro.chaos.experiments import chaos_summary

    def fake_row(fault_rate, policy, recovery, ratio, post_total):
        return {"tenant": "__all__", "fault_rate": fault_rate,
                "policy": policy, "recovery": recovery,
                "goodput_recovery": ratio, "post_fault_good_total": post_total}

    summary = chaos_summary([
        fake_row(0.0, "fcfs", True, 0.95, 300),
        fake_row(0.0, "fcfs", False, 0.60, 200),
    ])
    assert summary["goodput_recovery[fcfs@rate0]"] == 0.95
    assert summary["recovered_within_2_epochs[fcfs@rate0]"] is True
    assert summary["recovery_goodput_gain[fcfs@rate0]"] == 1.5
    assert summary["all_points_recovered"] is True


# --------------------------------------------------------------------------- #
# Consistent-hash ring: the arc-neighbour property failover relies on
# --------------------------------------------------------------------------- #
def test_hash_ring_growth_moves_only_arc_neighbour_tenants():
    """Adding a node to the consistent-hash ring only moves tenants *onto*
    the new node (the arcs it claims); no tenant hops between two old
    nodes.  Failover re-placement depends on this locality."""
    policy = HashPlacement()
    rng = random.Random(1234)
    tenant_pool = list(FLEET_TENANTS)
    for trial in range(20):
        count = rng.randint(2, 6)
        nodes = [NodeSpec(node_id=i, fabrics=rng.randint(1, 2))
                 for i in range(count)]
        shares = tuple(TenantShare(tenant=t, rate_rps=1000.0)
                       for t in tenant_pool)
        before = policy.place(shares, nodes)
        grown = nodes + [NodeSpec(node_id=count + rng.randint(0, 50))]
        after = policy.place(shares, grown)
        moved = {name for name in before if after[name] != before[name]}
        assert all(after[name] == grown[-1].node_id for name in moved)


def test_hash_ring_shrink_moves_only_the_dead_nodes_tenants():
    """Removing a node (the failover direction) strands only its own
    tenants; everyone else stays put."""
    policy = HashPlacement()
    shares = tuple(TenantShare(tenant=t, rate_rps=1000.0)
                   for t in FLEET_TENANTS)
    nodes = [NodeSpec(node_id=i) for i in range(5)]
    before = policy.place(shares, nodes)
    for dead in range(5):
        survivors = [n for n in nodes if n.node_id != dead]
        after = policy.place(shares, survivors)
        for name, node_id in before.items():
            if node_id != dead:
                assert after[name] == node_id
