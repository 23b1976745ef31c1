"""Tests for ``repro.reconfig``: the region allocator property suite, the
provisioning plan, region-granular bitstreams, scheduler co-location edge
cases, the ``regions=1`` bit-identity golden, and the acceptance pin that
4-region affinity serving beats whole-fabric on reconfig overhead and p99."""

import json
import os
import subprocess
import sys
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.api.registry import get_experiment
from repro.api.runner import Runner
from repro.core.control_hub import PROGRAMMING_BITS_PER_CYCLE, program_cycles
from repro.fpga.bitstream import Bitstream, BitstreamError
from repro.fpga.fabric import FabricInstance, FabricSpec
from repro.fpga.synthesis import SynthesisModel
from repro.reconfig import (
    PlacementError,
    RegionAllocator,
    RegionPlan,
    minimal_region_capacity,
    pack_designs,
    sort_key,
)
from repro.reconfig.experiments import reconfig_cell, reconfig_summary
from repro.serve.catalog import materialize
from repro.serve.experiments import run_serve, serve_policy_cell
from repro.serve.scheduler import FabricScheduler, ServeConfig
from repro.serve.slo import SloMonitor
from repro.serve.traffic import Request
from repro.sim import Delay, Simulator

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# --------------------------------------------------------------------------- #
# program_cycles: the one shared transfer-cycle formula (serve + fleet)
# --------------------------------------------------------------------------- #
def test_program_cycles_values_and_errors():
    assert program_cycles(0, 64) == 1          # floor: even nothing costs a cycle
    assert program_cycles(1, 64) == 1
    assert program_cycles(64, 64) == 1
    assert program_cycles(65, 64) == 2          # ceil, not floor
    assert program_cycles(1024, 64) == 16
    with pytest.raises(ValueError, match="non-negative"):
        program_cycles(-1, 64)
    with pytest.raises(ValueError, match="positive"):
        program_cycles(64, 0)


def test_program_cycles_matches_both_legacy_formulas_for_catalog_images():
    """Tile-aligned images (tiles x 1024 bits vs 64 bits/cycle) divide
    exactly, so unifying serve's floor and fleet's ceil on one helper is
    bit-identical for every image either layer ever programs."""
    bits_per_cycle = PROGRAMMING_BITS_PER_CYCLE
    for name in ("popcount", "sort64", "tangent", "dijkstra"):
        bits = materialize(name).bitstream.config_bits
        assert bits % bits_per_cycle == 0
        assert program_cycles(bits, bits_per_cycle) == max(1, bits // bits_per_cycle)
        assert program_cycles(bits, bits_per_cycle) == -(-bits // bits_per_cycle)


def test_migration_stall_uses_the_shared_helper():
    from repro.fleet.node import migration_stall_ns

    sim = Simulator()
    scheduler = FabricScheduler(sim, ServeConfig(accelerators=("popcount",)))
    bits = scheduler.accelerators["popcount"].bitstream.config_bits
    cycles = program_cycles(bits, PROGRAMMING_BITS_PER_CYCLE)
    expected = cycles * 1000.0 / 1000.0 + 25_000.0
    assert migration_stall_ns(scheduler, "popcount") == expected


# --------------------------------------------------------------------------- #
# The fabric region grid
# --------------------------------------------------------------------------- #
def test_region_columns_partition_the_fabric():
    fabric = FabricInstance(FabricSpec(), columns=10, rows=7)
    assert fabric.region_columns(3) == (4, 3, 3)
    assert sum(fabric.region_columns(3)) == fabric.columns
    assert fabric.region_tile_capacities(3) == (28, 21, 21)
    assert sum(fabric.region_config_bits(3)) == fabric.config_bits
    assert fabric.region_columns(1) == (10,)
    with pytest.raises(ValueError, match="at least one region"):
        fabric.region_columns(0)
    with pytest.raises(ValueError, match="cannot split"):
        fabric.region_columns(11)


# --------------------------------------------------------------------------- #
# Region-granular bitstreams
# --------------------------------------------------------------------------- #
def _regioned_image(regions=4, columns=8, rows=4):
    design = materialize("popcount").spec.design
    fabric = FabricInstance(FabricSpec(), columns=columns, rows=rows)
    return Bitstream.generate(design, fabric, regions=regions), fabric


def test_generate_with_regions_carries_the_grid():
    image, fabric = _regioned_image()
    assert image.regions == 4
    assert image.region_bits == fabric.region_config_bits(4)
    assert sum(image.region_bits) == image.config_bits
    assert image.verify()
    # Region slices tile the payload exactly.
    assert b"".join(image.region_slice(i) for i in range(4)) == image.data
    # A monolithic image has no grid.
    mono = Bitstream.generate(materialize("popcount").spec.design, fabric)
    assert mono.regions == 1 and mono.region_bits is None
    with pytest.raises(BitstreamError, match="no region grid"):
        mono.for_regions((0,))


def test_for_regions_slices_bits_and_checksums():
    image, fabric = _regioned_image()
    partial = image.for_regions((1, 2))
    assert partial.config_bits == image.region_bits[1] + image.region_bits[2]
    assert partial.data == image.region_slice(1) + image.region_slice(2)
    assert partial.region_crcs == (image.region_crcs[1], image.region_crcs[2])
    assert partial.verify()
    assert partial.meta["regions"] == (1, 2)
    with pytest.raises(BitstreamError, match="at least one region"):
        image.for_regions(())
    with pytest.raises(BitstreamError, match="duplicate"):
        image.for_regions((1, 1))
    with pytest.raises(BitstreamError, match="out of range"):
        image.for_regions((4,))


def test_corruption_is_caught_per_region_and_stays_latent_elsewhere():
    """An SEU inside a transferred span must fail verify even though the
    partial's whole-payload CRC was recomputed over the corrupt bytes; an
    SEU confined to untransferred regions must stay latent."""
    image, _ = _regioned_image()
    assert image.verify()
    region1_offset = image.region_bits[0] // 8
    corrupt = image.corrupted(offset=region1_offset, flip_mask=0xFF)
    assert corrupt.region_bits == image.region_bits
    assert not corrupt.verify()
    assert not corrupt.for_regions((0, 1)).verify()   # span covers the flip
    assert corrupt.for_regions((2, 3)).verify()       # flip not transferred
    assert corrupt.for_regions((0,)).verify()


def test_region_field_validation():
    with pytest.raises(BitstreamError, match="together"):
        Bitstream("x", b"ab", zlib.crc32(b"ab"), 16, region_bits=(16,))
    with pytest.raises(BitstreamError, match="sum to"):
        Bitstream("x", b"ab", zlib.crc32(b"ab"), 16,
                  region_bits=(8, 16), region_crcs=(0, 0))
    with pytest.raises(BitstreamError, match="multiples of 8"):
        Bitstream("x", b"ab", zlib.crc32(b"ab"), 16,
                  region_bits=(12, 4), region_crcs=(0, 0))


# --------------------------------------------------------------------------- #
# RegionAllocator property suite (hypothesis)
# --------------------------------------------------------------------------- #
_NAMES = tuple(f"d{i}" for i in range(6))


@given(
    regions=st.integers(min_value=2, max_value=6),
    capacity=st.integers(min_value=1, max_value=32),
    ops=st.lists(
        st.tuples(st.sampled_from(("place", "evict", "pin", "unpin", "touch",
                                   "reset")),
                  st.integers(min_value=0, max_value=5),
                  st.integers(min_value=1, max_value=96)),
        max_size=40),
)
@settings(max_examples=60, deadline=None)
def test_allocator_invariants_under_arbitrary_sequences(regions, capacity, ops):
    """No overlap, contiguous spans, free-list conservation and
    placed-capacity >= requested tiles, under any place/evict/pin/reset
    mix; ``lookup`` always agrees with a scan of the occupancy."""
    allocator = RegionAllocator([capacity] * regions)
    for op, design, tiles in ops:
        name = _NAMES[design]
        try:
            if op == "place":
                placement = allocator.place(name, tiles)
                assert placement.count * capacity >= tiles
                assert name not in placement.evicted
            elif op == "evict":
                allocator.evict(name)
            elif op == "pin":
                allocator.pin(name)
            elif op == "unpin":
                allocator.unpin(name)
            elif op == "reset":
                allocator.reset()
            else:
                allocator.touch(name)
        except PlacementError:
            pass
        occupants = allocator.occupants
        occupied = sum(1 for occupant in occupants if occupant is not None)
        assert allocator.free_regions() + occupied == regions  # conservation
        for resident in allocator.residents():
            span = allocator.lookup(resident)
            assert span == tuple(range(span[0], span[0] + len(span)))
        for candidate in _NAMES:
            assert allocator.lookup(candidate) == (
                tuple(index for index, occupant in enumerate(occupants)
                      if occupant == candidate) or None)
        assert 0.0 <= allocator.fragmentation() <= 1.0


@given(
    tiles=st.dictionaries(st.sampled_from(_NAMES),
                          st.integers(min_value=1, max_value=200),
                          min_size=1, max_size=6),
    regions=st.integers(min_value=2, max_value=6),
    capacity=st.integers(min_value=8, max_value=64),
)
@settings(max_examples=60, deadline=None)
def test_pack_designs_is_deterministic_and_non_overlapping(
        tiles, regions, capacity):
    capacities = [capacity] * regions
    packed = pack_designs(tiles, capacities)
    # Insertion order of the input dict must not matter (FFD sorts with the
    # CRC-32 tiebreak, never hash order).
    reordered = dict(sorted(tiles.items(), reverse=True))
    assert pack_designs(reordered, capacities) == packed
    claimed = [index for placement in packed.values()
               for index in placement.regions]
    assert len(claimed) == len(set(claimed))            # no overlap
    for name, placement in packed.items():
        assert placement.count * capacity >= tiles[name]  # area covered


def test_sort_key_orders_big_first_with_stable_tiebreak():
    designs = {"aa": 10, "bb": 10, "cc": 40}
    ordering = sorted(designs, key=lambda name: sort_key(name, designs[name]))
    assert ordering[0] == "cc"
    tie = sorted(["aa", "bb"], key=lambda name: zlib.crc32(name.encode()))
    assert ordering[1:] == tie


def test_packing_is_pythonhashseed_independent():
    """Provisioning + packing must not consult ``hash()`` anywhere:
    interpreters with different string-hash seeds agree byte for byte."""
    script = (
        "import json, sys\n"
        "from repro.reconfig import RegionPlan, pack_designs\n"
        "from repro.serve.catalog import materialize\n"
        "accs = {n: materialize(n)\n"
        "        for n in ('popcount', 'sort64', 'tangent', 'dijkstra')}\n"
        "plan = RegionPlan.build(accs, 4, fabric_scale=0.6)\n"
        "packed = pack_designs(plan.tiles, plan.capacities)\n"
        "json.dump({'capacity': plan.region_capacity,\n"
        "           'grid': [plan.fabric.columns, plan.fabric.rows],\n"
        "           'placements': {name: [p.start, p.count]\n"
        "                          for name, p in sorted(packed.items())}},\n"
        "          sys.stdout, sort_keys=True)\n"
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


# --------------------------------------------------------------------------- #
# RegionPlan provisioning
# --------------------------------------------------------------------------- #
def test_minimal_region_capacity_is_minimal_and_feasible():
    tiles = {"a": 289, "b": 400}
    capacity = minimal_region_capacity(tiles, 4)
    spans = sum(-(-count // capacity) for count in tiles.values())
    assert spans <= 4
    if capacity > 1:
        worse = sum(-(-count // (capacity - 1)) for count in tiles.values())
        assert worse > 4                      # one tile smaller no longer fits
    # Infeasible (more designs than regions): fall back to fitting the
    # single biggest design across the whole grid.
    assert minimal_region_capacity({"a": 10, "b": 20, "c": 30}, 2) == 15
    with pytest.raises(PlacementError, match="zero designs"):
        minimal_region_capacity({}, 4)


def _span_needed(plan, name):
    """Regions ``name`` spans on ``plan``'s grid, by the allocator's rule."""
    return RegionAllocator(plan.capacities).span_needed(plan.tiles[name])


def test_duo_plan_co_locates_both_designs():
    """The tentpole sizing result: at 4 regions the duo designs fill the
    grid exactly, so steady-state serving needs no reconfiguration at all."""
    accelerators = {name: materialize(name) for name in ("popcount", "sort64")}
    plan = RegionPlan.build(accelerators, 4)
    assert _span_needed(plan, "popcount") + _span_needed(plan, "sort64") == 4
    assert len(set(plan.capacities)) == 1
    for name, acc in accelerators.items():
        image = plan.images[name]
        assert image.regions == 4 and image.verify()
        assert _span_needed(plan, name) * plan.region_capacity >= acc.tiles_needed
    assert plan.fabric.config_bits == sum(plan.images["popcount"].region_bits)


def test_plan_rejects_degenerate_inputs():
    accelerators = {"popcount": materialize("popcount")}
    with pytest.raises(PlacementError, match="whole-fabric"):
        RegionPlan.build(accelerators, 1)
    with pytest.raises(PlacementError, match="positive"):
        RegionPlan.build(accelerators, 4, fabric_scale=0.0)


def test_underprovisioned_plan_still_fits_the_widest_design():
    accelerators = {name: materialize(name)
                    for name in ("popcount", "sort64", "tangent", "dijkstra")}
    plan = RegionPlan.build(accelerators, 4, fabric_scale=0.25)
    for name in accelerators:
        assert _span_needed(plan, name) <= plan.regions


def test_synthesis_tiles_needed_matches_fabric():
    result = SynthesisModel().implement(materialize("popcount").spec.design)
    assert result.tiles_needed == result.fabric.total_tiles
    assert materialize("popcount").tiles_needed == result.tiles_needed


# --------------------------------------------------------------------------- #
# Allocator edge cases the scheduler leans on
# --------------------------------------------------------------------------- #
def test_all_pinned_grid_refuses_placement_instead_of_deadlocking():
    allocator = RegionAllocator([10, 10])
    allocator.place("a", 10)
    allocator.place("b", 10)
    allocator.pin("a")
    allocator.pin("b")
    assert not allocator.can_place(10, "c")
    with pytest.raises(PlacementError, match="pinned"):
        allocator.place("c", 10)
    with pytest.raises(PlacementError, match="pinned"):
        allocator.evict("a")
    allocator.unpin("a")
    assert allocator.can_place(10, "c")
    placement = allocator.place("c", 10)
    assert placement.evicted == ("a",)


def test_fragmented_grid_fits_total_but_not_contiguously():
    """Two free regions scattered around pinned residents cannot host a
    2-region design; freeing one unpins a contiguous run."""
    allocator = RegionAllocator([10] * 4)
    for name in ("a", "b", "c", "d"):
        allocator.place(name, 10)
    allocator.evict("a")
    allocator.evict("c")
    allocator.pin("b")
    allocator.pin("d")
    assert allocator.free_regions() == 2          # total area would fit...
    assert allocator.fragmentation() == 0.5       # ...but split 1 + 1
    assert not allocator.can_place(20, "e")       # needs a contiguous pair
    with pytest.raises(PlacementError):
        allocator.place("e", 20)
    allocator.unpin("d")
    assert allocator.can_place(20, "e")
    placement = allocator.place("e", 20)
    assert placement.evicted == ("d",)
    assert placement.regions == (2, 3)


def test_lru_eviction_order_follows_touches():
    allocator = RegionAllocator([10] * 2)
    allocator.place("a", 10)
    allocator.place("b", 10)
    allocator.touch("a")                           # b is now least recent
    assert allocator.place("c", 10).evicted == ("b",)


def test_unpin_tolerates_scrubbed_designs():
    allocator = RegionAllocator([10])
    allocator.unpin("ghost")                      # no-op, no raise
    allocator.place("a", 10)
    allocator.pin("a")
    allocator.pin("a")
    allocator.unpin("a")
    assert allocator.is_pinned("a")
    allocator.unpin("a")
    assert not allocator.is_pinned("a")


# --------------------------------------------------------------------------- #
# Scheduler co-location (driven deployments)
# --------------------------------------------------------------------------- #
def _drive_regional(submissions, accelerators, regions, scale=1.0,
                    policy="fcfs", queue_capacity=None):
    """Run a region-mode deployment over timed submissions to drain."""
    sim = Simulator()
    config = ServeConfig(policy=policy, accelerators=accelerators,
                         regions=regions, region_fabric_scale=scale,
                         queue_capacity=queue_capacity)
    scheduler = FabricScheduler(sim, config, monitor=SloMonitor(sim))

    def feeder():
        now = 0.0
        for at_ns, request in submissions:
            if at_ns > now:
                yield Delay(at_ns - now)
                now = at_ns
            scheduler.submit(request)
        scheduler.close()

    sim.process(feeder(), name="test.feeder")
    sim.run(max_events=2_000_000)
    return scheduler, sim


def test_co_located_designs_serve_concurrently():
    """Two designs on disjoint spans of one fabric overlap in time —
    the throughput payoff whole-fabric serving can never reach."""
    first = Request(request_id=1, tenant="t1", accelerator="popcount", size=2000)
    second = Request(request_id=2, tenant="t2", accelerator="sort64", size=2000)
    scheduler, _ = _drive_regional(
        [(0.0, first), (0.0, second)], ("popcount", "sort64"), regions=4)
    assert first.finish_ns > 0 and second.finish_ns > 0
    assert first.start_ns < second.finish_ns
    assert second.start_ns < first.finish_ns      # genuinely concurrent
    fabric = scheduler.fabrics[0]
    assert fabric.reconfigurations == 2
    assert fabric.regions_programmed == 4
    assert fabric.allocator.evictions == 0


def test_hot_swap_under_traffic_then_evict_when_idle():
    """A span hot-swaps in while another span's request is in flight; a
    wider design then waits for the pins to release and evicts both."""
    long_run = Request(request_id=1, tenant="t1", accelerator="popcount", size=4000)
    swap_in = Request(request_id=2, tenant="t2", accelerator="tangent", size=4000)
    wide = Request(request_id=3, tenant="t3", accelerator="sort64", size=100)
    scheduler, sim = _drive_regional(
        [(0.0, long_run), (1_000.0, swap_in), (2_000.0, wide)],
        ("popcount", "sort64", "tangent"), regions=4, scale=0.5)
    assert long_run.finish_ns > 0 and swap_in.finish_ns > 0 and wide.finish_ns > 0
    # The tangent span programmed and started while popcount was in flight.
    assert swap_in.start_ns < long_run.finish_ns
    # sort64 spans 3 regions on this under-provisioned grid: it could not
    # start until the pinned spans drained, then evicted to make room.
    fabric = scheduler.fabrics[0]
    assert wide.start_ns >= min(long_run.finish_ns, swap_in.finish_ns)
    assert fabric.allocator.evictions >= 1
    assert fabric.reconfigurations == 3
    assert not scheduler.pending                   # drained, no deadlock


def test_fully_pinned_fabric_sheds_under_bounded_queue():
    """Every design spans the whole grid: while one is in flight nothing
    else can start, the bounded queue fills, and admission sheds — the
    deployment degrades instead of deadlocking."""
    running = Request(request_id=1, tenant="t1", accelerator="popcount", size=4000)
    queued = Request(request_id=2, tenant="t2", accelerator="sort64", size=100)
    dropped = Request(request_id=3, tenant="t3", accelerator="tangent", size=100)
    scheduler, _ = _drive_regional(
        [(0.0, running), (1_000.0, queued), (2_000.0, dropped)],
        ("popcount", "sort64", "tangent"), regions=2, scale=0.1,
        queue_capacity=1)
    plan = scheduler.region_plan
    assert all(_span_needed(plan, name) == 2
               for name in ("popcount", "sort64", "tangent"))
    assert running.finish_ns > 0
    assert queued.finish_ns > 0                   # waited, then evicted in
    assert dropped.shed                           # queue full while pinned
    assert scheduler.fabrics[0].allocator.evictions >= 1


def test_seu_in_a_programmed_span_scrubs_and_retries():
    """Chaos interop: a corrupt byte inside the span being transferred
    trips the per-region integrity check; recovery scrubs the image,
    frees the half-programmed span and replays the request."""
    sim = Simulator()
    scheduler = FabricScheduler(sim, ServeConfig(
        policy="fcfs", accelerators=("popcount", "sort64"), regions=4))
    scheduler.corrupt_image("popcount", offset=0, flip_mask=0xFF)
    request = Request(request_id=1, tenant="t1", accelerator="popcount", size=10)

    def feeder():
        scheduler.submit(request)
        scheduler.close()
        yield from ()

    sim.process(feeder(), name="test.feeder")
    sim.run(max_events=500_000)
    assert scheduler.fault_stats["seu_scrubs"].value == 1
    assert scheduler.monitor.accounts["t1"].replayed == 1
    assert request.finish_ns > 0                  # retried on pristine image
    assert "popcount" not in scheduler.images     # override scrubbed


def test_seu_outside_the_programmed_span_stays_latent():
    """A flip in a region the partial transfer never touches cannot trip
    the check — realistic SEU behavior the whole-fabric path can't model."""
    sim = Simulator()
    scheduler = FabricScheduler(sim, ServeConfig(
        policy="fcfs", accelerators=("popcount", "sort64"), regions=4))
    # popcount places first at regions (0, 1); sort64 lands on (2, 3), so a
    # flip in byte 0 of sort64's image is outside its transferred span.
    scheduler.corrupt_image("sort64", offset=0, flip_mask=0xFF)
    first = Request(request_id=1, tenant="t1", accelerator="popcount", size=10)
    second = Request(request_id=2, tenant="t2", accelerator="sort64", size=10)

    def feeder():
        scheduler.submit(first)
        yield Delay(1.0)
        scheduler.submit(second)
        scheduler.close()

    sim.process(feeder(), name="test.feeder")
    sim.run(max_events=500_000)
    assert scheduler.fabrics[0].allocator.lookup("sort64") == (2, 3)
    assert scheduler.fault_stats["seu_scrubs"].value == 0
    assert first.finish_ns > 0 and second.finish_ns > 0
    assert "sort64" in scheduler.images           # still latent


def test_heal_resets_the_region_grid():
    sim = Simulator()
    scheduler = FabricScheduler(sim, ServeConfig(
        policy="fcfs", accelerators=("popcount", "sort64"), regions=4))
    request = Request(request_id=1, tenant="t1", accelerator="popcount", size=10)

    def feeder():
        scheduler.submit(request)
        scheduler.close()
        yield from ()

    sim.process(feeder(), name="test.feeder")
    sim.run(max_events=500_000)
    fabric = scheduler.fabrics[0]
    assert fabric.allocator.residents() == ("popcount",)
    scheduler.fail_fabric(0)
    scheduler.heal_fabric(0)
    # Configuration memory did not survive: the grid is blank again.
    assert fabric.allocator.residents() == ()


# --------------------------------------------------------------------------- #
# Default-off contract: regions=1 bit-identical to the pre-region goldens
# --------------------------------------------------------------------------- #
#: Columns allowed to exist beyond the pre-region golden's schema.  The
#: repro.obs PR extended every tenant row with deeper-tail percentiles —
#: values on the golden's own columns must still match byte for byte.
_POST_GOLDEN_COLUMNS = {"p999_latency_us", "max_latency_us"}


def _assert_rows_match_golden(rows, golden_rows, key):
    """Projection equality: every golden column present with the exact
    golden value, and any extra columns drawn only from the sanctioned
    post-golden set (so new columns are an explicit decision, not drift)."""
    assert len(rows) == len(golden_rows), f"{key}: row count drifted"
    for row, golden_row in zip(rows, golden_rows):
        for column, value in golden_row.items():
            assert row[column] == value, f"{key}: {column} drifted"
        extra = set(row) - set(golden_row)
        assert extra <= _POST_GOLDEN_COLUMNS, f"{key}: unexpected {extra}"


def test_regions_1_serve_and_chaos_match_pre_region_goldens():
    """The golden was recorded at the commit *before* region support; with
    regions merely compiled in (default 1), serve_policy and chaos cells
    must reproduce every golden column byte for byte."""
    from repro.chaos.experiments import chaos_cell

    with open(os.path.join(DATA_DIR, "reconfig_golden.json")) as fh:
        golden = json.load(fh)
    for policy in ("fcfs", "affinity"):
        for mix in ("duo", "quad"):
            key = f"serve_policy/{policy}/{mix}@250"
            rows = json.loads(json.dumps(serve_policy_cell(policy, 250.0, mix)))
            _assert_rows_match_golden(rows, golden[key], key)
    for fault_rate, policy, recovery in ((0.0, "fcfs", False),
                                         (1.0, "affinity", True)):
        key = f"chaos/{fault_rate:g}/{policy}/{recovery}"
        rows = json.loads(json.dumps(chaos_cell(
            fault_rate, policy, recovery, nodes=2, spares=1, epochs=3,
            epoch_us=300.0, rate_krps=200.0)))
        _assert_rows_match_golden(rows, golden[key], key)


def test_region_columns_only_exist_when_regions_above_one():
    plain = run_serve("fcfs", duration_us=300.0)
    assert all("regions" not in row for row in plain["rows"])
    regional = run_serve("fcfs", duration_us=300.0, regions=2)
    for row in regional["rows"]:
        assert row["regions"] == 2
        assert "region_programmings" in row
        assert "fragmentation_mean" in row


def test_run_serve_rejects_power_with_regions():
    with pytest.raises(ValueError, match="power accounting"):
        run_serve("fcfs", duration_us=100.0, regions=2, power=True)
    with pytest.raises(ValueError, match="regions"):
        ServeConfig(accelerators=("popcount",), regions=0)
    with pytest.raises(ValueError, match="region_fabric_scale"):
        ServeConfig(accelerators=("popcount",), region_fabric_scale=-1.0)


# --------------------------------------------------------------------------- #
# The reconfig experiment + acceptance pin
# --------------------------------------------------------------------------- #
def test_reconfig_experiment_registered_with_expected_grid():
    spec = get_experiment("reconfig")
    assert spec.grid["regions"] == (1, 2, 4)
    assert set(spec.grid["policy"]) == {"fcfs", "affinity"}
    assert set(spec.grid["tenant_mix"]) == {"duo", "quad"}
    assert spec.summarize is reconfig_summary


def test_reconfig_cell_rows_are_rectangular_and_deterministic():
    kwargs = dict(regions=2, policy="fcfs", tenant_mix="duo",
                  duration_us=500.0)
    rows = reconfig_cell(**kwargs)
    assert rows == reconfig_cell(**kwargs)
    baseline = reconfig_cell(regions=1, policy="fcfs", tenant_mix="duo",
                             duration_us=500.0)
    # Uniform columns across the sweep: the regions=1 rows carry zeroed
    # region columns so the result table stays rectangular.
    assert set(rows[0]) == set(baseline[0])
    assert baseline[0]["regions"] == 1
    assert baseline[0]["region_programmings"] == 0


def test_acceptance_pin_4_region_affinity_beats_whole_fabric():
    """The PR's acceptance: duo mix, affinity, 4 regions at 250 krps —
    reconfig-overhead fraction <= 0.5x whole-fabric and p99 <= 0.8x."""
    whole = next(row for row in reconfig_cell(
        regions=1, policy="affinity", tenant_mix="duo")
        if row["tenant"] == "__all__")
    regional = next(row for row in reconfig_cell(
        regions=4, policy="affinity", tenant_mix="duo")
        if row["tenant"] == "__all__")
    assert whole["reconfig_overhead"] > 0
    assert regional["reconfig_overhead"] <= 0.5 * whole["reconfig_overhead"]
    assert regional["p99_latency_us"] <= 0.8 * whole["p99_latency_us"]
    assert regional["goodput_krps"] >= whole["goodput_krps"]
    summary = reconfig_summary(
        reconfig_cell(regions=1, policy="affinity", tenant_mix="duo")
        + reconfig_cell(regions=4, policy="affinity", tenant_mix="duo"))
    assert summary["overhead_vs_whole[affinity/duo@4r/s1]"] <= 0.5
    assert summary["p99_vs_whole[affinity/duo@4r/s1]"] <= 0.8


def test_reconfig_runner_serial_matches_process_executor():
    overrides = dict(regions=(1, 4), policy=("affinity",),
                     tenant_mix=("duo",), fabric_scale=(1.0,))
    serial = Runner().run("reconfig", **overrides)
    parallel = Runner(executor="process", workers=2).run("reconfig", **overrides)
    assert serial.rows == parallel.rows
    assert serial.summary == parallel.summary
    assert parallel.stats.executor == "process"
