"""Unit and integration tests for system composition and the area model."""

import pytest

from repro.core import AdapterConfig
from repro.platform import (
    AreaModel,
    DollyConfig,
    SystemKind,
    TilePlan,
    TileRole,
    build_system,
)
from repro.platform.area import TABLE1_ROWS
from repro.sim import SimulationError


def test_config_naming_matches_paper_convention():
    assert DollyConfig.dolly(2, 2).name == "Dolly-P2M2"
    assert DollyConfig.fpsoc(1, 1).name == "FPSoC-P1M1"
    assert DollyConfig.cpu_only(4).name == "CPU-P4"


def test_config_validation():
    with pytest.raises(ValueError):
        DollyConfig(num_processors=0)
    with pytest.raises(ValueError):
        DollyConfig(num_processors=1, num_memory_hubs=1, kind=SystemKind.CPU_ONLY)


def test_config_rejects_nonpositive_frequencies():
    """Zero/negative clocks must fail at configuration time with a clear
    message, not deep inside ClockDomain at build time."""
    with pytest.raises(ValueError, match="system_mhz must be positive"):
        DollyConfig(system_mhz=0.0)
    with pytest.raises(ValueError, match="system_mhz must be positive"):
        DollyConfig(system_mhz=-1000.0)
    with pytest.raises(ValueError, match="fpga_mhz must be positive"):
        DollyConfig(fpga_mhz=0.0)
    with pytest.raises(ValueError, match="fpga_mhz must be positive"):
        DollyConfig.dolly(1, 1, fpga_mhz=-100.0)
    # None stays the "use the accelerator's Fmax" sentinel.
    assert DollyConfig.dolly(1, 1, fpga_mhz=None).fpga_mhz is None
    assert DollyConfig.dolly(1, 1, fpga_mhz=250.0).fpga_mhz == 250.0


def test_config_validates_noc_topology_at_config_time():
    """Unknown topology names must raise when the config is built — naming
    every valid fabric — not later inside make_topology during system
    construction."""
    from repro.noc.topology import TOPOLOGY_KINDS

    with pytest.raises(ValueError) as excinfo:
        DollyConfig.dolly(1, 1, noc_topology="hypercube")
    message = str(excinfo.value)
    assert "hypercube" in message
    for kind in TOPOLOGY_KINDS:
        assert kind in message
    # Case and whitespace are normalized, not rejected.
    assert DollyConfig.dolly(1, 1, noc_topology="Torus").noc_topology == "torus"
    assert DollyConfig.dolly(1, 1, noc_topology=" mesh ").noc_topology == "mesh"


@pytest.mark.parametrize("field, bad, default", [
    ("sync_stages", 0, 2),
    ("initial_fpga_mhz", 0.0, 100.0),
])
def test_adapter_config_rejects_bad_fields_when_built(field, bad, default):
    """A bad adapter field raises, naming the field, when the config is
    built, not later inside AsyncFifo or ClockDomain."""
    with pytest.raises(ValueError, match=f"{field} must be"):
        AdapterConfig(**{field: bad})
    assert getattr(AdapterConfig(), field) == default


def test_dolly_config_checks_its_adapter_fields_when_built():
    """A system with an FPGA builds its AdapterConfig up front, so a bad
    synchronizer depth fails at DollyConfig(), not inside build_system."""
    for make in (DollyConfig.dolly, DollyConfig.fpsoc):
        with pytest.raises(ValueError, match="sync_stages must be >= 1"):
            make(1, 1, sync_stages=0)


def test_tile_plan_roles_cover_p_c_and_m_tiles():
    plan = TilePlan.plan(DollyConfig.dolly(2, 2))
    assert len(plan.processor_tiles) == 2
    assert isinstance(plan.control_tile, int)
    assert len(plan.memory_tiles) == 1  # C-tile hosts the first Memory Hub
    assert plan.width * plan.height >= 4


def test_tile_plan_cpu_only_has_no_control_tile():
    plan = TilePlan.plan(DollyConfig.cpu_only(4))
    assert len(plan.processor_tiles) == 4
    with pytest.raises(LookupError):
        plan.control_tile


def test_build_system_dolly_p2m2_matches_fig8():
    system = build_system(DollyConfig.dolly(2, 2, fpga_mhz=100.0))
    assert len(system.cores) == 2
    assert system.adapter is not None
    assert system.adapter.num_memory_hubs == 2
    assert len(system.directories) == system.plan.width * system.plan.height


def test_build_system_cpu_only_has_no_adapter():
    system = build_system(DollyConfig.cpu_only(2))
    assert system.adapter is None
    assert system.fpga_domain is None


def test_warm_cache_preloads_lines():
    system = build_system(DollyConfig.cpu_only(1))
    base = system.memory.allocate(256)
    system.warm_cache(0, base, 256)

    def program(ctx):
        start = ctx.now
        for offset in range(0, 256, 16):
            yield from ctx.load(base + offset)
        return ctx.now - start

    elapsed, _ = system.run_single(program)
    # All warm hits: a couple of cycles per access, no DRAM latency anywhere.
    assert elapsed < 16 * 10


def test_run_programs_reports_elapsed_and_results():
    system = build_system(DollyConfig.cpu_only(2))

    def program(ctx, amount):
        yield from ctx.compute(amount)
        return amount

    results, elapsed = system.run_programs([(0, program, (100,)), (1, program, (300,))])
    assert results == [100, 300]
    assert elapsed >= 300.0


def _sharing_program(ctx, shared, words):
    # Stores to lines the other cores also touch, so coherence traffic is
    # still in flight when the programs return.
    total = 0
    for index in range(words):
        total += yield from ctx.load(shared + 64 * ((index + ctx.core_id) % words))
        yield from ctx.store(shared + 64 * ((index * 3 + ctx.core_id) % words), index)
        yield from ctx.compute(1 + ctx.core_id)
    return total


def _ticker(clock):
    # Background hardware that never stops: only the programs end a run.
    while True:
        yield clock.wait_cycles(1)


def test_run_programs_stops_where_polling_after_every_callback_stops():
    base = 0x4000
    assignments = [(core, _sharing_program, (base, 4 + 3 * core)) for core in range(4)]

    system = build_system(DollyConfig.cpu_only(4))
    system.sim.process(_ticker(system.sys_clock))
    results, elapsed = system.run_programs(assignments, drain_ns=0.0)

    reference = build_system(DollyConfig.cpu_only(4))
    reference.sim.process(_ticker(reference.sys_clock))
    processes = [reference.cores[core].run(program, *args)
                 for core, program, args in assignments]
    while not all(process.finished for process in processes):
        with pytest.raises(SimulationError, match="max_events"):
            reference.sim.run(max_events=1)

    assert system.sim.pending_events > 0  # the stop point is a real cut
    assert system.sim.now == reference.sim.now == elapsed
    assert system.sim.events_executed == reference.sim.events_executed
    assert results == [process.done.value for process in processes]


def test_run_programs_without_programs_stops_after_the_first_callback():
    system = build_system(DollyConfig.cpu_only(1))
    system.sim.process(_ticker(system.sys_clock))
    before = system.sim.events_executed
    assert system.run_programs([], max_events=1_000, drain_ns=0.0) == ([], 0.0)
    assert system.sim.events_executed == before + 1


# --------------------------------------------------------------------------- #
# Area model
# --------------------------------------------------------------------------- #
def test_table1_constants_exposed():
    model = AreaModel()
    assert model.ariane_mm2 == pytest.approx(1.56)
    assert model.pmesh_socket_mm2 == pytest.approx(1.10)
    assert model.control_hub_mm2 == pytest.approx(0.21)
    assert model.coherent_mem_intf_mm2 == pytest.approx(0.04)
    assert model.reference_block_mm2 == pytest.approx(2.66)


def test_area_accounting_orders_systems_correctly():
    model = AreaModel()
    cpu = model.processor_only_area(4)
    fpsoc = model.fpsoc_area(4, efpga_mm2=3.0)
    duet = model.duet_area(4, 1, efpga_mm2=3.0)
    assert cpu < fpsoc < duet
    # The Duet Adapter adds little on top of the FPSoC (Sec. V-B).
    assert duet - fpsoc < model.reference_block_mm2


def test_adp_normalization():
    model = AreaModel()
    assert model.normalized_adp(10.0, 100.0, 10.0, 100.0) == pytest.approx(1.0)
    assert model.normalized_adp(20.0, 50.0, 10.0, 100.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        model.normalized_adp(1.0, 1.0, 0.0, 1.0)


def test_linear_scaling_model():
    # Table I scales Ariane from 22 nm linearly: area by the square of the
    # feature-size ratio, frequency by its inverse.
    ariane = TABLE1_ROWS[0]
    assert ariane.scaled_area_mm2 == pytest.approx(ariane.area_mm2 * (44.0 / 22.0) ** 2)
    assert ariane.scaled_freq_mhz == pytest.approx(ariane.freq_mhz * 22.0 / 44.0)
