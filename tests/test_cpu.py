"""Unit and integration tests for the core model, MMIO and synchronization."""

import pytest

from repro.core.soft_cache import SoftCacheConfig
from repro.cpu import Barrier, Core, CoreConfig, McsLock, MmioMap, MmioPort, SpinLock
from repro.cpu.core import CpuContext
from repro.cpu.mmio import MmioError
from repro.platform import DollyConfig, build_system
from repro.power import PowerConfig
from repro.sim import Delay
from tests.conftest import build_mini_system


def make_core(system, index=0, mmio_map=None):
    mmio = None
    if mmio_map is not None:
        mmio = MmioPort(system.sim, system.clock, system.routers[index], mmio_map)
    return Core(system.sim, system.clock, index, system.agents[index], mmio=mmio)


class EchoDevice:
    """A trivial MMIO device that stores written values and echoes reads."""

    def __init__(self, system, node, latency_cycles=2, target="dev"):
        self.system = system
        self.latency_cycles = latency_cycles
        self.values = {}
        self.port = system.routers[node].port(target, self._handle)

    def _handle(self, message):
        self.system.sim.process(self._respond(message))

    def _respond(self, message):
        yield self.system.clock.wait_cycles(self.latency_cycles)
        if message.kind == "mmio_write":
            self.values[message.addr] = message.meta["value"]
            self.port.reply(message, "mmio_resp")
        else:
            value = self.values.get(message.addr, 0xDEAD)
            self.port.reply(message, "mmio_resp", value=value)


# --------------------------------------------------------------------------- #
# CpuContext basics
# --------------------------------------------------------------------------- #
def test_compute_charges_cycles():
    system = build_mini_system()
    core = make_core(system)

    def program(ctx):
        start = ctx.now
        yield from ctx.compute(100)
        return ctx.now - start

    process = core.run(program)
    system.sim.run()
    assert process.done.value == pytest.approx(100.0, abs=2.0)


def test_fp_compute_costs_more_than_int():
    system = build_mini_system()
    core = make_core(system)

    def program(ctx, fp):
        start = ctx.now
        yield from ctx.compute(50, fp=fp)
        return ctx.now - start

    p_int = core.run(program, False)
    system.sim.run()
    p_fp = core.run(program, True)
    system.sim.run()
    assert p_fp.done.value > p_int.done.value


def test_load_store_roundtrip_through_cache():
    system = build_mini_system()
    core = make_core(system)

    def program(ctx):
        yield from ctx.store(0x1000, 41)
        value = yield from ctx.load(0x1000)
        return value

    process = core.run(program)
    system.sim.run()
    assert process.done.value == 41
    assert core.stats.counter("stores").value == 1


def test_cas_and_fetch_add_semantics():
    system = build_mini_system()
    core = make_core(system)

    def program(ctx):
        ok_1 = yield from ctx.cas(0x2000, 0, 5)
        ok_2 = yield from ctx.cas(0x2000, 0, 9)
        old = yield from ctx.fetch_add(0x2000, 3)
        value = yield from ctx.load(0x2000)
        return ok_1, ok_2, old, value

    process = core.run(program)
    system.sim.run()
    assert process.done.value == (True, False, 5, 8)


def test_mmio_requires_port():
    system = build_mini_system()
    core = make_core(system)

    def program(ctx):
        yield from ctx.mmio_read(0xF0000000)

    core.run(program)
    with pytest.raises(RuntimeError):
        system.sim.run()


# --------------------------------------------------------------------------- #
# MMIO map and port
# --------------------------------------------------------------------------- #
def test_mmio_map_register_and_resolve():
    mmio_map = MmioMap()
    region = mmio_map.register(size=0x100, node=3, target="dev", name="echo")
    assert mmio_map.resolve(region.base + 8).node == 3
    with pytest.raises(MmioError):
        mmio_map.resolve(0x10)


def test_mmio_map_rejects_overlap():
    mmio_map = MmioMap()
    mmio_map.register(size=0x100, node=0, target="a", base=0xF0000000)
    with pytest.raises(MmioError):
        mmio_map.register(size=0x10, node=1, target="b", base=0xF0000080)


def test_mmio_read_write_roundtrip():
    system = build_mini_system()
    mmio_map = MmioMap()
    device = EchoDevice(system, node=3)
    region = mmio_map.register(size=0x100, node=3, target="dev", name="echo")
    core = make_core(system, mmio_map=mmio_map)

    def program(ctx):
        yield from ctx.mmio_write(region.base, 0x55)
        value = yield from ctx.mmio_read(region.base)
        return value

    process = core.run(program)
    system.sim.run()
    assert process.done.value == 0x55
    assert device.values[region.base] == 0x55


def test_mmio_strict_ordering_serializes_accesses():
    """Two programs sharing one MMIO port never overlap their transactions."""
    system = build_mini_system()
    mmio_map = MmioMap()
    EchoDevice(system, node=3, latency_cycles=20)
    region = mmio_map.register(size=0x100, node=3, target="dev")
    core = make_core(system, mmio_map=mmio_map)
    durations = []

    def program(ctx):
        start = ctx.now
        yield from ctx.mmio_read(region.base)
        durations.append(ctx.now - start)

    system.sim.process(program(core.context))
    system.sim.process(program(core.context))
    system.sim.run()
    assert len(durations) == 2
    # The second access waited for the first: it takes roughly twice as long.
    assert max(durations) > 1.8 * min(durations)


def test_mmio_latency_recorded():
    system = build_mini_system()
    mmio_map = MmioMap()
    EchoDevice(system, node=2, latency_cycles=5)
    region = mmio_map.register(size=0x40, node=2, target="dev")
    core = make_core(system, mmio_map=mmio_map)

    def program(ctx):
        yield from ctx.mmio_read(region.base)

    core.run(program)
    system.sim.run()
    assert core.mmio.mean_latency_ns("mmio_read") > 5.0


# --------------------------------------------------------------------------- #
# Synchronization primitives
# --------------------------------------------------------------------------- #
def test_spinlock_mutual_exclusion_and_counter():
    system = build_mini_system(num_agents=4)
    cores = [make_core(system, i) for i in range(4)]
    lock = SpinLock(system.memory)
    shared = system.memory.allocate(16)
    in_critical = {"count": 0, "max": 0}

    def program(ctx):
        for _ in range(5):
            yield from lock.acquire(ctx)
            in_critical["count"] += 1
            in_critical["max"] = max(in_critical["max"], in_critical["count"])
            value = yield from ctx.load(shared)
            yield from ctx.compute(10)
            yield from ctx.store(shared, value + 1)
            in_critical["count"] -= 1
            yield from lock.release(ctx)

    for core in cores:
        core.run(program)
    system.sim.run(max_events=5_000_000)
    assert system.memory.read_word(shared) == 20
    assert in_critical["max"] == 1


def test_mcs_lock_mutual_exclusion_and_fifo_fairness():
    system = build_mini_system(num_agents=4)
    cores = [make_core(system, i) for i in range(4)]
    lock = McsLock(system.memory, max_threads=4)
    shared = system.memory.allocate(16)

    def program(ctx, thread):
        for _ in range(4):
            yield from lock.acquire(ctx, thread)
            value = yield from ctx.load(shared)
            yield from ctx.compute(20)
            yield from ctx.store(shared, value + 1)
            yield from lock.release(ctx, thread)

    for i, core in enumerate(cores):
        core.run(program, i)
    system.sim.run(max_events=10_000_000)
    assert system.memory.read_word(shared) == 16


def test_barrier_synchronizes_all_threads():
    system = build_mini_system(num_agents=4)
    cores = [make_core(system, i) for i in range(4)]
    barrier = Barrier(system.memory, num_threads=4)
    phase_times = {0: [], 1: []}

    def program(ctx, thread):
        # Threads do wildly different amounts of work before the barrier.
        yield from ctx.compute((thread + 1) * 200)
        yield from barrier.wait(ctx, thread)
        phase_times[0].append(ctx.now)
        yield from ctx.compute(50)
        yield from barrier.wait(ctx, thread)
        phase_times[1].append(ctx.now)

    for i, core in enumerate(cores):
        core.run(program, i)
    system.sim.run(max_events=10_000_000)
    for phase in (0, 1):
        assert len(phase_times[phase]) == 4
        # Nobody leaves the barrier before the slowest participant arrives.
        assert max(phase_times[phase]) - min(phase_times[phase]) < 400.0
    assert min(phase_times[0]) >= 4 * 200


def test_barrier_requires_participants():
    system = build_mini_system()
    with pytest.raises(ValueError):
        Barrier(system.memory, num_threads=0)


def _generator_spin_until(ctx, addr, done):
    """The hand-written ``yield from`` poll loop, with its two-instruction
    pause spelled out, that ``spin_until`` must reproduce."""
    while True:
        value = yield from ctx.load(addr)
        if done(value):
            return value
        yield from ctx.compute(2)


def _spin_against_a_late_store(spin, decoy, final):
    """Core 0 spins on a word that core 1 sets to ``decoy`` and later to
    ``final``; returns the value, time and counters seen by the spinner."""
    system = build_mini_system()
    spinner, writer = make_core(system, 0), make_core(system, 1)
    word = system.memory.allocate(16)

    def write_late(ctx):
        yield from ctx.compute(150)
        yield from ctx.store(word, decoy)
        yield from ctx.compute(150)
        yield from ctx.store(word, final)

    def spin_program(ctx):
        value = yield from spin(ctx, word)
        return value, ctx.now

    process = spinner.run(spin_program)
    writer.run(write_late)
    system.sim.run()
    counters = spinner.stats.counters()
    return process.done.value, counters["loads"], counters["instructions"]


@pytest.mark.parametrize("done, decoy, final", [
    (lambda value: value == 5, 3, 5),   # Barrier / lock-flag form
    (lambda value: value != 0, 0, 7),   # McsLock.release waiting for a link
], ids=["equals", "nonzero"])
def test_spin_until_matches_a_hand_written_poll_loop(done, decoy, final):
    expected = _spin_against_a_late_store(
        lambda ctx, addr: _generator_spin_until(ctx, addr, done), decoy, final)
    measured = _spin_against_a_late_store(
        lambda ctx, addr: ctx.spin_until(addr, done), decoy, final)
    assert measured == expected
    (value, _), loads, _ = measured
    assert value == final and loads > 10


def _release_spinners(threads):
    """``threads`` cores of a CPU-only system with energy accounting each
    spin once on a flag they just set, meet at a barrier, so one sense flip
    releases ``threads - 1`` spinners at once, then take a spin lock in
    turn, so each release hands the lock to a crowd of spinners.  Returns
    everything the spinning can move."""
    system = build_system(DollyConfig.cpu_only(threads, power=PowerConfig(enabled=True)))
    sim = system.sim
    barrier = Barrier(system.memory, threads)
    lock = SpinLock(system.memory)
    flags = [system.memory.allocate(system.memory.config.line_bytes)
             for _ in range(threads)]
    sends = []
    network_send = system.network.send

    def logged_send(message):
        sends.append((sim.now, sim._sequence, message.src, message.dst, message.kind,
                      message.addr))
        return network_send(message)

    system.network.send = logged_send

    def program(ctx, thread):
        # A spin whose first poll hits the L1 and is done: the process
        # resumes inside the poll's own callback.
        yield from ctx.store(flags[thread], thread + 1)
        yield from ctx.spin_until(flags[thread], lambda value: value == thread + 1)
        yield from ctx.compute(100 * (thread + 1))
        yield from barrier.wait(ctx, thread)
        released = ctx.now
        yield from lock.acquire(ctx)
        yield from ctx.compute(100)
        yield from lock.release(ctx)
        return released, ctx.now

    results, elapsed = system.run_programs(
        [(thread, program, (thread,)) for thread in range(threads)])
    return {
        "results": results,
        "elapsed": elapsed,
        "now": sim.now,
        "events": sim.events_executed,
        "sequence": sim._sequence,
        "cores": [core.stats.counters() for core in system.cores],
        "agents": [(core.cache.stats.counters(), core.cache.l1.hits, core.cache.l1.misses)
                   for core in system.cores],
        "memory": system.memory.stats.counters(),
        "probe": system.energy.probe.snapshot(),
        "sends": sends,
    }


@pytest.mark.parametrize("threads", [4, 8])
def test_spin_until_releases_many_spinners_exactly_as_the_poll_loop(threads, monkeypatch):
    """Callback-driven polls queue the poll loop's heap entries: same
    results, instants, event and sequence counts, counters, probe totals
    and NoC sends in the same order, also when one store releases several
    spinners at the same instant."""
    measured = _release_spinners(threads)
    monkeypatch.setattr(CpuContext, "spin_until", _generator_spin_until)
    expected = _release_spinners(threads)
    assert measured == expected
    l1_hits = sum(counters["l1_hits"] for counters, _, _ in measured["agents"])
    assert l1_hits > 50 * threads and measured["probe"]["core_active_cycles"] > 0


def test_a_raising_done_fails_the_spinning_process(monkeypatch):
    """``done`` raising on a poll that hits the L1 fails the spinner at the
    same instant, with the same counters, as in the poll loop."""

    def spin_into_an_error():
        system = build_mini_system()
        core = make_core(system)
        word = system.memory.allocate(16)
        polls = []

        def done(value):
            polls.append(value)
            if len(polls) == 5:
                raise ValueError("bad poll")
            return False

        process = core.run(lambda ctx: ctx.spin_until(word, done))
        with pytest.raises(ValueError, match="bad poll"):
            system.sim.run()
        return (process.failed, system.sim.now, system.sim.events_executed,
                core.stats.counters(), core.cache.stats.counters())

    measured = spin_into_an_error()
    monkeypatch.setattr(CpuContext, "spin_until", _generator_spin_until)
    assert measured == spin_into_an_error()
    assert measured[0] and measured[4]["l1_hits"] == 4


def test_lock_contention_scales_runtime():
    """More contenders on one spin lock means longer total runtime."""

    def run_with(n):
        system = build_mini_system(width=4, height=4, num_agents=n)
        cores = [make_core(system, i) for i in range(n)]
        lock = SpinLock(system.memory)

        def program(ctx):
            for _ in range(5):
                yield from lock.acquire(ctx)
                yield from ctx.compute(20)
                yield from lock.release(ctx)

        for core in cores:
            core.run(program)
        system.sim.run(max_events=20_000_000)
        return system.sim.now

    assert run_with(8) > run_with(2)


@pytest.mark.parametrize("config, field, value, match", [
    (CoreConfig, "issue_width", 0, "issue_width"),
    (CoreConfig, "int_op_cycles", -1.0, "int_op_cycles"),
    (CoreConfig, "fp_op_cycles", -0.5, "fp_op_cycles"),
    (CoreConfig, "branch_cycles", -1.0, "branch_cycles"),
    (CoreConfig, "mem_issue_cycles", -1.0, "mem_issue_cycles"),
    (SoftCacheConfig, "size_bytes", 0, "size_bytes"),
    (SoftCacheConfig, "assoc", 0, "assoc"),
    (SoftCacheConfig, "line_bytes", -16, "line_bytes"),
    (SoftCacheConfig, "word_bytes", 0, "word_bytes"),
    (SoftCacheConfig, "line_bytes", 12, "whole number of 8-byte words"),
    (SoftCacheConfig, "hit_cycles", -1, "hit_cycles"),
    (SoftCacheConfig, "write_buffer_depth", 0, "write_buffer_depth"),
], ids=["CoreConfig.issue_width", "CoreConfig.int_op_cycles",
        "CoreConfig.fp_op_cycles", "CoreConfig.branch_cycles",
        "CoreConfig.mem_issue_cycles", "SoftCacheConfig.size_bytes",
        "SoftCacheConfig.assoc", "SoftCacheConfig.line_bytes",
        "SoftCacheConfig.word_bytes", "SoftCacheConfig.line_bytes_in_words",
        "SoftCacheConfig.hit_cycles", "SoftCacheConfig.write_buffer_depth"])
def test_core_and_soft_cache_configs_reject_bad_fields(config, field, value,
                                                       match):
    """A bad pipeline cost or cache geometry fails when the config is built,
    not deep in a run: ``write_buffer_depth=0`` would park every soft-cache
    store forever."""
    with pytest.raises(ValueError, match=match):
        config(**{field: value})


def test_core_and_soft_cache_configs_accept_zero_costs():
    CoreConfig(int_op_cycles=0.0, fp_op_cycles=0.0, branch_cycles=0.0,
               mem_issue_cycles=0.0)
    SoftCacheConfig(hit_cycles=0, line_bytes=8, word_bytes=8)
