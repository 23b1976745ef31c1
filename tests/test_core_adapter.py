"""Integration tests for the Duet Adapter on full Dolly / FPSoC systems."""

import pytest

from repro.core import DuetError, ErrorCode, FeatureSwitches, RegisterKind, RegisterSpec
from repro.core.control_hub import (REG_CLK_MHZ, REG_ERROR, REG_PROGRAM, REG_RESET,
                                    REG_STATUS, REG_TIMEOUT)
from repro.core.shadow_registers import BOGUS_VALUE, TOKEN_AVAILABLE, TOKEN_EMPTY
from repro.fpga import AcceleratorDesign, SoftAccelerator
from repro.platform import DollyConfig, SystemKind, build_system


class EchoAccelerator(SoftAccelerator):
    """Pops requests from an FPGA-bound FIFO, pushes value+1 to a CPU-bound FIFO."""

    DESIGN = AcceleratorDesign(name="echo", luts=200, ffs=300, mem_ports=1)
    STOP = 0xFFFF

    def behavior(self):
        count = 0
        while True:
            value = yield from self.regs.pop_request(0)
            if value == self.STOP:
                return count
            yield self.cycles(1)
            yield from self.regs.push_response(1, value + 1)
            count += 1


class MemoryReaderAccelerator(SoftAccelerator):
    """Loads a buffer through its Memory Hub and reports the sum."""

    DESIGN = AcceleratorDesign(name="memreader", luts=500, ffs=600, mem_ports=1)

    def __init__(self, base_addr, count, use_line_loads=False):
        super().__init__()
        self.base_addr = base_addr
        self.count = count
        self.use_line_loads = use_line_loads

    def behavior(self):
        # Wait for the "go" signal (plain shadow register 2 becomes nonzero).
        while True:
            go = yield from self.regs.read(2)
            if go:
                break
        total = 0
        if self.use_line_loads:
            addr = self.base_addr
            while addr < self.base_addr + self.count * 8:
                words = yield from self.mem.load_line(addr)
                total += sum(words)
                addr += 16
        else:
            for index in range(self.count):
                value = yield from self.mem.load(self.base_addr + index * 8)
                total += value
        yield from self.regs.push_response(1, total)
        return total


def echo_registers():
    return [
        RegisterSpec(0, RegisterKind.FPGA_BOUND_FIFO, "requests"),
        RegisterSpec(1, RegisterKind.CPU_BOUND_FIFO, "responses"),
        RegisterSpec(2, RegisterKind.PLAIN, "param"),
        RegisterSpec(3, RegisterKind.TOKEN_FIFO, "tokens"),
        RegisterSpec(4, RegisterKind.NORMAL, "barrier"),
    ]


def build(kind, processors=1, hubs=1, fpga_mhz=100.0):
    if kind is SystemKind.DUET:
        config = DollyConfig.dolly(processors, hubs, fpga_mhz=fpga_mhz)
    elif kind is SystemKind.FPSOC:
        config = DollyConfig.fpsoc(processors, hubs, fpga_mhz=fpga_mhz)
    else:
        config = DollyConfig.cpu_only(processors)
    return build_system(config)


# --------------------------------------------------------------------------- #
# Register round trips
# --------------------------------------------------------------------------- #
def test_echo_roundtrip_through_shadow_fifos():
    system = build(SystemKind.DUET)
    accelerator = EchoAccelerator()
    system.install_accelerator(accelerator, registers=echo_registers(), fpga_mhz=100.0)
    acc_proc = system.start_accelerator()
    adapter = system.adapter

    def program(ctx):
        results = []
        for i in range(5):
            yield from ctx.mmio_write(adapter.register_addr(0), 100 + i)
            results.append((yield from ctx.mmio_read(adapter.register_addr(1))))
        yield from ctx.mmio_write(adapter.register_addr(0), EchoAccelerator.STOP)
        return results

    (results, _) = system.run_single(program)
    assert results == [101, 102, 103, 104, 105]
    assert acc_proc.finished and acc_proc.done.value == 5


def test_plain_shadow_register_syncs_both_directions():
    system = build(SystemKind.DUET)

    class PlainAccelerator(SoftAccelerator):
        DESIGN = AcceleratorDesign(name="plain", luts=50, ffs=50, mem_ports=0)

        def behavior(self):
            # Wait until the CPU writes a nonzero parameter, then double it.
            while True:
                value = yield from self.regs.read(2)
                if value:
                    break
            yield from self.regs.write(2, value * 2)
            return value

    accelerator = PlainAccelerator()
    system.install_accelerator(accelerator, registers=echo_registers(), fpga_mhz=100.0)
    system.start_accelerator()
    adapter = system.adapter

    def program(ctx):
        yield from ctx.mmio_write(adapter.register_addr(2), 21)
        # Poll until the accelerator's doubled value is visible.
        while True:
            value = yield from ctx.mmio_read(adapter.register_addr(2))
            if value == 42:
                return value
            yield from ctx.compute(10)

    value, _ = system.run_single(program)
    assert value == 42


def test_token_fifo_nonblocking_semantics():
    system = build(SystemKind.DUET)

    class TokenAccelerator(SoftAccelerator):
        DESIGN = AcceleratorDesign(name="token", luts=50, ffs=50, mem_ports=0)

        def behavior(self):
            yield self.cycles(5)
            for _ in range(2):
                yield from self.regs.push_response(3, 1)
            return "pushed"

    system.install_accelerator(TokenAccelerator(), registers=echo_registers(), fpga_mhz=100.0)
    system.start_accelerator()
    adapter = system.adapter

    def program(ctx):
        early = yield from ctx.mmio_read(adapter.register_addr(3))
        # Give the accelerator time to produce the tokens.
        yield from ctx.compute(500)
        values = []
        for _ in range(3):
            values.append((yield from ctx.mmio_read(adapter.register_addr(3))))
        return early, values

    (early, values), _ = system.run_single(program)
    assert early == TOKEN_EMPTY
    assert values == [TOKEN_AVAILABLE, TOKEN_AVAILABLE, TOKEN_EMPTY]


def test_normal_register_barrier_between_cpu_and_fpga():
    system = build(SystemKind.DUET)

    class BarrierAccelerator(SoftAccelerator):
        DESIGN = AcceleratorDesign(name="barrier", luts=50, ffs=50, mem_ports=0)

        def behavior(self):
            complete = yield from self.regs.wait_cpu_read(4)
            yield self.cycles(20)  # pretend to work while the CPU is blocked
            complete(0x77)
            return "released"

    system.install_accelerator(BarrierAccelerator(), registers=echo_registers(), fpga_mhz=100.0)
    acc_proc = system.start_accelerator()
    adapter = system.adapter

    def program(ctx):
        start = ctx.now
        value = yield from ctx.mmio_read(adapter.register_addr(4))
        return value, ctx.now - start

    (value, elapsed), _ = system.run_single(program)
    assert value == 0x77
    assert acc_proc.done.value == "released"
    # The CPU was blocked for at least the accelerator's 20 slow cycles.
    assert elapsed >= 20 * system.fpga_domain.period_ns


def test_unmapped_register_returns_bogus_data():
    system = build(SystemKind.DUET)
    system.install_accelerator(EchoAccelerator(), registers=echo_registers(), fpga_mhz=100.0)
    adapter = system.adapter

    def program(ctx):
        value = yield from ctx.mmio_read(adapter.register_addr(55))
        return value

    value, _ = system.run_single(program)
    assert value == BOGUS_VALUE


# --------------------------------------------------------------------------- #
# Shadow registers vs normal registers (the Sec. II-F claim)
# --------------------------------------------------------------------------- #
def test_shadow_registers_are_faster_than_fpsoc_normal_registers():
    def mmio_latency(kind):
        system = build(kind, fpga_mhz=50.0)
        system.install_accelerator(EchoAccelerator(), registers=echo_registers(), fpga_mhz=50.0)
        system.start_accelerator()
        adapter = system.adapter

        def program(ctx):
            start = ctx.now
            for i in range(8):
                yield from ctx.mmio_write(adapter.register_addr(2), i)
            elapsed = ctx.now - start
            yield from ctx.mmio_write(adapter.register_addr(0), EchoAccelerator.STOP)
            return elapsed

        elapsed, _ = system.run_single(program)
        return elapsed

    assert mmio_latency(SystemKind.FPSOC) > 2.0 * mmio_latency(SystemKind.DUET)


# --------------------------------------------------------------------------- #
# Memory hubs: proxy cache vs slow cache
# --------------------------------------------------------------------------- #
def _run_memory_reader(kind, count=16, fpga_mhz=100.0, use_line_loads=False, soft_cache=None):
    system = build(kind, fpga_mhz=fpga_mhz)
    base = system.memory.allocate(count * 8)
    accelerator = MemoryReaderAccelerator(base, count, use_line_loads=use_line_loads)
    system.install_accelerator(
        accelerator, registers=echo_registers(), fpga_mhz=fpga_mhz, soft_cache=soft_cache
    )
    system.start_accelerator()
    adapter = system.adapter

    def program(ctx):
        for index in range(count):
            yield from ctx.store(base + index * 8, index + 1)
        start = ctx.now
        yield from ctx.mmio_write(adapter.register_addr(0), 1)  # ignored by reader
        yield from ctx.mmio_write(adapter.register_addr(2), 1)  # go!
        total = yield from ctx.mmio_read(adapter.register_addr(1))
        return total, ctx.now - start

    (total, elapsed), _ = system.run_single(program)
    expected = sum(range(1, count + 1))
    return total, expected, elapsed


def test_accelerator_reads_cpu_written_data_coherently_duet():
    total, expected, _ = _run_memory_reader(SystemKind.DUET)
    assert total == expected


def test_accelerator_reads_cpu_written_data_coherently_fpsoc():
    total, expected, _ = _run_memory_reader(SystemKind.FPSOC)
    assert total == expected


def test_duet_memory_access_is_faster_than_fpsoc_at_low_fpga_clock():
    _, _, duet_elapsed = _run_memory_reader(SystemKind.DUET, fpga_mhz=50.0)
    _, _, fpsoc_elapsed = _run_memory_reader(SystemKind.FPSOC, fpga_mhz=50.0)
    assert fpsoc_elapsed > duet_elapsed


def test_line_loads_reduce_request_count():
    total, expected, word_elapsed = _run_memory_reader(SystemKind.DUET, count=32)
    total2, expected2, line_elapsed = _run_memory_reader(
        SystemKind.DUET, count=32, use_line_loads=True
    )
    assert total == expected and total2 == expected2
    assert line_elapsed < word_elapsed


def test_soft_cache_exploits_locality():
    class RepeatReader(SoftAccelerator):
        DESIGN = AcceleratorDesign(name="repeat", luts=400, ffs=400, mem_ports=1)

        def __init__(self, base):
            super().__init__()
            self.base = base

        def behavior(self):
            while True:
                go = yield from self.regs.read(2)
                if go:
                    break
            total = 0
            for _ in range(8):            # re-reads the same 4 words repeatedly
                for index in range(4):
                    total += yield from self.mem.load(self.base + index * 8)
            yield from self.regs.push_response(1, total)
            return total

    def run(soft_cache):
        system = build(SystemKind.DUET, fpga_mhz=100.0)
        base = system.memory.allocate(64)
        accelerator = RepeatReader(base)
        system.install_accelerator(
            accelerator, registers=echo_registers(), fpga_mhz=100.0, soft_cache=soft_cache
        )
        system.start_accelerator()
        adapter = system.adapter

        def program(ctx):
            for index in range(4):
                yield from ctx.store(base + index * 8, 1)
            start = ctx.now
            yield from ctx.mmio_write(adapter.register_addr(2), 1)
            total = yield from ctx.mmio_read(adapter.register_addr(1))
            return total, ctx.now - start

        (total, elapsed), _ = system.run_single(program)
        return total, elapsed

    total_plain, elapsed_plain = run(soft_cache=None)
    total_cached, elapsed_cached = run(soft_cache=True)
    assert total_plain == total_cached == 32
    assert elapsed_cached < elapsed_plain


def test_soft_cache_receives_forwarded_invalidations():
    """A CPU store after the accelerator cached the line must not be missed."""
    system = build(SystemKind.DUET, fpga_mhz=200.0)
    base = system.memory.allocate(16)

    class ReadTwice(SoftAccelerator):
        DESIGN = AcceleratorDesign(name="readtwice", luts=100, ffs=100, mem_ports=1)

        def __init__(self):
            super().__init__()
            self.first = None
            self.second = None

        def behavior(self):
            self.first = yield from self.mem.load(base)
            # Tell the CPU we read it, then wait for it to update the value.
            yield from self.regs.push_response(1, self.first)
            while True:
                go = yield from self.regs.read(2)
                if go:
                    break
            self.second = yield from self.mem.load(base)
            yield from self.regs.push_response(1, self.second)
            return self.second

    accelerator = ReadTwice()
    system.install_accelerator(
        accelerator, registers=echo_registers(), fpga_mhz=200.0, soft_cache=True
    )
    system.start_accelerator()
    adapter = system.adapter

    def program(ctx):
        yield from ctx.store(base, 7)
        first = yield from ctx.mmio_read(adapter.register_addr(1))
        yield from ctx.store(base, 9)          # invalidates the proxy + soft cache
        yield from ctx.mmio_write(adapter.register_addr(2), 1)
        second = yield from ctx.mmio_read(adapter.register_addr(1))
        return first, second

    (first, second), _ = system.run_single(program)
    assert first == 7
    assert second == 9


# --------------------------------------------------------------------------- #
# Exceptions, deactivation and the FPGA manager
# --------------------------------------------------------------------------- #
def test_parity_error_deactivates_hubs_but_system_survives():
    system = build(SystemKind.DUET)

    class FaultyAccelerator(SoftAccelerator):
        DESIGN = AcceleratorDesign(name="faulty", luts=100, ffs=100, mem_ports=1)

        def behavior(self):
            port = self.env.mem_ports[0]
            event = yield from port.issue("load", 0x9000, corrupt=True)
            try:
                yield from port.wait(event)
            except DuetError:
                return "caught"
            return "no-error"

    accelerator = FaultyAccelerator()
    system.install_accelerator(accelerator, registers=echo_registers(), fpga_mhz=100.0)
    acc_proc = system.start_accelerator()
    adapter = system.adapter

    def program(ctx):
        # The CPU keeps using memory and MMIO after the accelerator faults.
        yield from ctx.compute(2000)
        yield from ctx.store(0xA000, 1)
        value = yield from ctx.load(0xA000)
        error = yield from ctx.mmio_read(adapter.control_addr(REG_ERROR))
        return value, error

    (value, error), _ = system.run_single(program)
    assert acc_proc.done.value == "caught"
    assert value == 1
    assert error == int(ErrorCode.PARITY)
    assert all(not hub.active for hub in adapter.memory_hubs)


def test_deactivated_hub_rejects_requests_until_reactivated():
    system = build(SystemKind.DUET)

    class OneLoad(SoftAccelerator):
        DESIGN = AcceleratorDesign(name="oneload", luts=100, ffs=100, mem_ports=1)

        def behavior(self):
            try:
                yield from self.mem.load(0x4000)
            except DuetError:
                return "rejected"
            return "ok"

    accelerator = OneLoad()
    system.install_accelerator(accelerator, registers=echo_registers(), fpga_mhz=100.0)
    system.adapter.deactivate_hubs()
    acc_proc = system.start_accelerator()
    system.sim.run()
    assert acc_proc.done.value == "rejected"


def test_control_registers_report_status_clock_and_timeout():
    system = build(SystemKind.DUET)
    system.install_accelerator(EchoAccelerator(), registers=echo_registers(), fpga_mhz=250.0)
    adapter = system.adapter

    def program(ctx):
        # A reset write is accepted and changes nothing.
        yield from ctx.mmio_write(adapter.control_addr(REG_RESET), 1)
        status = yield from ctx.mmio_read(adapter.control_addr(REG_STATUS))
        clk = yield from ctx.mmio_read(adapter.control_addr(REG_CLK_MHZ))
        yield from ctx.mmio_write(adapter.control_addr(REG_TIMEOUT), 1234)
        timeout = yield from ctx.mmio_read(adapter.control_addr(REG_TIMEOUT))
        return status, clk, timeout

    (status, clk, timeout), _ = system.run_single(program)
    assert status == 1
    assert clk == 250
    assert timeout == 1234
    assert "unknown_control_writes" not in adapter.control_hub.stats.counters()
    assert not adapter.exceptions.has_error


def test_program_register_write_latches_a_protocol_error():
    """No image can be staged for MMIO programming, so a REG_PROGRAM write
    latches PROTOCOL and leaves the installed design active."""
    system = build(SystemKind.DUET)
    system.install_accelerator(EchoAccelerator(), registers=echo_registers(), fpga_mhz=250.0)
    adapter = system.adapter
    installed = adapter.control_hub.programmed_bitstream

    def program(ctx):
        yield from ctx.mmio_write(adapter.control_addr(REG_PROGRAM), 1)
        error = yield from ctx.mmio_read(adapter.control_addr(REG_ERROR))
        status = yield from ctx.mmio_read(adapter.control_addr(REG_STATUS))
        return error, status

    (error, status), _ = system.run_single(program)
    assert error == int(ErrorCode.PROTOCOL)
    assert status == 1
    assert adapter.control_hub.programmed_bitstream is installed
    assert adapter.control_hub.stats.counters().get("programmings", 0) == 1


def test_tlb_protects_virtualized_accelerator():
    system = build(SystemKind.DUET)
    base = system.memory.allocate(4096, align=4096)

    class VirtualReader(SoftAccelerator):
        DESIGN = AcceleratorDesign(name="virt", luts=100, ffs=100, mem_ports=1)

        def behavior(self):
            value = yield from self.mem.load(0x0000_1000)  # virtual address
            return value

    accelerator = VirtualReader()
    system.install_accelerator(
        accelerator, registers=echo_registers(), fpga_mhz=100.0, physical_memory_access=False
    )
    hub = system.adapter.memory_hubs[0]
    assert hub.switches.enabled(FeatureSwitches.TLB_ENABLED)
    hub.tlb.install(vpn=0x1, ppn=base >> 12)
    system.memory.write_word(base, 0x1234)
    acc_proc = system.start_accelerator()
    system.sim.run()
    assert acc_proc.done.value == 0x1234
    assert hub.tlb.stats.counter("hits").value == 1


def test_install_rejects_accelerator_needing_too_many_hubs():
    system = build(SystemKind.DUET, hubs=1)

    class NeedsTwo(SoftAccelerator):
        DESIGN = AcceleratorDesign(name="two", luts=100, ffs=100, mem_ports=2)

        def behavior(self):
            yield self.cycles(1)

    with pytest.raises(DuetError):
        system.install_accelerator(NeedsTwo(), registers=echo_registers())
