"""Unit tests for the Duet Adapter's building blocks."""

import pytest

from repro.core import (
    DuetError,
    ErrorCode,
    ExceptionHandler,
    FeatureSwitches,
    PageFault,
    RegisterKind,
    RegisterLayout,
    RegisterSpec,
    Tlb,
)
from repro.core.slow_cache import SlowCacheAgent
from repro.sim import ClockDomain, Delay, Simulator
from tests.conftest import build_mini_system


# --------------------------------------------------------------------------- #
# Feature switches
# --------------------------------------------------------------------------- #
def test_feature_switch_defaults_and_toggling():
    switches = FeatureSwitches()
    assert switches.enabled(FeatureSwitches.ACTIVE)
    assert not switches.enabled(FeatureSwitches.FORWARD_INVALIDATIONS)
    switches.set(FeatureSwitches.FORWARD_INVALIDATIONS, True)
    assert switches.enabled(FeatureSwitches.FORWARD_INVALIDATIONS)


def test_feature_switch_unknown_names_rejected():
    switches = FeatureSwitches()
    with pytest.raises(KeyError):
        switches.enabled("nonsense")
    with pytest.raises(KeyError):
        switches.set("nonsense", True)
    with pytest.raises(KeyError):
        switches.configure("nonsense", 1)


def test_feature_switch_settings_and_observers():
    switches = FeatureSwitches()
    seen = []
    switches.observe(lambda key, value: seen.append((key, value)))
    switches.configure(FeatureSwitches.TIMEOUT_CYCLES, 500)
    switches.set(FeatureSwitches.ACTIVE, False)
    assert switches.setting(FeatureSwitches.TIMEOUT_CYCLES) == 500
    assert (FeatureSwitches.TIMEOUT_CYCLES, 500) in seen
    assert (FeatureSwitches.ACTIVE, False) in seen
    with pytest.raises(ValueError):
        switches.configure(FeatureSwitches.TIMEOUT_CYCLES, -1)
    snapshot = switches.snapshot()
    assert snapshot[FeatureSwitches.ACTIVE] is False


# --------------------------------------------------------------------------- #
# Exception handler
# --------------------------------------------------------------------------- #
def _handler(timeout_cycles=100):
    sim = Simulator()
    domain = ClockDomain(sim, 1000.0, "sys")
    return sim, ExceptionHandler(sim, domain, timeout_cycles=timeout_cycles)


def test_exception_first_error_wins_and_clear():
    sim, handler = _handler()
    observed = []
    handler.on_error(observed.append)
    handler.raise_error(ErrorCode.PARITY)
    handler.raise_error(ErrorCode.TIMEOUT)
    assert handler.error_code is ErrorCode.PARITY
    assert observed == [ErrorCode.PARITY]
    handler.clear()
    assert not handler.has_error


def test_exception_parity_check_detects_corruption():
    sim, handler = _handler()
    assert handler.check_parity({"corrupt": False})
    assert not handler.check_parity({"corrupt": True})
    assert handler.error_code is ErrorCode.PARITY


def test_exception_guard_returns_value_before_timeout():
    sim, handler = _handler(timeout_cycles=1000)
    event = sim.event()

    def body():
        value = yield from handler.guard(event)
        return value

    sim.schedule(50.0, event.succeed, "ok")
    assert sim.run_process(body()) == "ok"
    assert not handler.has_error


def test_exception_guard_times_out_and_latches_error():
    sim, handler = _handler(timeout_cycles=100)
    event = sim.event()  # never fired

    def body():
        value = yield from handler.guard(event)
        return value

    assert sim.run_process(body()) is None
    assert handler.error_code is ErrorCode.TIMEOUT
    assert sim.now >= 100.0


def test_exception_timeout_configuration_validation():
    _, handler = _handler()
    with pytest.raises(ValueError):
        handler.set_timeout_cycles(0)
    handler.set_timeout_cycles(42)
    assert handler.timeout_cycles == 42


# --------------------------------------------------------------------------- #
# TLB
# --------------------------------------------------------------------------- #
def _tlb(**kwargs):
    sim = Simulator()
    domain = ClockDomain(sim, 1000.0, "sys")
    return sim, Tlb(sim, domain, **kwargs)


def test_tlb_hit_translates_and_preserves_offset():
    sim, tlb = _tlb()
    tlb.install(vpn=0x12, ppn=0x99)

    def body():
        physical = yield from tlb.translate((0x12 << 12) | 0x345)
        return physical

    assert sim.run_process(body()) == (0x99 << 12) | 0x345
    assert tlb.stats.counter("hits").value == 1


def test_tlb_miss_without_handler_raises_page_fault():
    sim, tlb = _tlb()

    def body():
        yield from tlb.translate(0xDEAD000)

    sim.process(body())
    with pytest.raises(PageFault):
        sim.run()


def test_tlb_fault_handler_fills_and_charges_penalty():
    sim, tlb = _tlb(fault_penalty_cycles=100)
    tlb.set_fault_handler(lambda vpn: vpn + 1)

    def body():
        start = sim.now
        physical = yield from tlb.translate(0x5000)
        return physical, sim.now - start

    physical, elapsed = sim.run_process(body())
    assert physical == 0x6000
    assert elapsed >= 100.0
    assert 0x5 in tlb
    # Second access hits without the penalty.

    def body2():
        start = sim.now
        yield from tlb.translate(0x5008)
        return sim.now - start

    assert sim.run_process(body2()) < 10.0


def test_tlb_fault_handler_can_kill_the_accelerator():
    sim, tlb = _tlb()
    tlb.set_fault_handler(lambda vpn: None)

    def body():
        yield from tlb.translate(0x7000)

    sim.process(body())
    with pytest.raises(PageFault):
        sim.run()


def test_tlb_capacity_eviction_and_identity_map():
    sim, tlb = _tlb(capacity=4)
    tlb.identity_map(0x10000, 4 * tlb.page_size)
    assert len(tlb) == 4
    tlb.install(0x999, 0x111)
    assert len(tlb) == 4  # one entry evicted
    tlb.invalidate()
    assert len(tlb) == 0


# --------------------------------------------------------------------------- #
# Register specs / layout
# --------------------------------------------------------------------------- #
def test_register_spec_validation_and_downgrade():
    spec = RegisterSpec(0, RegisterKind.CPU_BOUND_FIFO, "results", depth=4)
    assert spec.kind is not RegisterKind.NORMAL  # a shadowed kind
    downgraded = spec.downgraded()
    assert downgraded.kind is RegisterKind.NORMAL
    assert downgraded.index == 0
    with pytest.raises(ValueError):
        RegisterSpec(-1, RegisterKind.PLAIN)
    with pytest.raises(ValueError):
        RegisterSpec(0, RegisterKind.PLAIN, depth=0)


def test_register_layout_rejects_duplicates_and_finds_by_name():
    layout = RegisterLayout([
        RegisterSpec(0, RegisterKind.PLAIN, "a"),
        RegisterSpec(1, RegisterKind.TOKEN_FIFO, "b"),
    ])
    assert {spec.name: spec.index for spec in layout.specs}["b"] == 1
    assert len(layout) == 2
    with pytest.raises(ValueError):
        RegisterLayout([RegisterSpec(0, RegisterKind.PLAIN), RegisterSpec(0, RegisterKind.PLAIN)])
    with pytest.raises(ValueError):
        RegisterLayout([
            RegisterSpec(0, RegisterKind.PLAIN, "x"),
            RegisterSpec(1, RegisterKind.PLAIN, "x"),
        ])


# --------------------------------------------------------------------------- #
# Slow cache CDC FIFOs: overflow keeps every message, in order
# --------------------------------------------------------------------------- #
def _slow_cache_agent():
    system = build_mini_system(num_agents=0)
    fpga = ClockDomain(system.sim, 100.0, "fpga")
    agent = SlowCacheAgent(system.sim, fpga, system.clock, system.routers[3],
                           system.address_map, system.config, system.memory,
                           name="slow")
    return system.sim, agent


class _RecordingPort:
    """Stands in for the agent's real NoC port: records each send."""

    def __init__(self, sim):
        self.sim = sim
        self.sent = []

    def send(self, dst_node, dst_target, kind, **kwargs):
        self.sent.append(kwargs["seq"])
        return self.sim.event("sent").succeed(kwargs["seq"])


def test_slow_cache_inbound_overflow_delivers_every_message_in_order():
    sim, agent = _slow_cache_agent()
    handled = []
    agent._handle = handled.append
    for seq in range(70):  # the inbound FIFO holds 64
        agent._on_noc_arrival(seq)
    sim.run()
    assert handled == list(range(70))
    assert agent.stats.counter("inbound_fifo_overflow").value == 6
    assert agent.stats.counter("outbound_fifo_overflow").value == 0


def test_slow_cache_outbound_overflow_delivers_every_send_in_order():
    sim, agent = _slow_cache_agent()
    recorder = _RecordingPort(sim)
    agent.port._real_port = recorder
    delivered = [agent.port.send(0, "dir", "GetS", seq=seq)
                 for seq in range(70)]  # the outbound FIFO holds 64
    sim.run()
    assert recorder.sent == list(range(70))
    assert [event.value for event in delivered] == list(range(70))
    assert agent.stats.counter("outbound_fifo_overflow").value == 6
    assert agent.stats.counter("inbound_fifo_overflow").value == 0
