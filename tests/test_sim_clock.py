"""Unit tests for clock domains and edge arithmetic."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.sim import ClockDomain, SimulationError, Simulator


def test_period_from_frequency():
    sim = Simulator()
    clk = ClockDomain(sim, 1000.0, "sys")
    assert clk.period_ns == pytest.approx(1.0)
    slow = ClockDomain(sim, 100.0, "fpga")
    assert slow.period_ns == pytest.approx(10.0)


def test_next_edge_is_strictly_after():
    sim = Simulator()
    clk = ClockDomain(sim, 1000.0)
    assert clk.next_edge(0.0) == pytest.approx(1.0)
    assert clk.next_edge(0.5) == pytest.approx(1.0)
    assert clk.next_edge(1.0) == pytest.approx(2.0)


def test_edge_after_multiple_cycles():
    sim = Simulator()
    clk = ClockDomain(sim, 500.0)  # 2 ns period
    assert clk.edge_after(0.0, 1) == pytest.approx(2.0)
    assert clk.edge_after(0.0, 3) == pytest.approx(6.0)
    with pytest.raises(SimulationError):
        clk.edge_after(0.0, 0)


def test_phase_offset_shifts_edges():
    sim = Simulator()
    clk = ClockDomain(sim, 100.0, phase_ns=3.0)
    assert clk.next_edge(0.0) == pytest.approx(3.0)
    assert clk.next_edge(3.0) == pytest.approx(13.0)


def test_wait_cycles_aligns_process_to_edges():
    sim = Simulator()
    clk = ClockDomain(sim, 100.0)  # 10 ns period

    def body():
        yield 3.0  # now at 3 ns, mid-cycle
        yield clk.wait_cycles(1)
        first_edge = sim.now
        yield clk.wait_cycles(2)
        return first_edge, sim.now

    first_edge, second = sim.run_process(body())
    assert first_edge == pytest.approx(10.0)
    assert second == pytest.approx(30.0)


def test_invalid_frequency_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        ClockDomain(sim, 0.0)
    clk = ClockDomain(sim, 100.0)
    with pytest.raises(SimulationError):
        clk.freq_mhz = -5.0


def test_retuning_frequency_changes_period():
    sim = Simulator()
    clk = ClockDomain(sim, 100.0)
    clk.freq_mhz = 200.0
    assert clk.period_ns == pytest.approx(5.0)


def test_cycle_ns_roundtrip():
    sim = Simulator()
    clk = ClockDomain(sim, 250.0)
    assert clk.wait_cycles(17).ns == pytest.approx(17 * clk.period_ns)


@given(
    freq=st.floats(min_value=1.0, max_value=4000.0),
    at=st.floats(min_value=0.0, max_value=1e6),
)
def test_next_edge_properties(freq, at):
    """The next edge is strictly after `at` and within one period of it."""
    sim = Simulator()
    clk = ClockDomain(sim, freq)
    edge = clk.next_edge(at)
    assert edge > at
    assert edge - at <= clk.period_ns * (1 + 1e-6)


@given(
    freq=st.sampled_from([20.0, 50.0, 100.0, 200.0, 500.0, 1000.0]),
    at=st.floats(min_value=0.0, max_value=1e5),
    cycles=st.integers(min_value=1, max_value=16),
)
def test_edge_after_spacing(freq, at, cycles):
    """Consecutive edges are exactly one period apart."""
    sim = Simulator()
    clk = ClockDomain(sim, freq)
    assert clk.edge_after(at, cycles + 1) - clk.edge_after(at, cycles) == pytest.approx(
        clk.period_ns
    )


@given(
    freq=st.floats(min_value=1.0, max_value=4000.0),
    queries=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=20),
)
def test_edge_cache_is_bit_identical_to_fresh_computation(freq, queries):
    """Cached next_edge answers must equal what an uncached domain computes,
    in any query order (the cache may hit, miss, or straddle windows)."""
    sim = Simulator()
    cached = ClockDomain(sim, freq)
    for at in queries:
        fresh = ClockDomain(sim, freq)
        assert cached.next_edge(at) == fresh.next_edge(at)


def test_edge_cache_hits_within_one_cycle():
    sim = Simulator()
    clk = ClockDomain(sim, 1000.0)
    first = clk.next_edge(0.3)
    assert clk.next_edge(0.5) == first
    assert clk.next_edge(0.7) == first
    assert clk.next_edge(1.2) == first + clk.period_ns


def test_edge_cache_invalidated_on_retune_and_phase_change():
    sim = Simulator()
    clk = ClockDomain(sim, 1000.0)
    assert clk.next_edge(0.5) == 1.0
    clk.freq_mhz = 500.0
    assert clk.next_edge(0.5) == 2.0
    clk.phase_ns = 0.25
    assert clk.next_edge(0.5) == 2.25


@given(
    freq=st.floats(min_value=1.0, max_value=4000.0),
    retuned=st.floats(min_value=1.0, max_value=4000.0),
    phase=st.floats(min_value=0.0, max_value=50.0),
    steps=st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=3.0), st.booleans(),
                  st.integers(min_value=1, max_value=16)),
        min_size=1, max_size=12),
    retune_at=st.integers(min_value=0, max_value=12),
)
def test_wait_cycles_is_edge_after_minus_now_bit_for_bit(freq, retuned, phase, steps,
                                                         retune_at):
    """wait_cycles inlines next_edge/edge_after and their edge cache; its
    delay must equal ``max(0, edge_after(now, cycles) - now)`` from a fresh,
    uncached domain exactly, also at ``now`` on an edge and after a retune.
    Each step advances time by up to three periods, optionally onto the
    exact edge value a process waiting for that edge resumes at."""
    sim = Simulator()
    clk = ClockDomain(sim, freq, phase_ns=phase)
    checked = []

    def step(index):
        if index == retune_at:
            clk.freq_mhz = retuned
        now = sim.now
        cycles = steps[index][2]
        reference = ClockDomain(sim, clk.freq_mhz, phase_ns=phase)
        checked.append((clk.wait_cycles(cycles).ns,
                        max(0.0, reference.edge_after(now, cycles) - now)))
        if index + 1 < len(steps):
            periods, on_edge, _ = steps[index + 1]
            target = now + periods * clk.period_ns
            if on_edge:
                target = reference.next_edge(target)
            sim.schedule_at(target, step, index + 1)

    sim.schedule_at(0.0, step, 0)
    sim.run()
    assert len(checked) == len(steps)
    for got, expected in checked:
        assert got == expected
    with pytest.raises(SimulationError):
        clk.wait_cycles(0)


def _floor_division_edge(at, freq_mhz, phase):
    """next_edge's arithmetic with no memo: the reference answer."""
    period = 1000.0 / float(freq_mhz)
    return phase + (math.floor((at - phase) / period + 1e-9) + 1) * period


_EDGE_QUERIES = st.lists(
    st.one_of(
        st.tuples(st.just("at"), st.floats(min_value=0.0, max_value=1e6)),
        # Ask again at one of the last few instants asked.
        st.tuples(st.just("repeat"), st.integers(min_value=0, max_value=3)),
        st.tuples(st.just("retune"), st.floats(min_value=1.0, max_value=4000.0)),
        st.tuples(st.just("phase"), st.floats(min_value=0.0, max_value=50.0)),
    ),
    min_size=1, max_size=40,
)


@given(freq=st.floats(min_value=1.0, max_value=4000.0), steps=_EDGE_QUERIES)
def test_edge_memo_is_bit_identical_to_floor_division(freq, steps):
    """Memoized next_edge answers equal the uncached floor division bit for
    bit over sequences with exact repeats, retunes and phase changes (a
    memo that outlived a retune or a phase change would answer a repeat
    with the old clock's edge)."""
    sim = Simulator()
    clk = ClockDomain(sim, freq)
    phase = 0.0
    asked = [0.0]
    for kind, argument in steps:
        if kind == "retune":
            clk.freq_mhz = argument
            freq = argument
            continue
        if kind == "phase":
            clk.phase_ns = phase = argument
            continue
        at = argument if kind == "at" else asked[-1 - argument % len(asked)]
        asked.append(at)
        assert clk.next_edge(at).hex() == _floor_division_edge(at, freq, phase).hex()


@given(
    freq=st.floats(min_value=1.0, max_value=4000.0),
    phase=st.floats(min_value=0.0, max_value=50.0),
    start=st.floats(min_value=0.0, max_value=1e5),
    cycles=st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=6),
)
def test_call_after_cycles_queues_what_wait_cycles_queues(freq, phase, start, cycles):
    """A callback queued by call_after_cycles lands on the heap entry (time
    and sequence number) a process yielding wait_cycles would, and a chain
    of them reaches the same instants as a chain of waits."""

    def run(use_callbacks):
        sim = Simulator()
        clk = ClockDomain(sim, freq, phase_ns=phase)
        seen = []
        if use_callbacks:
            remaining = list(cycles)

            def step(_):
                seen.append((sim.now, sim._sequence, list(sim._heap)))
                if remaining:
                    clk.call_after_cycles(remaining.pop(0), step)

            sim.schedule_at(start, step, None)
        else:
            def body():
                seen.append((sim.now, sim._sequence, list(sim._heap)))
                for count in cycles:
                    yield clk.wait_cycles(count)
                    seen.append((sim.now, sim._sequence, list(sim._heap)))

            sim.schedule_at(start, lambda _: sim.process(body()), None)
        sim.run()
        # Callbacks differ by construction; compare (time_ps, time_ns, seq).
        return [(now, sequence, [entry[:3] for entry in heap])
                for now, sequence, heap in seen], sim.events_executed - len(seen)

    via_callbacks, extra = run(True)
    via_process, extra_process = run(False)
    assert via_callbacks == via_process
    assert extra + 1 == extra_process   # the process start itself
    with pytest.raises(SimulationError):
        ClockDomain(Simulator(), freq).call_after_cycles(0, lambda _: None)
