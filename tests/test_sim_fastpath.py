"""Kernel-semantics tests for the fast-path simulator.

These pin down the ordering invariants the immediate-run deque and the
integer-picosecond timeline must preserve (see docs/architecture.md):
same-timestamp FIFO across heap and deque, event waiter ordering,
``stop()`` firing between zero-delay callbacks, explicit failure
propagation, and a golden-file determinism check on fig9.
"""

import json
import os

import pytest

from repro.sim import Delay, Event, SimulationError, Simulator

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


# --------------------------------------------------------------------------- #
# Same-instant ordering
# --------------------------------------------------------------------------- #
def test_mixed_heap_and_immediate_keep_global_fifo_order():
    """Heap entries at the current instant interleave with zero-delay
    callbacks exactly in the order the schedule calls were made."""
    sim = Simulator()
    order = []

    def at_five():
        # Runs first at t=5: its zero-delay work must run *after* h1..h3,
        # which were scheduled (and therefore sequenced) earlier.
        order.append("cb")
        sim.schedule(0.0, order.append, "z1")
        sim.schedule(0.0, order.append, "z2")

    sim.schedule(5.0, at_five)
    sim.schedule(5.0, order.append, "h1")
    sim.schedule(5.0, order.append, "h2")
    sim.schedule(5.0, order.append, "h3")
    sim.run()
    assert order == ["cb", "h1", "h2", "h3", "z1", "z2"]


def test_zero_delay_schedule_at_matches_schedule_zero():
    sim = Simulator()
    order = []

    def kick():
        sim.schedule(0.0, order.append, "a")
        sim.schedule_at(sim.now, order.append, "b")
        sim.schedule(0.0, order.append, "c")

    sim.schedule(1.0, kick)
    sim.run()
    assert order == ["a", "b", "c"]


def test_event_waiters_fire_in_registration_order():
    sim = Simulator()
    event = sim.event("go")
    order = []

    def waiter(tag):
        value = yield event
        order.append((tag, value))

    # Mix plain callbacks and process waiters; registration order must hold.
    sim.process(waiter("p1"))
    sim.run()  # p1 reaches its yield and registers
    event.add_callback(lambda value: order.append(("cb", value)))
    sim.process(waiter("p2"))
    sim.run()  # p2 registers after the plain callback
    event.succeed(7)
    sim.run()
    assert order == [("p1", 7), ("cb", 7), ("p2", 7)]


def test_triggered_event_wakes_later_waiters_immediately():
    sim = Simulator()
    event = sim.event()
    event.succeed("late")

    def waiter():
        value = yield event
        return value

    process = sim.process(waiter())
    sim.run()
    assert process.done.value == "late"


def test_stop_fires_between_immediate_callbacks():
    """stop() is honoured right after the callback that calls it, including
    zero-delay ones drained from the immediate deque within a single
    instant; the rest of that instant stays queued for the next run()."""
    sim = Simulator()
    seen = []

    def record(tag):
        seen.append(tag)
        if len(seen) == 2:
            sim.stop()

    for tag in ("a", "b", "c", "d"):
        sim.schedule(0.0, record, tag)
    sim.run()
    assert seen == ["a", "b"]
    assert sim.pending_events == 2
    sim.run()
    assert seen == ["a", "b", "c", "d"]


def test_until_does_not_run_future_events_but_drains_current_instant():
    sim = Simulator()
    seen = []

    def spawner():
        seen.append("start")
        sim.schedule(0.0, seen.append, "same-instant")
        yield Delay(10.0)
        seen.append("future")

    sim.process(spawner())
    sim.run(until=5.0)
    assert seen == ["start", "same-instant"]
    assert sim.now == 5.0
    sim.run()
    assert seen == ["start", "same-instant", "future"]
    assert sim.now == 10.0


# --------------------------------------------------------------------------- #
# Integer-picosecond timeline
# --------------------------------------------------------------------------- #
def test_now_ps_tracks_now_in_integer_picoseconds():
    sim = Simulator()
    sim.schedule(1.5, lambda: None)
    sim.run()
    assert sim.now == 1.5
    assert sim.now_ps == 1500

    sim.schedule(0.001, lambda: None)  # one picosecond
    sim.run()
    assert sim.now_ps == 1501
    assert sim.now == pytest.approx(1.501)


def test_float_ns_precision_preserved_through_the_api():
    """Sub-picosecond float structure of the model arithmetic survives: the
    kernel must not quantize the times it reports."""
    sim = Simulator()
    period = 1000.0 / 282.0  # an irrational-ish accelerator period
    times = []
    for cycle in range(1, 4):
        sim.schedule_at(cycle * period, lambda: times.append(sim.now))
    sim.run()
    assert times == [period, 2 * period, 3 * period]


def test_sub_picosecond_events_keep_distinct_order():
    sim = Simulator()
    order = []
    base = 5.0
    just_after = 5.0 + 5e-13  # same picosecond, later float time
    sim.schedule_at(just_after, order.append, "late")
    sim.schedule_at(base, order.append, "early")
    sim.run()
    assert order == ["early", "late"]


# --------------------------------------------------------------------------- #
# Failure propagation
# --------------------------------------------------------------------------- #
def test_unsupported_command_fails_done_and_raises():
    sim = Simulator()

    def bad():
        yield "not-a-command"

    process = sim.process(bad())
    with pytest.raises(SimulationError):
        sim.run()
    assert process.finished
    assert process.failed
    assert process.done.failed
    assert isinstance(process.done.value, SimulationError)


def test_waiter_of_failed_process_gets_exception_thrown_not_returned():
    sim = Simulator()
    witnessed = []

    def bad():
        yield "not-a-command"

    def waiter(child):
        try:
            value = yield child
            witnessed.append(("value", value))
        except SimulationError as error:
            witnessed.append(("raised", type(error).__name__))

    child = sim.process(bad())
    sim.process(waiter(child))
    with pytest.raises(SimulationError):
        sim.run()
    sim.run()  # deliver the failure to the waiter
    assert witnessed == [("raised", "SimulationError")]


def test_registered_waiter_consumes_failure_without_aborting_run():
    """When somebody is already waiting on a process's done event, its
    failure is delivered to the waiter only — run() keeps going and the
    exception is not raised a second time."""
    sim = Simulator()
    outcome = []

    def child():
        yield Delay(5.0)
        raise ValueError("boom")

    def parent(child_process):
        try:
            yield child_process.done
            outcome.append("no error")
        except ValueError as error:
            outcome.append(f"caught {error}")
        yield Delay(1.0)
        return "recovered"

    child_process = sim.process(child())
    parent_process = sim.process(parent(child_process))
    sim.run()  # must not raise: the parent consumes the failure
    assert outcome == ["caught boom"]
    assert parent_process.done.value == "recovered"
    assert child_process.failed and child_process.done.failed


def test_generator_exception_fails_done_event():
    sim = Simulator()

    def boom():
        yield Delay(1.0)
        raise ValueError("boom")

    process = sim.process(boom())
    with pytest.raises(ValueError):
        sim.run()
    assert process.failed
    assert isinstance(process.done.value, ValueError)


def test_event_fail_throws_into_waiting_process():
    sim = Simulator()
    event = sim.event("doomed")
    outcome = []

    def waiter():
        try:
            yield event
        except RuntimeError as error:
            outcome.append(str(error))
            return "handled"

    process = sim.process(waiter())
    sim.run()
    event.fail(RuntimeError("hardware error"))
    sim.run()
    assert outcome == ["hardware error"]
    assert process.done.value == "handled"
    assert not process.failed  # the process recovered


def test_event_fail_requires_an_exception_and_is_one_shot():
    sim = Simulator()
    event = sim.event()
    with pytest.raises(TypeError):
        event.fail("not an exception")
    event.fail(RuntimeError("x"))
    assert event.triggered and event.failed and not event.ok
    with pytest.raises(RuntimeError):
        event.succeed(1)


def test_run_process_reraises_failure():
    sim = Simulator()

    def bad():
        yield "garbage"

    with pytest.raises(SimulationError):
        sim.run_process(bad())


# --------------------------------------------------------------------------- #
# Determinism golden: fig9 must be bit-identical to the recorded seed run
# --------------------------------------------------------------------------- #
def test_fig9_results_match_golden_file():
    """Guards the integer-picosecond switch (and any future kernel change):
    the full fig9 grid must reproduce the seed kernel's output exactly.

    The paper's Fig. 9 laws are checked first, so they keep holding when a
    deliberate model change re-records the golden file."""
    from repro.api.runner import Runner

    with open(os.path.join(DATA_DIR, "fig9_golden.json")) as handle:
        golden = json.load(handle)
    rows = Runner().run("fig9").to_dicts()
    ns = {(row["mechanism"], row["fpga_mhz"]): row["measured_roundtrip_ns"]
          for row in rows}
    frequencies = sorted({row["fpga_mhz"] for row in rows})
    lowest, highest = frequencies[0], frequencies[-1]
    # Shadow registers beat normal soft registers at every eFPGA clock.
    for freq in frequencies:
        assert ns[("shadow_reg", freq)] < ns[("normal_reg", freq)], freq
    # The Proxy Cache keeps CPU-pull latency flat across eFPGA clocks, while
    # the slow cache's latency grows as the eFPGA slows down.
    proxy_spread = ns[("cpu_pull_proxy", lowest)] - ns[("cpu_pull_proxy", highest)]
    slow_spread = ns[("cpu_pull_slow", lowest)] - ns[("cpu_pull_slow", highest)]
    assert abs(proxy_spread) < 0.5 * slow_spread
    # At the slowest clock, each Duet pull beats its FPSoC counterpart.
    assert ns[("cpu_pull_proxy", lowest)] < ns[("cpu_pull_slow", lowest)]
    assert ns[("efpga_pull_proxy", lowest)] < ns[("efpga_pull_slow", lowest)]
    normalized = json.loads(json.dumps(rows, sort_keys=True))
    assert normalized == golden


def test_multicore_coherence_is_hash_seed_independent():
    """Invalidation fan-out order must not depend on PYTHONHASHSEED: the
    directory sorts its sharer set before sending Inv messages."""
    from repro.workloads import bfs
    from repro.workloads.common import WorkloadParams

    first = bfs.run_cpu(WorkloadParams(num_processors=4))
    second = bfs.run_cpu(WorkloadParams(num_processors=4))
    assert first.runtime_ns == second.runtime_ns
    assert first.correct and second.correct
