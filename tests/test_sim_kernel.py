"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim import Delay, SimulationError, Simulator


def test_schedule_runs_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(5.0, order.append, "b")
    sim.schedule(1.0, order.append, "a")
    sim.schedule(10.0, order.append, "c")
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 10.0


def test_same_time_events_run_in_scheduling_order():
    sim = Simulator()
    order = []
    for label in "abcde":
        sim.schedule(3.0, order.append, label)
    sim.run()
    assert order == list("abcde")


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_schedule_in_past_rejected():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(1.0, lambda: None)


def test_run_until_stops_before_future_events():
    sim = Simulator()
    fired = []
    sim.schedule(100.0, fired.append, True)
    sim.run(until=50.0)
    assert fired == []
    assert sim.now == 50.0
    sim.run()
    assert fired == [True]


def test_process_delay_and_return_value():
    sim = Simulator()

    def body():
        yield Delay(10.0)
        yield 5.0
        return "done"

    result = sim.run_process(body())
    assert result == "done"
    assert sim.now == 15.0


def test_process_waits_on_event():
    sim = Simulator()
    event = sim.event("go")

    def waiter():
        value = yield event
        return value

    process = sim.process(waiter())
    sim.schedule(7.0, event.succeed, 42)
    sim.run()
    assert process.finished
    assert process.done.value == 42
    assert sim.now == 7.0


def test_process_waits_on_other_process():
    sim = Simulator()

    def child():
        yield Delay(3.0)
        return 99

    def parent():
        value = yield sim.process(child())
        return value * 2

    assert sim.run_process(parent()) == 198


def test_yield_none_does_not_advance_time():
    sim = Simulator()

    def body():
        yield None
        return sim.now

    assert sim.run_process(body()) == 0.0


def test_unsupported_command_raises():
    sim = Simulator()

    def body():
        yield "not-a-command"

    sim.process(body())
    with pytest.raises(SimulationError):
        sim.run()


def test_max_events_guard():
    sim = Simulator()

    def forever():
        while True:
            yield Delay(1.0)

    sim.process(forever())
    with pytest.raises(SimulationError):
        sim.run(max_events=100)


def test_max_events_guard_catches_zero_delay_livelock():
    """A process that only yields None never advances time; the guard must
    still count its callbacks off the immediate deque.  (The spin is bounded
    so a broken guard fails this test instead of hanging the suite.)"""
    sim = Simulator()

    def spin():
        for _ in range(10_000):
            yield None

    sim.process(spin())
    with pytest.raises(SimulationError):
        sim.run(max_events=100)
    assert sim.events_executed == 100
    assert sim.now == 0.0


@pytest.mark.parametrize("delays", [(0.0,) * 5, (1.0, 2.0, 3.0, 4.0, 5.0)],
                         ids=["immediate", "timed"])
def test_stop_when_wins_over_max_events_on_the_same_callback(delays):
    sim = Simulator()
    seen = []
    for tag, delay in enumerate(delays):
        sim.schedule(delay, seen.append, tag)
    stopped_at = sim.run(max_events=3, stop_when=lambda: len(seen) == 3)
    assert seen == [0, 1, 2]
    assert stopped_at == delays[2]
    assert sim.pending_events == 2


def test_event_cannot_trigger_twice():
    sim = Simulator()
    event = sim.event()
    event.succeed(1)
    with pytest.raises(RuntimeError):
        event.succeed(2)


def test_run_process_detects_unfinished_process():
    sim = Simulator()

    def body():
        yield sim.event("never")

    with pytest.raises(SimulationError):
        sim.run_process(body())


def test_all_of_event_group():
    from repro.sim.event import all_of

    sim = Simulator()
    events = [sim.event(str(i)) for i in range(3)]

    def waiter():
        values = yield all_of(sim, events)
        return values

    process = sim.process(waiter())
    sim.schedule(1.0, events[1].succeed, "b")
    sim.schedule(2.0, events[0].succeed, "a")
    sim.schedule(3.0, events[2].succeed, "c")
    sim.run()
    assert process.done.value == ["a", "b", "c"]
