"""Unit tests for generator-based processes."""

import pytest

from repro.sim.engine import Engine
from repro.sim.events import SimEvent
from repro.sim.process import Delay, Process, ProcessCrash, Wait


def test_delay_advances_local_time():
    engine = Engine()
    times = []

    def body():
        yield Delay(5)
        times.append(engine.now)
        yield Delay(7)
        times.append(engine.now)

    Process(engine, body())
    engine.run()
    assert times == [5, 12]


def test_return_value_delivered_via_done_event():
    engine = Engine()

    def body():
        yield Delay(1)
        return 42

    proc = Process(engine, body())
    engine.run()
    assert proc.finished
    assert proc.result() == 42


def test_wait_receives_event_value():
    engine = Engine()
    event = SimEvent()
    got = []

    def waiter():
        value = yield Wait(event)
        got.append((engine.now, value))

    Process(engine, waiter())
    engine.schedule(9, lambda: event.fire("payload"))
    engine.run()
    assert got == [(9, "payload")]


def test_wait_on_already_fired_event():
    engine = Engine()
    event = SimEvent()
    event.fire("early")
    got = []

    def waiter():
        yield Delay(3)
        value = yield Wait(event)
        got.append(value)

    Process(engine, waiter())
    engine.run()
    assert got == ["early"]


def test_multiple_waiters_all_released():
    engine = Engine()
    event = SimEvent()
    got = []

    def waiter(tag):
        value = yield Wait(event)
        got.append((tag, value))

    for i in range(3):
        Process(engine, waiter(i))
    engine.schedule(4, lambda: event.fire("go"))
    engine.run()
    assert sorted(got) == [(0, "go"), (1, "go"), (2, "go")]


def test_yield_from_composes_subroutines():
    engine = Engine()

    def helper(n):
        yield Delay(n)
        return n * 2

    def body():
        a = yield from helper(3)
        b = yield from helper(4)
        return a + b

    proc = Process(engine, body())
    engine.run()
    assert proc.result() == 14
    assert engine.now == 7


def test_crash_is_wrapped_and_reported():
    engine = Engine()

    def body():
        yield Delay(1)
        raise ValueError("boom")

    Process(engine, body(), name="crasher")
    with pytest.raises(ProcessCrash) as crash:
        engine.run()
    assert crash.value.process_name == "crasher"
    assert isinstance(crash.value.original, ValueError)


def test_bad_yield_type_crashes():
    engine = Engine()

    def body():
        yield "not a command"

    with pytest.raises(ProcessCrash):
        Process(engine, body())
        engine.run()


def test_result_before_finish_raises():
    engine = Engine()

    def body():
        yield Delay(10)

    proc = Process(engine, body())
    with pytest.raises(RuntimeError):
        proc.result()


def test_negative_delay_rejected():
    with pytest.raises(ValueError):
        Delay(-1)


def test_event_fires_once_only():
    event = SimEvent("once")
    event.fire(1)
    with pytest.raises(RuntimeError):
        event.fire(2)
