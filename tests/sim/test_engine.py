"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import Engine, SimulationError


def test_time_starts_at_zero():
    assert Engine().now == 0


def test_actions_run_in_time_order():
    engine = Engine()
    order = []
    engine.schedule(30, lambda: order.append("c"))
    engine.schedule(10, lambda: order.append("a"))
    engine.schedule(20, lambda: order.append("b"))
    engine.run()
    assert order == ["a", "b", "c"]


def test_ties_broken_by_insertion_order():
    engine = Engine()
    order = []
    for name in "abcde":
        engine.schedule(5, lambda n=name: order.append(n))
    engine.run()
    assert order == list("abcde")


def test_now_advances_to_event_time():
    engine = Engine()
    seen = []
    engine.schedule(42, lambda: seen.append(engine.now))
    engine.run()
    assert seen == [42]
    assert engine.now == 42


def test_zero_delay_runs_at_current_time():
    engine = Engine()
    seen = []
    engine.schedule(7, lambda: engine.schedule(0, lambda: seen.append(engine.now)))
    engine.run()
    assert seen == [7]


def test_negative_delay_rejected():
    with pytest.raises(SimulationError):
        Engine().schedule(-1, lambda: None)


def test_run_returns_event_count():
    engine = Engine()
    for _ in range(4):
        engine.schedule(1, lambda: None)
    assert engine.run() == 4


def test_pending_counts_live_actions():
    engine = Engine()
    engine.schedule(0, lambda: None)
    engine.schedule(1, lambda: None)
    engine.schedule(2, lambda: None)
    assert engine.pending() == 3
    engine.run()
    assert engine.pending() == 0


def test_dispatch_hook_sees_every_dispatch():
    engine = Engine()
    seen = []
    engine.dispatch_hook = lambda now: seen.append(now)
    engine.schedule(5, lambda: None)
    engine.schedule(5, lambda: None)
    engine.schedule(9, lambda: None)
    executed = engine.run()
    assert executed == 3
    assert seen == [5, 5, 9]
