"""Regression tests for the kernel fast paths.

The engine's due lane and inline process stepping are pure
optimizations: every test here pins an ordering or accounting property
that must match what a plain (time, sequence) heap would produce.
"""

import pytest

from repro.sim.engine import Engine, SimulationError
from repro.sim.events import SimEvent
from repro.sim.process import Delay, Process, Wait


# -- due-lane ordering --------------------------------------------------------


def test_zero_delay_fifo_matches_seq_order():
    """Mixed delay-0 and delayed entries run in exact (time, seq) order."""
    engine = Engine()
    order = []

    def at_time_5():
        # Scheduled during the time-5 action: delay 0 lands in the due
        # lane, behind every heap entry already at time 5.
        engine.schedule(0, lambda: order.append("due1"))
        engine.schedule(0, lambda: order.append("due2"))

    engine.schedule(5, at_time_5)
    engine.schedule(5, lambda: order.append("heap1"))
    engine.schedule(5, lambda: order.append("heap2"))
    engine.run()
    # Heap entries at time 5 were scheduled first, so they precede the
    # due-lane entries even though the lane was filled mid-step.
    assert order == ["heap1", "heap2", "due1", "due2"]


def test_due_lane_drains_before_time_advances():
    engine = Engine()
    order = []
    engine.schedule(3, lambda: engine.schedule(0, lambda: order.append(("z", engine.now))))
    engine.schedule(4, lambda: order.append(("later", engine.now)))
    engine.run()
    assert order == [("z", 3), ("later", 4)]


def test_chained_zero_delays_stay_at_now():
    engine = Engine()
    depths = []

    def chain(depth):
        depths.append((depth, engine.now))
        if depth:
            engine.schedule(0, lambda: chain(depth - 1))

    engine.schedule(2, lambda: chain(3))
    engine.run()
    assert depths == [(3, 2), (2, 2), (1, 2), (0, 2)]


# -- inline stepping ----------------------------------------------------------


def test_single_process_zero_delay_chain_counts_every_step():
    engine = Engine()

    def body():
        for _ in range(10):
            yield Delay(0)

    Process(engine, body(), name="solo")
    # 1 initial step + 10 zero-delay resumes, whether inlined or not.
    assert engine.run() == 11


def test_concurrent_zero_delay_processes_interleave():
    engine = Engine()
    order = []

    def body(tag):
        for i in range(3):
            order.append((tag, i))
            yield Delay(0)

    Process(engine, body("a"), name="a")
    Process(engine, body("b"), name="b")
    engine.run()
    # Strict round-robin: inlining must not let one process run ahead.
    assert order == [
        ("a", 0), ("b", 0), ("a", 1), ("b", 1), ("a", 2), ("b", 2),
    ]


def test_fired_wait_value_delivery():
    engine = Engine()
    event = SimEvent(name="pre-fired")
    event.fire("payload")
    got = []

    def body():
        value = yield Wait(event)
        got.append(value)

    Process(engine, body(), name="waiter")
    engine.run()
    assert got == ["payload"]


def test_multi_waiter_wake_order_is_registration_order():
    engine = Engine()
    event = SimEvent(name="gate")
    order = []

    def waiter(tag):
        yield Wait(event)
        order.append(tag)

    for tag in ("w0", "w1", "w2"):
        Process(engine, waiter(tag), name=tag)
    engine.schedule(5, lambda: event.fire(None))
    engine.run()
    assert order == ["w0", "w1", "w2"]


def test_wake_is_own_event_not_inlined_into_fire():
    """The firing action finishes before any woken process resumes."""
    engine = Engine()
    event = SimEvent(name="gate")
    order = []

    def waiter():
        yield Wait(event)
        order.append("woken")

    def firer():
        event.fire(None)
        order.append("after-fire")

    Process(engine, waiter(), name="w")
    engine.schedule(5, firer)
    engine.run()
    assert order == ["after-fire", "woken"]


def test_consume_inline_step_outside_run_declines():
    engine = Engine()
    assert engine.consume_inline_step() is False


def test_reentrant_run_rejected():
    engine = Engine()

    def reenter():
        with pytest.raises(SimulationError):
            engine.run()

    engine.schedule(1, reenter)
    engine.run()
