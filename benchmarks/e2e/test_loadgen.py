"""Open-loop accounting: timing from the due time, lateness and skips."""

import math

import pytest

from benchmarks.e2e.loadgen import Planned, drive, ladder


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


def _plan(*dues):
    return [Planned(due, "warm", 0, 0) for due in dues]


def _drive(plan, stalls, **kwargs):
    clock = FakeClock()

    def send(planned):
        clock.now += stalls.get(planned.due, 0.01)
        return True, None

    return drive(plan, send, clock=clock, sleep=clock.sleep, **kwargs)


def test_a_stall_is_charged_to_the_requests_queued_behind_it():
    out = _drive(_plan(0.0, 0.1, 0.2, 1.0), {0.0: 0.25})
    assert [o.sent_at for o in out] == pytest.approx([0.0, 0.25, 0.26, 1.0])
    assert [o.late for o in out] == pytest.approx([0.0, 0.15, 0.06, 0.0])
    assert [o.latency for o in out] == pytest.approx([0.25, 0.16, 0.07, 0.01])
    assert not any(o.skipped for o in out)


def test_requests_later_than_the_limit_are_skipped_not_sent():
    out = _drive(_plan(0.0, 0.1, 0.5, 2.5), {0.0: 3.0})
    assert [o.skipped for o in out] == [False, True, True, False]
    assert [o.ok for o in out] == [True, False, False, True]
    assert all(math.isinf(o.latency) and math.isinf(o.late) for o in out if o.skipped)
    assert out[3].late == pytest.approx(0.5)


def test_a_request_exactly_at_the_limit_is_still_sent():
    out = _drive(_plan(0.0, 1.0), {0.0: 3.0})
    assert [o.skipped for o in out] == [False, False]
    assert out[1].late == pytest.approx(2.0)


def test_a_failed_send_is_sent_and_failed_not_skipped():
    clock = FakeClock()

    def send(planned):
        clock.now += 0.01
        raise ConnectionResetError("peer closed")

    (outcome,) = drive(_plan(0.0), send, clock=clock, sleep=clock.sleep)
    assert not outcome.skipped and not outcome.ok
    assert "ConnectionResetError" in outcome.detail
    assert outcome.latency == pytest.approx(0.01)


def test_ladder_spaces_warm_reads_and_interleaves_cold_writes():
    plan = ladder([(10.0, 2.0), (20.0, 4.0)], cold_rate=0.5, warm_keys=10, seed=3)
    warm = [p for p in plan if p.kind == "warm"]
    cold = [p for p in plan if p.kind == "cold"]
    assert [sum(p.step == s for p in warm) for s in (0, 1)] == [20, 80]
    assert [p.due for p in cold] == [1.0, 3.0, 5.0]
    assert [p.key for p in cold] == [0, 1, 2]
    assert [p.due for p in plan] == sorted(p.due for p in plan)
    assert all(0 <= p.key < 10 for p in warm)
    assert plan == ladder([(10.0, 2.0), (20.0, 4.0)], 0.5, 10, seed=3)
    assert plan != ladder([(10.0, 2.0), (20.0, 4.0)], 0.5, 10, seed=4)
