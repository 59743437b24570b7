"""Open-loop request generation: a fixed schedule, sent whatever happens.

Requests are due at fixed times. Each is timed from when it was due, so
a stall also charges the wait it imposes on the requests queued behind
it. One that would go out more than ``max_late`` seconds after it was
due is skipped instead; a skip counts as missing every latency limit.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Planned:
    """One scheduled request."""

    due: float  # seconds after the start of the schedule
    kind: str  # "warm" or "cold"
    step: int  # index of the ladder step it belongs to
    key: int  # which input it uses (warm: a pre-warmed key; cold: a fresh seed)


@dataclass
class Outcome:
    """What happened to one scheduled request."""

    planned: Planned
    sent_at: Optional[float] = None  # seconds after start; None when skipped
    done_at: Optional[float] = None
    ok: bool = False
    detail: object = None

    @property
    def skipped(self) -> bool:
        return self.sent_at is None

    @property
    def late(self) -> float:
        """How late the generator sent it (seconds past due)."""
        return (self.sent_at - self.planned.due) if self.sent_at is not None else float("inf")

    @property
    def latency(self) -> float:
        """Seconds from when it was due until the reply arrived."""
        return self.done_at - self.planned.due if self.done_at is not None else float("inf")


def ladder(
    steps: Sequence[Tuple[float, float]],
    cold_rate: float,
    warm_keys: int,
    seed: int,
) -> List[Planned]:
    """The schedule: ``steps`` of ``(rate, seconds)`` warm reads plus
    cold writes at ``cold_rate`` throughout, ordered by due time.

    Warm reads are evenly spaced at the step's rate; the seed picks
    which pre-warmed key each reads and numbers the cold writes.
    """
    rng = random.Random(seed)
    plan: List[Planned] = []
    start = 0.0
    cold = 0
    for index, (rate, seconds) in enumerate(steps):
        count = int(round(rate * seconds))
        plan.extend(
            Planned(start + i / rate, "warm", index, rng.randrange(warm_keys))
            for i in range(count)
        )
        if cold_rate > 0:
            t = 0.5 / cold_rate
            while t < seconds:
                plan.append(Planned(start + t, "cold", index, cold))
                cold += 1
                t += 1.0 / cold_rate
        start += seconds
    plan.sort(key=lambda p: (p.due, p.kind))
    return plan


def drive(
    plan: Sequence[Planned],
    send: Callable[[Planned], Tuple[bool, object]],
    max_late: float = 2.0,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> List[Outcome]:
    """Send every planned request from this thread, in order, on time.

    ``send`` returns ``(ok, detail)``; an exception from it marks the
    request failed. Returns one :class:`Outcome` per planned request.
    """
    outcomes: List[Outcome] = []
    origin = clock()
    for planned in plan:
        outcome = Outcome(planned)
        outcomes.append(outcome)
        now = clock() - origin
        if now < planned.due:
            sleep(planned.due - now)
            now = clock() - origin
        if now - planned.due > max_late:
            continue
        outcome.sent_at = now
        try:
            outcome.ok, outcome.detail = send(planned)
        except Exception as exc:  # noqa: BLE001 - a failed request is a result
            outcome.ok, outcome.detail = False, f"{type(exc).__name__}: {exc}"
        outcome.done_at = clock() - origin
    return outcomes
