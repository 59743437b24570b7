"""No registered runner keeps a machine.

A runner's raw result holds boards, elapsed cycles and event counts,
never a machine or the program outputs (views of its memory), and a
runner reclaims every machine before it builds the next. So a worker
holds one machine at a time, and a baseline the memo keeps for later
checks costs only its boards.
"""

import gc
import weakref

import pytest

from repro.core.experiments import EXPERIMENTS, run_validation_micro
from repro.core.study import PairResult
from repro.mp.machine import MpMachine
from repro.sm.machine import SmMachine
from tests.test_determinism_golden import GOLDEN

#: One small config per registered runner: the goldens' where they have
#: one (em3d_protocols runs em3d's MP side and its base SM side).
SMALL = {
    "mse": GOLDEN["mse"][0],
    "gauss": GOLDEN["gauss"][0],
    "em3d": GOLDEN["em3d"][0],
    "lcp": GOLDEN["lcp"][0],
    "em3d_protocols": GOLDEN["em3d"][0],
    "gauss_collectives": {"procs": 4, "app": {"n": 32}},
    "gauss_contention": {"app": {"n": 32}, "options": {"proc_counts": (2, 4)}},
}

#: exp_id -> (its golden's exp_id, the runs holding the golden MP and SM
#: event counts).
GOLDEN_RUNS = {
    "mse": ("mse", "mp", "sm"),
    "gauss": ("gauss", "mp", "sm"),
    "em3d": ("em3d", "mp", "sm"),
    "lcp": ("lcp", "mp", "sm"),
    "em3d_protocols": ("em3d", "mp", "base"),
}

#: Facts a runner reads from a machine, or from a run's outputs, before
#: the machine goes.
FACTS = {
    "gauss": lambda pair: pair.extra["directory_queue_delay"] > 0,
    "lcp": lambda pair: pair.extra["mp_steps"] == pair.extra["sm_steps"] > 0,
}


def test_every_runner_but_validation_is_covered():
    runners = {spec.runner for spec in EXPERIMENTS.values()} - {run_validation_micro}
    assert runners == {EXPERIMENTS[exp_id].runner for exp_id in SMALL}


@pytest.fixture
def builds(monkeypatch):
    """Weak references to the machines built while the test runs, and,
    for each build, how many earlier ones were still alive."""
    built, alive_at_build = [], []

    def tracking(init):
        def tracked(self, *args, **kwargs):
            alive_at_build.append(sum(ref() is not None for ref in built))
            init(self, *args, **kwargs)
            built.append(weakref.ref(self))
        return tracked

    for cls in (MpMachine, SmMachine):
        monkeypatch.setattr(cls, "__init__", tracking(cls.__init__))
    return built, alive_at_build


def _runs(result):
    """The machine runs inside a runner's raw result, by name."""
    if isinstance(result, PairResult):
        return {"mp": result.mp_result, "sm": result.sm_result}
    return {name: run for name, run in result.items() if hasattr(run, "board")}


@pytest.mark.parametrize("exp_id", sorted(SMALL))
def test_runner_holds_one_machine_at_a_time_and_keeps_none(exp_id, builds):
    built, alive_at_build = builds
    spec = EXPERIMENTS[exp_id]
    result = spec.runner(spec.config.with_overrides(SMALL[exp_id]))

    # Each machine was built after every earlier one was reclaimed: an
    # MP machine is gone before its pair's SM machine is built.
    assert len(built) >= 2
    assert alive_at_build == [0] * len(built)
    # The raw result keeps none alive.
    gc.collect()
    assert [ref() for ref in built] == [None] * len(built)

    runs = _runs(result)
    for name, run in runs.items():
        assert run.machine is None, name
        assert run.outputs == [], name
    if exp_id in GOLDEN_RUNS:
        golden_id, mp, sm = GOLDEN_RUNS[exp_id]
        golden = GOLDEN[golden_id][1]
        assert runs[mp].events_executed == golden["mp_events"]
        assert runs[sm].events_executed == golden["sm_events"]
    if exp_id in FACTS:
        assert FACTS[exp_id](result)
