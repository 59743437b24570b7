"""Engine behaviour: caching, incrementality, interruption, concurrency.

All engine tests use an in-process fake experiment (``jobs=1`` — the
spawned workers of a real parallel run re-import the registry and
would not see the monkeypatch) with a runner cheap enough to count
invocations exactly. The real shipped specs run in
``test_specs_shipped.py`` (slow) and the CI sweep-smoke job.
"""

import sys
import threading

import pytest

from repro.core import experiments
from repro.runner import api
from repro.runner.api import clear_memory_cache
from repro.runner.cache import ResultCache
from repro.runner.config import ExperimentConfig
from repro.sweep import SweepSpec, run_sweep
from repro.sweep.spec import CrossoverSpec

PROCS = (1, 2, 3, 4, 5)


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_memory_cache()
    yield
    clear_memory_cache()


@pytest.fixture
def fake(monkeypatch):
    """Register a fake experiment; returns (calls, fail_on) handles."""
    calls = []
    fail_on = set()

    def runner(config):
        if config.procs in fail_on:
            raise RuntimeError(f"interrupted at procs={config.procs}")
        calls.append(config.procs)
        return {"value": 100.0 / config.procs}

    spec = experiments.ExperimentSpec(
        id="fake_sweep", title="f", paper_tables="none", description="d",
        runner=runner, config=ExperimentConfig(exp_id="fake_sweep"),
        shape=lambda r: [("ran", True, "ok")], paper={},
    )
    monkeypatch.setitem(experiments.EXPERIMENTS, "fake_sweep", spec)
    return calls, fail_on


def _spec(axes=(("procs", PROCS),), **kwargs):
    defaults = dict(
        name="fake",
        exp_id="fake_sweep",
        axes=axes,
        metrics=("value",),
        extra_metrics={"value": lambda s: s["data"]["value"]},
    )
    defaults.update(kwargs)
    return SweepSpec(**defaults)


def test_cold_then_warm(fake, tmp_path):
    calls, _fail = fake
    cache = ResultCache(tmp_path)
    cold = run_sweep(_spec(), jobs=1, cache=cache)
    assert calls == [1, 2, 3, 4, 5]
    assert cold.meta["simulated"] == 5 and cold.meta["cached"] == 0
    xs, ys = cold.series("value")
    assert xs == list(PROCS)
    assert ys == [100.0, 50.0, pytest.approx(100 / 3), 25.0, 20.0]

    warm = run_sweep(_spec(), jobs=1, cache=cache)
    assert calls == [1, 2, 3, 4, 5]  # no new simulations
    assert warm.meta["simulated"] == 0 and warm.meta["cached"] == 5
    assert warm == cold  # identical outside meta (compare=False)


def test_enlarged_sweep_only_simulates_new_points(fake, tmp_path):
    calls, _fail = fake
    cache = ResultCache(tmp_path)
    run_sweep(_spec(axes=(("procs", (1, 2, 3)),)), jobs=1, cache=cache)
    assert calls == [1, 2, 3]
    widened = run_sweep(_spec(), jobs=1, cache=cache)
    assert calls == [1, 2, 3, 4, 5]  # the three warm points were served
    assert widened.meta["simulated"] == 2 and widened.meta["cached"] == 3


def test_in_process_sweep_holds_no_point_and_spares_the_callers_memo(fake, tmp_path):
    """Each point's raw result is released as its record is built; a
    result the caller memoized before the sweep is left where it was."""
    mine = api.run_raw("fake_sweep", {"procs": 9})
    run_sweep(_spec(), jobs=1, cache=ResultCache(tmp_path))
    assert api.run_raw("fake_sweep", {"procs": 9}) is mine
    assert len(api._MEMO) == 1


def test_force_resimulates_everything(fake, tmp_path):
    calls, _fail = fake
    cache = ResultCache(tmp_path)
    run_sweep(_spec(), jobs=1, cache=cache)
    clear_memory_cache()
    forced = run_sweep(_spec(), jobs=1, cache=cache, force=True)
    assert calls == [1, 2, 3, 4, 5, 1, 2, 3, 4, 5]
    assert forced.meta["simulated"] == 5


def test_interrupted_sweep_resumes_bit_identical(fake, tmp_path):
    """The acceptance test: interrupt mid-grid, rerun the same call,
    compare. The point records are the only state a rerun needs."""
    calls, fail_on = fake
    cache = ResultCache(tmp_path / "a")

    # Point 5 dies; the first (batched) points were already stored.
    fail_on.add(5)
    with pytest.raises(RuntimeError, match="interrupted at procs=5"):
        run_sweep(_spec(), jobs=1, cache=cache)
    done = sorted(calls)
    assert done and 5 not in done  # the completed batch survived
    assert sorted(r.config["procs"] for _p, r in cache.entries()) == done

    # "Fix the outage" and rerun: only the missing points simulate.
    fail_on.clear()
    clear_memory_cache()
    del calls[:]
    rerun = run_sweep(_spec(), jobs=1, cache=cache)
    assert calls == sorted(set(PROCS) - set(done))
    assert rerun.meta["simulated"] == len(PROCS) - len(done)

    # Bit-identical to a never-interrupted run of the same grid.
    clear_memory_cache()
    uninterrupted = run_sweep(_spec(), jobs=1, cache=ResultCache(tmp_path / "b"))
    assert rerun == uninterrupted  # meta (timing/accounting) excluded
    assert rerun.to_csv() == uninterrupted.to_csv()

    # The cache directory holds the five point records and nothing else.
    records = sorted(path.name for path, _record in cache.entries())
    assert len(records) == len(PROCS)
    assert sorted(path.name for path in cache.directory.iterdir()) == records


def test_concurrent_sweeps_of_one_grid_share_a_cache(fake, tmp_path):
    """Two sweeps of one grid into one cache directory both finish:
    a sweep writes nothing but its point records, each stored
    atomically."""
    spec = _spec(axes=(("seed", tuple(range(60))),))
    cache = ResultCache(tmp_path)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for _trial in range(5):
            errors = []

            def sweep():
                try:
                    run_sweep(spec, jobs=1, cache=cache, force=True)
                except Exception as exc:  # noqa: BLE001 - reported below
                    errors.append(exc)

            threads = [threading.Thread(target=sweep) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert errors == []
    finally:
        sys.setswitchinterval(interval)
    assert sorted(path.name for path in cache.directory.iterdir()) == sorted(
        path.name for path, _record in cache.entries()
    )
    assert len(list(cache.entries())) == 60


def test_crossover_and_checks_flow_through(fake, tmp_path):
    spec = _spec(
        crossovers=(CrossoverSpec("halves", metric="value", level=40.0),),
        checks=lambda result: [
            ("drops", result.series("value")[1][0] > result.series("value")[1][-1],
             "100 -> 20"),
        ],
    )
    result = run_sweep(spec, jobs=1, cache=ResultCache(tmp_path))
    [probe] = result.crossovers
    assert probe["crossed"] is True
    assert 2 < probe["at"] < 3  # 50 -> 33.3 brackets 40
    assert result.checks == [["drops", True, "100 -> 20"]]
    assert result.all_ok


def test_unknown_metric_fails_with_suggestion(fake, tmp_path):
    spec = _spec(metrics=("sm_totl",), extra_metrics=None)
    with pytest.raises(ValueError, match="did you mean 'sm_total'"):
        run_sweep(spec, jobs=1, cache=ResultCache(tmp_path))


def test_progress_reports_every_point(fake, tmp_path):
    cache = ResultCache(tmp_path)
    seen = []
    run_sweep(_spec(), jobs=1, cache=cache,
              progress=lambda done, total, point, record, simulated:
              seen.append((done, total, point.coords["procs"], simulated)))
    assert [s[0] for s in seen] == [1, 2, 3, 4, 5]
    assert all(total == 5 for _d, total, _p, _s in seen)
    assert all(simulated for *_rest, simulated in seen)

    del seen[:]
    run_sweep(_spec(), jobs=1, cache=cache, progress=lambda *a: seen.append(a))
    assert len(seen) == 5
    assert not any(simulated for *_rest, simulated in seen)
