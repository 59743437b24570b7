"""Engine behaviour: caching, incrementality, interruption, resume.

All engine tests use an in-process fake experiment (``jobs=1`` — the
spawned workers of a real parallel run re-import the registry and
would not see the monkeypatch) with a runner cheap enough to count
invocations exactly. The real shipped specs run in
``test_specs_shipped.py`` (slow) and the CI sweep-smoke job.
"""

import pytest

from repro.core import experiments
from repro.runner import api
from repro.runner.api import clear_memory_cache
from repro.runner.cache import ResultCache
from repro.runner.config import ExperimentConfig
from repro.sweep import SweepSpec, load_result, run_sweep
from repro.sweep.engine import latest_manifest, result_path
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
    assert len(api.memo_keys()) == 1


def test_force_resimulates_everything(fake, tmp_path):
    calls, _fail = fake
    cache = ResultCache(tmp_path)
    run_sweep(_spec(), jobs=1, cache=cache)
    clear_memory_cache()
    forced = run_sweep(_spec(), jobs=1, cache=cache, force=True)
    assert calls == [1, 2, 3, 4, 5, 1, 2, 3, 4, 5]
    assert forced.meta["simulated"] == 5


def test_interrupted_sweep_resumes_bit_identical(fake, tmp_path):
    """The acceptance test: interrupt mid-grid, resume, compare."""
    calls, fail_on = fake
    cache = ResultCache(tmp_path)

    # Point 5 dies; the first (batched) points were already stored.
    fail_on.add(5)
    with pytest.raises(RuntimeError, match="interrupted at procs=5"):
        run_sweep(_spec(), jobs=1, cache=cache)
    assert 5 not in calls

    manifest = latest_manifest(cache, "fake")
    assert manifest is not None
    statuses = {p["coords"]["procs"]: p["status"] for p in manifest["points"]}
    assert statuses[5] == "pending"
    done = [procs for procs, status in statuses.items() if status == "done"]
    assert done  # the completed batch survived the interruption

    # "Fix the outage" and resume: only the missing points simulate.
    fail_on.clear()
    clear_memory_cache()
    del calls[:]
    resumed = run_sweep(_spec(), jobs=1, cache=cache, resume=True)
    assert calls == sorted(set(PROCS) - set(done))
    assert resumed.meta["simulated"] == len(PROCS) - len(done)

    # Bit-identical to a never-interrupted run of the same grid.
    clear_memory_cache()
    uninterrupted = run_sweep(_spec(), jobs=1, cache=ResultCache(tmp_path / "b"))
    assert resumed == uninterrupted  # meta (timing/accounting) excluded
    assert resumed.to_csv() == uninterrupted.to_csv()


def test_resume_reuses_manifest_axes(fake, tmp_path):
    calls, _fail = fake
    cache = ResultCache(tmp_path)
    run_sweep(_spec(), axes={"procs": (2, 4)}, jobs=1, cache=cache)
    assert calls == [2, 4]
    # Resume ignores the spec's default axes in favour of the manifest's.
    resumed = run_sweep(_spec(), jobs=1, cache=cache, resume=True)
    assert calls == [2, 4]
    assert resumed.axes == [["procs", [2, 4]]]


def test_resume_without_manifest_fails(fake, tmp_path):
    with pytest.raises(FileNotFoundError, match="nothing to resume"):
        run_sweep(_spec(), jobs=1, cache=ResultCache(tmp_path), resume=True)


def test_result_json_written_beside_manifest(fake, tmp_path):
    cache = ResultCache(tmp_path)
    spec = _spec()
    result = run_sweep(spec, jobs=1, cache=cache)
    stored = load_result(result_path(cache, spec))
    assert stored == result
    assert stored.meta["simulated"] == 5  # meta round-trips, just not compared


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
