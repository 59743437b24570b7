"""Executor and API tests: grouping, parallelism, determinism, cache.

The simulation-running tests use sweep overrides to shrink workloads
(the harness's own parameterization feature), so they run in seconds.
"""

import os
import warnings

import pytest

from repro.cli import main
from repro.core import experiments
from repro.runner import api
from repro.runner.cache import ResultCache
from repro.runner.config import ExperimentConfig
from repro.runner.executor import default_jobs, group_root, plan_groups, runs_in_process

#: A small Gauss pair: the cheapest real two-machine experiment.
SMALL_GAUSS = {"procs": 4, "app": {"n": 40}}


@pytest.fixture(autouse=True)
def _fresh_memo():
    """The in-process memo is module state; isolate it per test."""
    api.clear_memory_cache()
    yield
    api.clear_memory_cache()


# ---------------------------------------------------------------------------
# Group planning.
# ---------------------------------------------------------------------------


def test_group_root_follows_after_chain():
    assert group_root("em3d_bigcache") == "em3d"
    assert group_root("em3d_localalloc") == "em3d"
    assert group_root("alcp") == "lcp"
    assert group_root("gauss") == "gauss"


def test_plan_groups_colocates_baselines():
    items = [(exp_id, None) for exp_id in experiments.EXPERIMENTS]
    groups = plan_groups(items)
    by_member = {item[0]: tuple(i[0] for i in g) for g in groups for item in g}
    assert by_member["em3d_bigcache"] == ("em3d", "em3d_bigcache", "em3d_localalloc")
    assert by_member["alcp"] == ("lcp", "alcp")
    assert by_member["validation"] == ("validation",)
    # A baseline always precedes its dependents within the group.
    assert by_member["em3d"].index("em3d") == 0
    # Full coverage, no duplication.
    assert sorted(by_member) == sorted(experiments.EXPERIMENTS)
    assert sum(len(g) for g in groups) == len(experiments.EXPERIMENTS)


# ---------------------------------------------------------------------------
# run_raw / run_experiment compatibility.
# ---------------------------------------------------------------------------


def test_run_raw_memoizes_per_config():
    api.clear_memory_cache()
    first = api.run_raw("validation")
    assert api.run_raw("validation") is first
    # A different configuration is a different memo slot.
    swept = api.run_raw("validation", {"seed": 7})
    assert swept is not first
    api.clear_memory_cache()


def test_run_experiment_wrapper_warns_but_still_works():
    api.clear_memory_cache()
    with pytest.warns(DeprecationWarning):
        pair = experiments.run_experiment("gauss", overrides=SMALL_GAUSS)
    assert pair.name == "Gauss"
    assert pair.mp_result.board.num_procs == 4
    api.clear_memory_cache()


def test_clear_cache_shim_warns_and_delegates():
    api.clear_memory_cache()
    first = api.run_raw("validation")
    with pytest.warns(DeprecationWarning):
        experiments.clear_cache()
    assert api.run_raw("validation") is not first
    api.clear_memory_cache()


# ---------------------------------------------------------------------------
# Cache behavior through the API.
# ---------------------------------------------------------------------------


def _counting_spec(counter):
    def runner(config):
        counter.append(config)
        return {"value": 1.0}

    return experiments.ExperimentSpec(
        id="fake_counting",
        title="fake",
        paper_tables="none",
        description="test-only",
        runner=runner,
        config=ExperimentConfig(exp_id="fake_counting"),
        shape=lambda result: [("has value", result["value"] == 1.0, "ok")],
        paper={"n/a": 0},
    )


def test_warm_cache_runs_zero_simulations(tmp_path, monkeypatch):
    counter = []
    monkeypatch.setitem(
        experiments.EXPERIMENTS, "fake_counting", _counting_spec(counter)
    )
    cache = ResultCache(tmp_path)
    cold = api.execute(["fake_counting"], jobs=1, cache=cache)
    assert len(counter) == 1
    assert cold["fake_counting"].cached is False
    api.clear_memory_cache()  # even the in-process memo is gone
    warm = api.execute(["fake_counting"], jobs=1, cache=cache)
    assert len(counter) == 1  # nothing re-simulated
    assert warm["fake_counting"].cached is True
    assert warm["fake_counting"].checks == cold["fake_counting"].checks
    assert warm["fake_counting"].summary == cold["fake_counting"].summary


def test_force_bypasses_cache(tmp_path, monkeypatch):
    counter = []
    monkeypatch.setitem(
        experiments.EXPERIMENTS, "fake_counting", _counting_spec(counter)
    )
    cache = ResultCache(tmp_path)
    api.execute(["fake_counting"], jobs=1, cache=cache)
    api.clear_memory_cache()
    api.execute(["fake_counting"], jobs=1, cache=cache, force=True)
    assert len(counter) == 2


def test_record_for_serves_fidelity_from_cache(tmp_path, monkeypatch):
    counter = []
    monkeypatch.setitem(
        experiments.EXPERIMENTS, "fake_counting", _counting_spec(counter)
    )
    cache = ResultCache(tmp_path)
    first = api.record_for("fake_counting", cache=cache)
    api.clear_memory_cache()
    second = api.record_for("fake_counting", cache=cache)
    assert len(counter) == 1
    assert second.cached is True
    assert second.summary == first.summary


# ---------------------------------------------------------------------------
# In-process vs spawned workers.
# ---------------------------------------------------------------------------


def test_runs_in_process_when_at_most_one_worker_would_be_used():
    one, two = [[("a", None)]], [[("a", None)], [("b", None)]]
    assert runs_in_process(one, jobs=4)
    assert runs_in_process(two, jobs=1)
    assert not runs_in_process(two, jobs=2)


def test_single_experiment_run_stays_in_process_on_a_multi_cpu_host(monkeypatch):
    """``repro run`` defaults ``--jobs`` to the CPU count, yet one
    experiment runs here: it sees this test's injected registry entry
    (a spawned worker imports a fresh registry without it) and pays no
    interpreter start-up."""
    counter = []
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setitem(
        experiments.EXPERIMENTS, "fake_counting", _counting_spec(counter)
    )
    assert default_jobs() == 4
    assert main(["run", "fake_counting", "--no-cache"]) == 0
    assert len(counter) == 1


# ---------------------------------------------------------------------------
# Worker-process determinism and --jobs equivalence.
# ---------------------------------------------------------------------------


def _strip_timing(record):
    data = record.to_jsonable()
    data.pop("elapsed_seconds")
    return data


@pytest.mark.slow
def test_worker_vs_inprocess_determinism(tmp_path):
    """A spawned worker must produce bit-identical cycle counts."""
    api.clear_memory_cache()
    # Two independent groups, so jobs=2 really spawns two workers (one
    # group alone would run in this process).
    ids = ["gauss", "validation"]
    overrides = {"gauss": SMALL_GAUSS}
    inproc = api.execute(
        ids, jobs=1, cache=ResultCache(tmp_path / "a"), overrides=overrides,
    )["gauss"]
    api.clear_memory_cache()
    worker = api.execute(
        ids, jobs=2, cache=ResultCache(tmp_path / "b"), overrides=overrides,
    )["gauss"]
    assert worker.cached is False
    assert _strip_timing(worker) == _strip_timing(inproc)
    # The headline quantities really are cycle counts, not just shapes.
    assert worker.summary["mp"]["overall"]["total"] > 0
    assert (
        worker.summary["mp"]["overall"]["total"]
        == inproc.summary["mp"]["overall"]["total"]
    )
    api.clear_memory_cache()


@pytest.mark.slow
def test_jobs_1_and_jobs_4_equivalent(tmp_path):
    api.clear_memory_cache()
    ids = ["validation", "gauss"]
    overrides = {"gauss": SMALL_GAUSS, "validation": {"seed": 11}}
    serial = api.execute(
        ids, jobs=1, cache=ResultCache(tmp_path / "s"), overrides=overrides
    )
    api.clear_memory_cache()
    parallel = api.execute(
        ids, jobs=4, cache=ResultCache(tmp_path / "p"), overrides=overrides
    )
    assert list(serial) == list(parallel) == ids
    for exp_id in ids:
        assert _strip_timing(serial[exp_id]) == _strip_timing(parallel[exp_id])
    assert serial["validation"].all_ok
    api.clear_memory_cache()


def test_dependent_shape_checks_work_in_one_group(tmp_path, monkeypatch):
    """An `after` experiment's checks can reach their baseline's result."""
    calls = []

    def base_runner(config):
        calls.append("base")
        return {"total": 10.0}

    def dep_runner(config):
        calls.append("dep")
        return {"total": 5.0}

    def dep_shape(result):
        base = api.run_raw("fake_base")
        return [("improves", result["total"] < base["total"], "ok")]

    base_spec = experiments.ExperimentSpec(
        id="fake_base", title="b", paper_tables="none", description="d",
        runner=base_runner, config=ExperimentConfig(exp_id="fake_base"),
        shape=lambda r: [("ran", True, "ok")], paper={"n/a": 0},
    )
    dep_spec = experiments.ExperimentSpec(
        id="fake_dep", title="d", paper_tables="none", description="d",
        runner=dep_runner, config=ExperimentConfig(exp_id="fake_dep"),
        shape=dep_shape, paper={"n/a": 0}, after=("fake_base",),
    )
    monkeypatch.setitem(experiments.EXPERIMENTS, "fake_base", base_spec)
    monkeypatch.setitem(experiments.EXPERIMENTS, "fake_dep", dep_spec)
    api.clear_memory_cache()
    records = api.execute(
        ["fake_base", "fake_dep"], jobs=1, cache=ResultCache(tmp_path)
    )
    assert records["fake_dep"].all_ok
    # The baseline ran once; the dep's shape check reused the memo.
    assert calls == ["base", "dep"]
    api.clear_memory_cache()
