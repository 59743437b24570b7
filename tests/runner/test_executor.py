"""Executor and API tests: grouping, parallelism, determinism, cache.

The simulation-running tests use sweep overrides to shrink workloads
(the harness's own parameterization feature), so they run in seconds.
"""

import dataclasses
import gc
import os
import threading
import weakref

import pytest

from repro.cli import main
from repro.core import experiments
from repro.runner import api
from repro.runner.cache import ResultCache
from repro.runner.config import ExperimentConfig
from repro.runner.executor import (
    default_jobs,
    group_root,
    plan_groups,
    run_group,
    run_parallel,
    runs_in_process,
)
from repro.runner.record import build_record

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
# run_raw.
# ---------------------------------------------------------------------------


def test_run_raw_memoizes_per_config():
    api.clear_memory_cache()
    first = api.run_raw("validation")
    assert api.run_raw("validation") is first
    # A different configuration is a different memo slot.
    swept = api.run_raw("validation", {"seed": 7})
    assert swept is not first
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


# ---------------------------------------------------------------------------
# What a run keeps in memory.
# ---------------------------------------------------------------------------


class _Machine:
    """Stands in for a simulated machine: a reference cycle, as real
    machines are (engine <-> processes <-> contexts)."""

    def __init__(self):
        self.cycle = self


class _Run:
    """A machine run result: a board for the checks, and the machine."""

    def __init__(self, machine):
        self.board = {}
        self.machine = machine


def _machine_spec(exp_id, machines, after=(), shape=None):
    """A cheap experiment whose runner builds one ``_Machine`` per run and
    keeps a weakref to it in ``machines[exp_id]``."""

    def runner(config):
        machine = _Machine()
        machines.setdefault(exp_id, []).append((config.preset, weakref.ref(machine)))
        return {"value": 1.0, "run": _Run(machine)}

    return experiments.ExperimentSpec(
        id=exp_id, title=exp_id, paper_tables="none", description="test-only",
        runner=runner, config=ExperimentConfig(exp_id=exp_id),
        shape=shape or (lambda result: [("ran", True, "ok")]),
        paper={"n/a": 0}, after=after,
    )


def _alive(machines, exp_id):
    return [ref() is not None for _preset, ref in machines.get(exp_id, [])]


@pytest.fixture
def machines(monkeypatch):
    """Registers ``fake_a`` and ``fake_b`` (independent) and ``fake_base``
    with its dependent ``fake_dep``; returns the runners' weakrefs."""
    machines = {}

    def dep_shape(result):
        base = api.baseline("fake_base")
        # The baseline is still alive while its dependent is checked.
        return [("baseline alive", base["run"].machine is not None, "ok")]

    specs = [
        _machine_spec("fake_a", machines),
        _machine_spec("fake_b", machines),
        _machine_spec("fake_base", machines),
        _machine_spec("fake_dep", machines, after=("fake_base",), shape=dep_shape),
    ]
    for spec in specs:
        monkeypatch.setitem(experiments.EXPERIMENTS, spec.id, spec)
    return machines


def test_run_group_releases_each_machine(machines):
    records = run_group([("fake_a", None), ("fake_b", None)])
    assert [r.exp_id for r in records] == ["fake_a", "fake_b"]
    assert _alive(machines, "fake_a") == [False]
    assert _alive(machines, "fake_b") == [False]
    assert api.memo_keys() == set()


def test_run_group_keeps_machines_it_did_not_memoize(machines):
    mine = api.run_raw("fake_a")
    run_group([("fake_a", None), ("fake_b", None)])
    # A direct caller's memo entry survives, and served the group.
    assert api.run_raw("fake_a") is mine
    assert _alive(machines, "fake_a") == [True]
    assert _alive(machines, "fake_b") == [False]


def test_in_process_run_parallel_releases_each_machine(machines):
    """In-process groups share one memo lifetime: each group's raw
    results live until the last group is done, then all are released."""
    seen = []

    def progress(record):
        seen.append((record.exp_id, _alive(machines, record.exp_id)))

    groups = [[("fake_a", None)], [("fake_b", None)]]
    assert runs_in_process(groups, jobs=1)
    run_parallel(groups, jobs=1, progress=progress)
    assert seen == [("fake_a", [True]), ("fake_b", [True])]
    assert _alive(machines, "fake_a") == [False]
    assert _alive(machines, "fake_b") == [False]
    assert api.memo_keys() == set()


def test_record_for_releases_the_machine(machines, tmp_path):
    record = api.record_for("fake_a", cache=ResultCache(tmp_path))
    assert record.all_ok
    assert _alive(machines, "fake_a") == [False]
    assert api.memo_keys() == set()


def test_baseline_lives_until_its_last_dependent_is_checked(machines, monkeypatch):
    alive_at_dep = []
    dep_runner = experiments.EXPERIMENTS["fake_dep"].runner

    def runner(config):
        alive_at_dep.append(_alive(machines, "fake_base"))
        return dep_runner(config)

    monkeypatch.setitem(
        experiments.EXPERIMENTS, "fake_dep",
        dataclasses.replace(experiments.EXPERIMENTS["fake_dep"], runner=runner),
    )
    records = run_group([("fake_base", None), ("fake_dep", None)])
    assert all(r.all_ok for r in records)
    assert alive_at_dep == [[True]]
    # Simulated once, served to the dependent from the memo, then released.
    assert _alive(machines, "fake_base") == [False]
    assert _alive(machines, "fake_dep") == [False]
    assert api.memo_keys() == set()


def _with_runner(exp_id, wrap, monkeypatch):
    """Re-register ``exp_id`` with its runner wrapped by ``wrap``."""
    spec = experiments.EXPERIMENTS[exp_id]
    monkeypatch.setitem(
        experiments.EXPERIMENTS, exp_id, dataclasses.replace(spec, runner=wrap(spec.runner))
    )


def test_independent_items_are_reclaimed_once_per_group(machines, monkeypatch):
    collections = []
    monkeypatch.setattr(gc, "collect", lambda *args: collections.append(args))
    run_group([("fake_a", None), ("fake_b", None), ("fake_base", None)])
    assert len(collections) == 1
    collections.clear()
    run_group([("fake_base", None), ("fake_dep", None)])
    assert len(collections) == 1
    collections.clear()
    # A nested scope joins the outermost one: one collection, at its end.
    with api.memo_scope():
        run_group([("fake_a", None)])
        run_group([("fake_b", None)])
        assert collections == []
    assert len(collections) == 1


def test_a_group_on_another_thread_keeps_its_baseline(machines, monkeypatch):
    """Two groups at once on two threads, as the ``repro serve`` queue
    runs them: a group that finishes releases only what it memoized
    itself, not a baseline the other group is still using."""
    a_started, base_done, a_done = threading.Event(), threading.Event(), threading.Event()

    def hold_a(runner):
        def held(config):
            a_started.set()
            assert base_done.wait(timeout=30)
            return runner(config)
        return held

    def hold_dep(runner):
        def held(config):
            base_done.set()
            assert a_done.wait(timeout=30)
            return runner(config)
        return held

    _with_runner("fake_a", hold_a, monkeypatch)
    _with_runner("fake_dep", hold_dep, monkeypatch)
    records = {}

    def run(name, items):
        records[name] = run_group(items)

    other = threading.Thread(target=run, args=("a", [("fake_a", None)]))
    other.start()
    assert a_started.wait(timeout=30)
    dependent = threading.Thread(
        target=run, args=("dep", [("fake_base", None), ("fake_dep", None)])
    )
    dependent.start()
    other.join(timeout=30)  # released fake_a while fake_dep was running
    a_done.set()
    dependent.join(timeout=30)
    assert [r.exp_id for r in records["a"]] == ["fake_a"]
    assert all(r.all_ok for r in records["dep"])
    # The dependent's check was served the baseline its group memoized.
    assert len(machines["fake_base"]) == 1
    assert _alive(machines, "fake_base") == [False]
    assert api.memo_keys() == set()


def test_in_process_groups_share_a_baseline_until_the_last_is_done(machines):
    """Two groups over one dependent (a sweep's batches) compare
    against one baseline: simulated once, released when both are done."""
    seen = []

    def progress(record):
        seen.append(_alive(machines, "fake_base"))

    groups = [[("fake_dep", {"procs": 2})], [("fake_dep", {"procs": 3})]]
    records = run_parallel(groups, jobs=1, progress=progress)
    assert all(r.all_ok for r in records)
    assert seen == [[True], [True]]
    assert _alive(machines, "fake_base") == [False]
    assert api.memo_keys() == set()


def test_dependent_group_runs_its_baseline_once_on_the_dependents_preset(machines):
    cluster = {"preset": "cluster"}
    records = run_group([("fake_base", cluster), ("fake_dep", cluster)])
    assert all(r.all_ok for r in records)
    assert [preset for preset, _ref in machines["fake_base"]] == ["cluster"]
    assert [preset for preset, _ref in machines["fake_dep"]] == ["cluster"]
    assert api.memo_keys() == set()


def test_a_lone_dependent_simulates_and_releases_its_baseline(machines):
    run_group([("fake_dep", {"preset": "cluster"})])
    assert [preset for preset, _ref in machines["fake_base"]] == ["cluster"]
    assert _alive(machines, "fake_base") == [False]
    assert api.memo_keys() == set()


@pytest.mark.parametrize(
    "dependent, base", [("em3d_bigcache", "em3d"), ("em3d_localalloc", "em3d"), ("alcp", "lcp")]
)
def test_registered_dependents_compare_on_their_own_machine(dependent, base, monkeypatch):
    """The registry's baselines run on the dependent's backend, memory
    model and preset (the simulation is stubbed out: the first thing
    each shape check does is ask for its baseline)."""

    class Asked(Exception):
        pass

    def run_raw(exp_id, overrides=None):
        raise Asked(exp_id, overrides)

    monkeypatch.setattr(api, "run_raw", run_raw)
    machine = {"backend": "reference", "consistency": "tso", "preset": "cluster"}
    config = api.resolve_config(dependent, dict(machine, procs=4))
    with pytest.raises(Asked) as asked:
        build_record(experiments.EXPERIMENTS[dependent], config, None, 0.0)
    assert asked.value.args == (base, machine)
