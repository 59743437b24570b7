"""Executor and API tests: sides, parallelism, determinism, cache.

The simulation-running tests use sweep overrides or small registered
configs to shrink workloads (the harness's own parameterization
feature), so they run in seconds.
"""

import dataclasses
import gc
import os
import pickle
import threading
import weakref
from collections import Counter

import pytest

from repro.cli import main
from repro.core import experiments
from repro.runner import api
from repro.runner.cache import ResultCache
from repro.runner.config import ExperimentConfig
from repro.runner.executor import default_jobs
from repro.runner.record import build_record

#: A small Gauss pair: the cheapest real two-machine experiment.
SMALL_GAUSS = {"procs": 4, "app": {"n": 40}}

#: A small EM3D: every side in well under a second.
SMALL_EM3D = {"procs": 4, "app": {"nodes_per_proc": 20, "degree": 4, "iterations": 2}}

EM3D_FAMILY = ("em3d", "em3d_bigcache", "em3d_localalloc", "em3d_protocols")


@pytest.fixture(autouse=True)
def _fresh_memo():
    """The in-process memo is module state; isolate it per test."""
    api.clear_memory_cache()
    yield
    api.clear_memory_cache()


def _sides(exp_id, overrides=None):
    spec = experiments.EXPERIMENTS[exp_id]
    return experiments.sides_of(spec, api.resolve_config(exp_id, overrides))


def _key(exp_id, name, overrides=None):
    return _sides(exp_id, overrides)[name].key()


# ---------------------------------------------------------------------------
# Sides: what each simulation reads.
# ---------------------------------------------------------------------------


def test_side_keys_name_what_each_simulation_reads():
    mp = _key("em3d", "mp")
    assert _key("em3d_localalloc", "mp") == mp
    assert _key("em3d_protocols", "mp") == mp
    assert _key("em3d_bigcache", "mp") != mp  # a 4x cache
    # em3d's SM side is the protocols ablation's base variant, written
    # out: round-robin placement, the base protocol.
    sm = _key("em3d", "sm")
    assert _key("em3d_protocols", "base") == sm
    assert _key("em3d_localalloc", "sm") != sm  # local placement
    assert len({sm, _key("em3d_protocols", "flush"), _key("em3d_protocols", "update")}) == 3
    for change in ({"backend": "reference"}, {"consistency": "tso"},
                   {"preset": "cluster"}, {"seed": 7}):
        assert _key("em3d", "sm", change) != sm, change
    for change in ({"backend": "reference"}, {"preset": "cluster"}, {"seed": 7}):
        assert _key("em3d", "mp", change) != mp, change
    # The MP machine has no memory model: its side is shared across them.
    assert _key("em3d", "mp", {"consistency": "tso"}) == mp


def test_run_all_reads_22_distinct_sides():
    """Each registered run's own sides and its baselines' (at the
    registered configs the baselines are the run's own em3d and lcp)."""
    keys = Counter()
    for exp_id, spec in experiments.EXPERIMENTS.items():
        for side in _sides(exp_id).values():
            keys[side.key()] += 1
        for base in spec.after:
            assert {s.key() for s in _sides(base).values()} <= set(keys)
    assert len(keys) == 22
    assert sum(keys.values()) == 25  # em3d's MP side thrice, its SM side twice


def test_a_side_run_pickles_with_its_board():
    """A side's run leaves its worker by pickle: ProcStats' phase maps
    have a module-level factory, and the board's totals survive."""
    (side,) = [s for s in _sides("gauss", SMALL_GAUSS).values() if s.kind == "sm"]
    run = experiments.run_side(side)
    back = pickle.loads(pickle.dumps(run))
    assert back.extra == run.extra
    assert back.result.machine is None
    for phase in (None, "init", "main"):
        assert back.result.board.mean_total(phase=phase) == run.result.board.mean_total(phase=phase)
    for proc, orig in zip(back.result.board.procs, run.result.board.procs):
        assert proc.cycles == orig.cycles and proc.counts == orig.counts
        assert proc.phase_cycles == orig.phase_cycles
        assert proc.phase_counts == orig.phase_counts


@pytest.fixture
def small_em3d(monkeypatch):
    """Registers the em3d family at a small size (their baselines then
    resolve small too). A side carries its config, so a spawned worker
    runs it small as well."""
    for exp_id in EM3D_FAMILY:
        spec = experiments.EXPERIMENTS[exp_id]
        monkeypatch.setitem(
            experiments.EXPERIMENTS, exp_id,
            dataclasses.replace(spec, config=spec.config.with_overrides(SMALL_EM3D)),
        )


@pytest.fixture
def simulated(small_em3d, monkeypatch):
    """Counts every side simulated in this process, by what it runs."""
    simulated = Counter()
    run_side = experiments.run_side

    def counting(side):
        simulated[(side.kind, dict(side.machine).get("allocation_policy"),
                   dict(side.program).get("variant"))] += 1
        return run_side(side)

    monkeypatch.setattr(experiments, "run_side", counting)
    return simulated


#: The five distinct sides of em3d, em3d_localalloc and em3d_protocols.
EM3D_SIDES = {
    ("mp", None, None): 1,
    ("sm", "round_robin", "base"): 1,
    ("sm", "local", "base"): 1,
    ("sm", "round_robin", "flush"): 1,
    ("sm", "round_robin", "update"): 1,
}


def test_one_simulation_per_distinct_side(simulated, tmp_path):
    ids = ["em3d", "em3d_localalloc", "em3d_protocols"]
    records = api.execute(ids, jobs=1, cache=ResultCache(tmp_path))
    assert list(records) == ids
    assert simulated == EM3D_SIDES  # five simulations, not eight
    # A record's time is the sum of the sides it reads, shared ones too.
    assert records["em3d_protocols"].elapsed_seconds > records["em3d"].elapsed_seconds
    assert api.memo_keys() == set()


def test_a_dependent_alone_reads_its_baselines_sides(simulated, tmp_path):
    """em3d_localalloc's checks read em3d: its own MP side serves as the
    baseline's, so the baseline adds only its SM side."""
    api.record_for("em3d_localalloc", cache=ResultCache(tmp_path))
    assert simulated == {
        ("mp", None, None): 1, ("sm", "local", "base"): 1, ("sm", "round_robin", "base"): 1,
    }
    assert api.memo_keys() == set()


@pytest.mark.slow
def test_one_simulation_per_distinct_side_over_two_workers(small_em3d, tmp_path, monkeypatch):
    """The spawned path ships each distinct side once (a worker's own
    count is out of reach, so count what is shipped), and its records
    equal the in-process ones."""
    shipped = []
    run_sides = api.run_sides

    def shipping(sides, jobs, arrived):
        shipped.append((len(sides), jobs))
        return run_sides(sides, jobs, arrived)

    monkeypatch.setattr(api, "run_sides", shipping)
    ids = ["em3d", "em3d_localalloc", "em3d_protocols"]
    parallel = api.execute(ids, jobs=2, cache=ResultCache(tmp_path / "p"))
    assert shipped == [(5, 2)]
    api.clear_memory_cache()
    serial = api.execute(ids, jobs=1, cache=ResultCache(tmp_path / "s"))
    for exp_id in ids:
        assert _strip_timing(parallel[exp_id]) == _strip_timing(serial[exp_id])


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


def test_run_raw_assembles_a_pair_from_memoized_sides():
    first = api.run_raw("gauss", SMALL_GAUSS)
    assert len(api.memo_keys()) == 2
    again = api.run_raw("gauss", SMALL_GAUSS)
    assert again.mp_result is first.mp_result
    assert again.sm_result is first.sm_result


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


class _Pool(list):
    """What the stand-in pool was asked to ship: one ``(side keys,
    jobs)`` entry per call, and ``log``, each side's arrival in turn."""

    log: list


@pytest.fixture
def shipped(monkeypatch):
    """Stands in for the worker pool: ``run_sides`` simulates each side
    in this process, in submission order, and records what it was
    asked to ship (the pool itself is exercised under ``slow``)."""
    calls = _Pool()
    calls.log = []

    def run_sides(sides, jobs, arrived):
        calls.append((list(sides), jobs))
        for key, side in sides.items():
            run = experiments.run_side(side)
            calls.log.append(f"side {side.app}")
            arrived(key, run)

    monkeypatch.setattr(api, "run_sides", run_sides)
    return calls


def test_runs_in_process_when_at_most_one_worker_would_be_used(machines, shipped):
    # One side at four jobs, two sides at one job: no pool.
    api.execute(["fake_a"], jobs=4, use_cache=False)
    api.execute(["fake_a", "fake_b"], jobs=1, use_cache=False)
    assert shipped == []
    # Two sides at two jobs: shipped, once each.
    records = api.execute(["fake_a", "fake_b"], jobs=2, use_cache=False)
    ((keys, jobs),) = shipped
    assert len(keys) == 2 and jobs == 2
    assert list(records) == ["fake_a", "fake_b"]


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


def test_shipped_sides_serve_every_record_that_reads_them(machines, shipped, tmp_path):
    """A dependent and its baseline over the pool: the baseline's side
    is shipped once and serves the baseline's record and the
    dependent's checks; each record is stored once its sides are in."""
    cache = ResultCache(tmp_path)
    records = api.execute(
        ["fake_dep", "fake_base"], jobs=2, cache=cache,
        progress=lambda record: shipped.log.append(f"record {record.exp_id}"),
    )
    ((keys, _jobs),) = shipped
    assert len(keys) == 2
    assert len(machines["fake_base"]) == 1
    assert all(record.all_ok for record in records.values())
    # fake_dep's own side arrives first, but its record waits for the
    # baseline's side, whose arrival completes both records.
    assert shipped.log == ["side fake_dep", "side fake_base", "record fake_dep",
                           "record fake_base"]
    assert sorted(r.exp_id for _path, r in cache.entries()) == ["fake_base", "fake_dep"]
    assert api.memo_keys() == set()


def test_a_lone_dependent_ships_its_baseline_on_its_own_machine(machines, shipped):
    api.execute(["fake_dep"], jobs=2, use_cache=False, overrides={"fake_dep": {"preset": "cluster"}})
    ((keys, _jobs),) = shipped
    assert len(keys) == 2
    assert [preset for preset, _ref in machines["fake_base"]] == ["cluster"]
    assert api.memo_keys() == set()


def test_a_failed_side_stores_what_finished(machines, shipped, tmp_path, monkeypatch):
    def broken(runner):
        def run(config):
            raise RuntimeError("side failed")
        return run

    _with_runner("fake_b", broken, monkeypatch)
    cache = ResultCache(tmp_path)
    with pytest.raises(RuntimeError, match="side failed"):
        api.execute(["fake_a", "fake_b"], jobs=2, cache=cache)
    assert [r.exp_id for _path, r in cache.entries()] == ["fake_a"]
    assert api.memo_keys() == set()


# ---------------------------------------------------------------------------
# Worker-process determinism and --jobs equivalence.
# ---------------------------------------------------------------------------


def _strip_timing(record):
    data = record.to_jsonable()
    data.pop("elapsed_seconds")
    return data


@pytest.mark.slow
def test_worker_vs_inprocess_determinism(tmp_path, monkeypatch):
    """A spawned worker must produce bit-identical cycle counts, and a
    side shipped for one record (em3d's MP side) serves another's
    (em3d_localalloc's, whose checks also read em3d's SM side)."""
    for exp_id in ("em3d", "em3d_localalloc"):
        spec = experiments.EXPERIMENTS[exp_id]
        monkeypatch.setitem(
            experiments.EXPERIMENTS, exp_id,
            dataclasses.replace(spec, config=spec.config.with_overrides(SMALL_EM3D)),
        )
    ids = ["gauss", "validation", "em3d", "em3d_localalloc"]
    overrides = {"gauss": SMALL_GAUSS}
    inproc = api.execute(
        ids, jobs=1, cache=ResultCache(tmp_path / "a"), overrides=overrides,
    )
    api.clear_memory_cache()
    worker = api.execute(
        ids, jobs=2, cache=ResultCache(tmp_path / "b"), overrides=overrides,
    )
    for exp_id in ids:
        assert worker[exp_id].cached is False
        assert _strip_timing(worker[exp_id]) == _strip_timing(inproc[exp_id])
    assert worker["em3d_localalloc"].all_ok
    # The headline quantities really are cycle counts, not just shapes.
    gauss = worker["gauss"].summary["mp"]["overall"]["total"]
    assert gauss > 0
    assert gauss == inproc["gauss"].summary["mp"]["overall"]["total"]


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
    """Items run together in process release every machine they
    memoized once their records are built."""
    records = api.run_cached([("fake_a", None), ("fake_b", None)], use_cache=False)
    assert [r.exp_id for r in records.values()] == ["fake_a", "fake_b"]
    assert _alive(machines, "fake_a") == [False]
    assert _alive(machines, "fake_b") == [False]
    assert api.memo_keys() == set()


def test_in_process_run_parallel_releases_each_machine(machines):
    """An in-process run's side runs share one memo lifetime: each
    lives until the last record is built, then all are released."""
    seen = []

    def progress(record):
        seen.append((record.exp_id, _alive(machines, record.exp_id)))

    records = api.execute(["fake_a", "fake_b"], jobs=1, use_cache=False, progress=progress)
    assert list(records) == ["fake_a", "fake_b"]
    assert seen == [("fake_a", [True]), ("fake_b", [True])]
    assert _alive(machines, "fake_a") == [False]
    assert _alive(machines, "fake_b") == [False]
    assert api.memo_keys() == set()


def test_a_run_keeps_sides_it_did_not_memoize(machines):
    mine = api.run_raw("fake_a")
    api.execute(["fake_a", "fake_b"], jobs=1, use_cache=False)
    # A direct caller's memo entry survives, and served the run.
    assert api.run_raw("fake_a") is mine
    assert _alive(machines, "fake_a") == [True]
    assert _alive(machines, "fake_b") == [False]
    assert len(machines["fake_a"]) == 1


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
    records = api.execute(["fake_base", "fake_dep"], jobs=1, use_cache=False)
    assert all(r.all_ok for r in records.values())
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
    """One collection per run, at the end of its memo scope."""
    collections = []
    monkeypatch.setattr(gc, "collect", lambda *args: collections.append(args))
    api.execute(["fake_a", "fake_b", "fake_base"], jobs=1, use_cache=False)
    assert len(collections) == 1
    collections.clear()
    api.execute(["fake_base", "fake_dep"], jobs=1, use_cache=False)
    assert len(collections) == 1
    collections.clear()
    # A nested scope joins the outermost one: one collection, at its end.
    with api.memo_scope():
        api.execute(["fake_a"], jobs=1, use_cache=False)
        api.execute(["fake_b"], jobs=1, use_cache=False)
        assert collections == []
    assert len(collections) == 1


def test_a_group_on_another_thread_keeps_its_baseline(machines, monkeypatch):
    """Two runs at once on two threads, as the ``repro serve`` queue
    runs them: a run that finishes releases only what it memoized
    itself, not a baseline the other run is still using."""
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

    def run(name, ids):
        records[name] = api.execute(ids, jobs=1, use_cache=False)

    other = threading.Thread(target=run, args=("a", ["fake_a"]))
    other.start()
    assert a_started.wait(timeout=30)
    dependent = threading.Thread(target=run, args=("dep", ["fake_base", "fake_dep"]))
    dependent.start()
    other.join(timeout=30)  # released fake_a while fake_dep was running
    a_done.set()
    dependent.join(timeout=30)
    assert list(records["a"]) == ["fake_a"]
    assert all(r.all_ok for r in records["dep"].values())
    # The dependent's check was served the baseline its run memoized.
    assert len(machines["fake_base"]) == 1
    assert _alive(machines, "fake_base") == [False]
    assert api.memo_keys() == set()


def test_in_process_groups_share_a_baseline_until_the_last_is_done(machines, tmp_path):
    """Two points of a sweep over a dependent compare against one
    baseline: simulated once, released when both are done."""
    seen = []
    records = api.run_cached(
        [("fake_dep", {"procs": 2}), ("fake_dep", {"procs": 3})],
        use_cache=False,
        progress=lambda record, _simulated: seen.append(_alive(machines, "fake_base")),
    )
    assert all(r.all_ok for r in records.values())
    assert seen == [[True], [True]]
    assert len(machines["fake_base"]) == 1
    assert _alive(machines, "fake_base") == [False]
    assert api.memo_keys() == set()


def test_dependent_group_runs_its_baseline_once_on_the_dependents_preset(machines):
    cluster = {"preset": "cluster"}
    records = api.execute(["fake_base", "fake_dep"], jobs=1, use_cache=False,
                          overrides={"fake_base": cluster, "fake_dep": cluster})
    assert all(r.all_ok for r in records.values())
    assert [preset for preset, _ref in machines["fake_base"]] == ["cluster"]
    assert [preset for preset, _ref in machines["fake_dep"]] == ["cluster"]
    assert api.memo_keys() == set()


def test_a_lone_dependent_simulates_and_releases_its_baseline(machines):
    api.execute(["fake_dep"], jobs=1, use_cache=False,
                overrides={"fake_dep": {"preset": "cluster"}})
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
