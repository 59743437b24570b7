"""Registry tests (cheap ones; full experiments run in benchmarks/)."""

import pytest

from repro.api import run_raw
from repro.core.experiments import EXPERIMENTS, get_experiment
from repro.runner.api import clear_memory_cache
from repro.runner.config import ExperimentConfig

EXPECTED_IDS = {
    "mse",
    "gauss",
    "gauss_collectives",
    "gauss_contention",
    "em3d",
    "em3d_bigcache",
    "em3d_localalloc",
    "em3d_protocols",
    "lcp",
    "alcp",
    "validation",
}


def test_registry_covers_all_paper_tables():
    assert set(EXPERIMENTS) == EXPECTED_IDS
    covered = " ".join(spec.paper_tables for spec in EXPERIMENTS.values())
    for table in range(4, 24):
        assert str(table) in covered, f"paper table {table} not mapped"


def test_specs_are_complete():
    for spec in EXPERIMENTS.values():
        assert spec.title
        assert spec.description
        assert callable(spec.runner)
        assert callable(spec.shape)
        assert isinstance(spec.config, ExperimentConfig)
        assert spec.config.exp_id == spec.id
        assert spec.paper, f"{spec.id} has no paper reference values"


def test_runners_are_top_level_functions():
    """Runners must be picklable by name for the multiprocessing pool."""
    for spec in EXPERIMENTS.values():
        assert spec.runner.__qualname__ == spec.runner.__name__, (
            f"{spec.id}'s runner is not a module-level function"
        )


def test_after_references_are_valid():
    for spec in EXPERIMENTS.values():
        for dep in spec.after:
            assert dep in EXPERIMENTS, f"{spec.id} depends on unknown {dep!r}"


def test_get_experiment_unknown():
    with pytest.raises(KeyError):
        get_experiment("nope")


def test_validation_experiment_runs_and_passes():
    clear_memory_cache()
    result = run_raw("validation")
    checks = EXPERIMENTS["validation"].shape(result)
    assert checks
    for name, ok, detail in checks:
        assert ok, f"{name}: {detail}"


def test_results_are_memoized():
    clear_memory_cache()
    first = run_raw("validation")
    second = run_raw("validation")
    assert first is second
    clear_memory_cache()


def test_validation_expectations_are_topology_aware():
    """Under the cluster preset the 0->1 hops are on-node, and the
    analytic expectations must use the same two-level latency the
    machine charges (a flat-latency expectation would be ~5x off)."""
    clear_memory_cache()
    result = run_raw("validation", overrides={"preset": "cluster"})
    checks = EXPERIMENTS["validation"].shape(result)
    assert checks
    for name, ok, detail in checks:
        assert ok, f"{name}: {detail}"
    clear_memory_cache()


def test_paper_only_checks_waived_off_the_paper_preset():
    """Checks naming claims pinned to the 1994 machine gate only the
    paper preset; under modern presets build_record records them as
    waived (passing, with the measured numbers kept in the detail)."""
    from repro.runner.record import build_record

    spec = EXPERIMENTS["gauss_collectives"]
    assert spec.paper_only == ("lop-sided beats binary",)

    class _Spec:
        id = "fake"
        title = "fake"
        paper_tables = ""
        notes = ""
        paper_only = ("claim-a",)

        @staticmethod
        def shape(result):
            return [("claim-a", False, "flipped"), ("claim-b", True, "held")]

    config = ExperimentConfig(exp_id="validation", preset="cluster")
    record = build_record(_Spec, config, result={}, elapsed_seconds=0.0)
    assert record.checks == [
        ["claim-a", True, "waived under preset='cluster': flipped"],
        ["claim-b", True, "held"],
    ]
    # On the paper machine the same failing check gates.
    record = build_record(
        _Spec, ExperimentConfig(exp_id="validation"), result={},
        elapsed_seconds=0.0,
    )
    assert record.checks[0] == ["claim-a", False, "flipped"]
