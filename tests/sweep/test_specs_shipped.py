"""The shipped paper-sensitivity specs (slow: real simulations)."""

import pytest

from repro.runner.cache import ResultCache
from repro.specs import list_specs
from repro.sweep import get_sweep, run_sweep


def test_get_sweep_suggests_on_typo():
    with pytest.raises(ValueError, match="did you mean 'em3d-latency'"):
        get_sweep("em3d_latency")


def test_shipped_specs_are_well_formed():
    from repro.core.experiments import EXPERIMENTS

    for info in list_specs("sweep"):
        spec = get_sweep(info.id)
        assert spec.exp_id in EXPERIMENTS
        # Grid expansion (axis validation) works against the real config.
        points = spec.grid()
        assert len(points) >= 3
        assert spec.checks is not None  # every shipped spec pins a claim


@pytest.mark.slow
def test_em3d_latency_reproduces_monotone_claim(tmp_path):
    """The paper's latency-sensitivity claim, machine-checked, plus the
    warm-rerun acceptance: every point served with zero simulations."""
    cache = ResultCache(tmp_path)
    cold = run_sweep(get_sweep("em3d-latency"), jobs=1, cache=cache)
    assert cold.all_ok, cold.checks
    _xs, ratio = cold.series("sm_over_mp")
    assert all(b > a for a, b in zip(ratio, ratio[1:]))
    assert cold.meta["simulated"] == 5

    warm = run_sweep(get_sweep("em3d-latency"), jobs=1, cache=cache)
    assert warm.meta["simulated"] == 0
    assert warm.meta["cached"] == 5
    assert warm == cold


@pytest.mark.slow
def test_em3d_cache_share_monotone(tmp_path):
    result = run_sweep(get_sweep("em3d-cache"), jobs=1,
                       cache=ResultCache(tmp_path))
    assert result.all_ok, result.checks


@pytest.mark.slow
def test_gauss_speedup_monotone_with_crossover(tmp_path):
    result = run_sweep(get_sweep("gauss-speedup"), jobs=1,
                       cache=ResultCache(tmp_path))
    assert result.all_ok, result.checks
    [probe] = result.crossovers
    assert probe["crossed"] is True
    assert 4 < probe["at"] <= 8  # SM overtakes MP late in the sweep


@pytest.mark.slow
def test_em3d_modern_mp_win_survives(tmp_path):
    """The ROADMAP's scenario-diversity question, machine-checked: the
    paper's EM3D MP win survives — and widens — on the multicore-era
    and cluster-of-multicores tables."""
    result = run_sweep(get_sweep("em3d-modern"), jobs=1,
                       cache=ResultCache(tmp_path))
    assert result.all_ok, result.checks
    xs, ratio = result.series("sm_over_mp")
    by_preset = dict(zip(xs, ratio))
    assert by_preset["paper"] < by_preset["multicore"] < by_preset["cluster"]
    assert min(ratio) > 1.0
