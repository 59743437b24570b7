"""Randomized stress programs, including Hypothesis-driven schedules."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.check.stress import (
    _mp_schedule,
    _sm_schedule,
    run_mp_stress,
    run_sm_stress,
)

_SETTINGS = dict(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def test_sm_stress_fixed_seed():
    report = run_sm_stress(ops=160, seed=0)
    assert report["sm_ops"] == 160
    assert report["increments"] > 0
    assert report["swmr"] > 0
    assert report["data-value"] > 0
    assert report["oracle-final"] >= 1


@pytest.mark.parametrize("consistency", ["tso", "pc"])
def test_sm_stress_relaxed_models(consistency):
    """The same schedules run clean through the store-buffered machine.

    The monitor's oracle is relaxed to per-location coherence: loads
    are judged against the committed shadow plus the loader's own
    pending stores, every drain commit is checked for per-location
    program order (CoRR/CoWW still enforced), and quiescence demands
    dry store buffers. Mutual exclusion must stay exact — lock release
    fences.
    """
    report = run_sm_stress(ops=160, seed=0, consistency=consistency)
    assert report["sm_ops"] == 160
    assert report["increments"] > 0
    assert report["data-value"] > 0
    # Relaxed-only invariants actually engaged.
    assert report["coherence-order"] > 0
    assert report["sb-quiescent"] == 4  # one per processor at quiescence
    assert report["oracle-final"] >= 1


@pytest.mark.parametrize("consistency", ["tso", "pc"])
def test_sm_stress_relaxed_deterministic(consistency):
    """Relaxed stress is reproducible: same seed, same report."""
    a = run_sm_stress(ops=120, seed=3, consistency=consistency)
    b = run_sm_stress(ops=120, seed=3, consistency=consistency)
    assert a == b


@pytest.mark.parametrize("seed", [99, 862, 1167, 2865])
def test_sm_stress_relaxed_pc_pinned_seeds(seed):
    """Schedules on which a load once issued a GETS for a line its own
    drain had just made EXCLUSIVE, so the directory granted another
    node a SHARED copy beside the dirty one (a SWMR violation)."""
    report = run_sm_stress(ops=80, seed=seed, consistency="pc")
    assert report["sm_ops"] == 80
    assert report["coherence-order"] > 0

@given(seed=st.integers(0, 2**16))
@settings(**_SETTINGS)
def test_sm_stress_random_schedules_relaxed_pc(seed):
    report = run_sm_stress(ops=80, seed=seed, consistency="pc")
    assert report["sm_ops"] == 80
    assert report["coherence-order"] > 0


def test_mp_stress_fixed_seed():
    report = run_mp_stress(ops=80, seed=0)
    assert report["mp_messages"] == 80
    assert report["fifo"] > 0
    assert report["conservation"] > 0
    # Strict quiescence: the stress program drains everything.
    assert "residual-packets" not in report
    assert "residual-channel-bytes" not in report


def test_mp_stress_needs_even_nprocs():
    with pytest.raises(ValueError, match="even"):
        run_mp_stress(ops=10, nprocs=3)


def test_schedules_are_deterministic():
    assert _sm_schedule(100, 7, 4) == _sm_schedule(100, 7, 4)
    assert _mp_schedule(100, 7, 4) == _mp_schedule(100, 7, 4)
    assert _sm_schedule(100, 7, 4) != _sm_schedule(100, 8, 4)


@given(ops=st.integers(40, 160), seed=st.integers(0, 2**16))
@settings(**_SETTINGS)
def test_sm_stress_random_schedules(ops, seed):
    report = run_sm_stress(ops=ops, seed=seed)
    assert report["sm_ops"] == ops


@given(ops=st.integers(20, 80), seed=st.integers(0, 2**16))
@settings(**_SETTINGS)
def test_mp_stress_random_schedules(ops, seed):
    report = run_mp_stress(ops=ops, seed=seed)
    assert report["mp_messages"] == ops
