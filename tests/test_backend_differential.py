"""Differential backend suite: batched vs reference, bit for bit.

The batched execution backend promises to change *nothing* about a
simulation except its wall-clock speed. These tests hold it to that
promise the strongest way available: run every experiment under both
backends and require the resulting :class:`RunRecord`\\ s to be equal in
every simulated fact — cycle totals, event counts, per-category
breakdowns, check outcomes, rendered tables. Only provenance may differ
(the cache key includes the backend; elapsed wall time obviously
varies).

The fastest experiments run in tier-1; the rest are ``slow``. The
litmus and stress suites additionally re-run under both backends: the
memory-consistency invariants must hold identically, with identical
outcome histograms. So must the invariant checker over the apps that
run batches: it has to observe every scalar op a batch stands for.
"""

import pytest

from repro import api

#: exp_id -> overrides shrinking the run to differential-test size.
#: Every experiment keeps its default shape (strategies, proc counts,
#: protocol variants); only the workload is scaled down.
SMALL = {
    "mse": {"procs": 4, "app": {"bodies": 16, "elements_per_body": 4,
                                "iterations": 3}},
    "gauss": {"procs": 4, "app": {"n": 64}},
    "gauss_collectives": {"procs": 8, "app": {"n": 48}},
    "gauss_contention": {"app": {"n": 48}},
    "em3d": {"procs": 4, "app": {"nodes_per_proc": 40, "degree": 4,
                                 "iterations": 3}},
    "em3d_bigcache": {"procs": 4, "app": {"nodes_per_proc": 40, "degree": 4,
                                          "iterations": 3}},
    "em3d_localalloc": {"procs": 4, "app": {"nodes_per_proc": 40, "degree": 4,
                                            "iterations": 3}},
    "em3d_protocols": {"procs": 4, "app": {"nodes_per_proc": 40, "degree": 4,
                                           "iterations": 3}},
    "lcp": {"procs": 4, "app": {"n": 96}},
    "alcp": {"procs": 4, "app": {"n": 96}},
    "validation": {},
}

#: Record fields allowed to differ between backends: provenance, not
#: simulated facts.
PROVENANCE = ("cache_key", "config", "elapsed_seconds", "cached")

TIER1 = ("mse", "validation")
HEAVY = tuple(exp for exp in SMALL if exp not in TIER1)


def _record_pair(exp_id):
    """Fresh records for both backends, disk cache bypassed."""
    records = {}
    for backend in ("batched", "reference"):
        api.clear_memory_cache()
        overrides = dict(SMALL[exp_id], backend=backend)
        records[backend] = api.record_for(exp_id, overrides, use_cache=False)
    return records["batched"], records["reference"]


def _assert_identical(batched, reference):
    a = batched.to_jsonable()
    b = reference.to_jsonable()
    assert a["config"]["backend"] == "batched"
    assert b["config"]["backend"] == "reference"
    # Different backends must never share a cache key.
    assert a["cache_key"] != b["cache_key"]
    for key in PROVENANCE:
        a.pop(key, None)
        b.pop(key, None)
    assert a == b


@pytest.mark.parametrize("exp_id", TIER1)
def test_backends_bit_identical(exp_id):
    _assert_identical(*_record_pair(exp_id))


@pytest.mark.slow
@pytest.mark.parametrize("exp_id", HEAVY)
def test_backends_bit_identical_slow(exp_id):
    _assert_identical(*_record_pair(exp_id))


# -- memory-model differentials ----------------------------------------------


def _record_consistency_pair(exp_id, backend):
    """Fresh records with default vs. explicit-sc consistency."""
    records = {}
    for consistency in (None, "sc"):
        api.clear_memory_cache()
        overrides = dict(SMALL[exp_id], backend=backend)
        if consistency is not None:
            overrides["consistency"] = consistency
        records[consistency] = api.record_for(exp_id, overrides, use_cache=False)
    return records[None], records["sc"]


@pytest.mark.parametrize("backend", ("batched", "reference"))
@pytest.mark.parametrize("exp_id", TIER1)
def test_explicit_sc_identical_to_default(exp_id, backend):
    """consistency="sc" is the default, spelled out: same key, same
    record, bit for bit — the relaxed-model machinery leaves the SC
    path untouched on both backends."""
    default, explicit = _record_consistency_pair(exp_id, backend)
    assert default.to_jsonable()["config"]["consistency"] == "sc"
    assert default.cache_key == explicit.cache_key
    a, b = default.to_jsonable(), explicit.to_jsonable()
    for key in ("elapsed_seconds", "cached"):
        a.pop(key, None)
        b.pop(key, None)
    assert a == b


@pytest.mark.slow
@pytest.mark.parametrize("exp_id", HEAVY)
def test_explicit_sc_identical_to_default_slow(exp_id):
    for backend in ("batched", "reference"):
        default, explicit = _record_consistency_pair(exp_id, backend)
        assert default.cache_key == explicit.cache_key
        a, b = default.to_jsonable(), explicit.to_jsonable()
        for key in ("elapsed_seconds", "cached"):
            a.pop(key, None)
            b.pop(key, None)
        assert a == b


@pytest.mark.parametrize("exp_id", TIER1)
def test_relaxed_records_identical_across_backends(exp_id):
    """Under relaxation both backends build the same scalar
    RelaxedSmContext (batched bulk steps assume SC visibility), so
    tso records must be bit-identical across backends too — and must
    never share a cache key with the sc records."""
    records = {}
    for backend in ("batched", "reference"):
        api.clear_memory_cache()
        overrides = dict(SMALL[exp_id], backend=backend, consistency="tso")
        records[backend] = api.record_for(exp_id, overrides, use_cache=False)
    a = records["batched"].to_jsonable()
    b = records["reference"].to_jsonable()
    assert a["config"]["consistency"] == "tso"
    for key in PROVENANCE:
        a.pop(key, None)
        b.pop(key, None)
    assert a == b


# -- invariant suites under the batched backend ------------------------------


def test_litmus_identical_histograms_across_backends():
    from repro.check.litmus import LITMUS_TESTS, run_suite

    seeds = tuple(range(6))
    batched = run_suite(LITMUS_TESTS, seeds=seeds, backend="batched")
    reference = run_suite(LITMUS_TESTS, seeds=seeds, backend="reference")
    assert batched == reference
    assert set(batched) == {t.name for t in LITMUS_TESTS}


def test_sm_stress_clean_and_identical_across_backends():
    from repro.check.stress import run_sm_stress

    batched = run_sm_stress(ops=300, seed=7, backend="batched")
    reference = run_sm_stress(ops=300, seed=7, backend="reference")
    assert batched == reference


def test_mp_stress_clean_and_identical_across_backends():
    from repro.check.stress import run_mp_stress

    batched = run_mp_stress(ops=150, seed=7, backend="batched")
    reference = run_mp_stress(ops=150, seed=7, backend="reference")
    assert batched == reference


# -- the invariant checker over batch-using apps -----------------------------


def _checker_report(exp_id, backend):
    from repro import check

    api.clear_memory_cache()
    with check.checking() as checker:
        api.record_for(exp_id, dict(SMALL[exp_id], backend=backend), use_cache=False)
    return checker.report()


#: Full checker reports at the SMALL configs, the same on both backends:
#: a seam that lost one wrapper changes a count here.
CHECKER_REPORTS = {
    "mse": {"conservation": 182, "data-value": 91, "dir-agreement": 16,
            "fifo": 182, "oracle-final": 1, "quiescence": 1, "swmr": 184},
    "gauss": {"conservation": 972, "data-value": 8321, "dir-agreement": 1078,
              "fifo": 972, "oracle-final": 6, "quiescence": 1, "swmr": 4991},
    "em3d": {"conservation": 240, "data-value": 5146, "dir-agreement": 1066,
             "fifo": 228, "oracle-final": 112, "quiescence": 1,
             "residual-packets": 12, "swmr": 4924},
}


def _assert_checker_parity(exp_id):
    """The checker rebinds a context's data ops and routes its run_batch
    through the reference decomposition, so a checked batched run makes
    exactly the checks of a checked reference run."""
    batched = _checker_report(exp_id, "batched")
    assert batched == _checker_report(exp_id, "reference")
    assert batched == CHECKER_REPORTS[exp_id]


@pytest.mark.parametrize("exp_id", ("mse", "gauss"))
def test_checker_reports_identical_across_backends(exp_id):
    _assert_checker_parity(exp_id)


@pytest.mark.slow
@pytest.mark.parametrize("exp_id", ("em3d",))
def test_checker_reports_identical_across_backends_slow(exp_id):
    _assert_checker_parity(exp_id)
