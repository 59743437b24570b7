"""Unit tests for the declared bulk-run script and unified signatures."""

import pytest

from repro.sim.batch import BatchScript, reject_unknown_kwargs


def test_script_builder_chains_and_counts():
    script = (
        BatchScript()
        .read("r", 0, 8)
        .compute(5)
        .write("r", 0, 8, values=[0] * 8)
        .compute_flops(3)
    )
    assert len(script) == 4
    assert [op[0] for op in script.ops] == [
        "read", "compute", "write", "compute_flops",
    ]
    # The verdict memo belongs to the executing backend, not the builder.
    assert script.memos is None


def test_reject_unknown_kwargs_names_legacy_replacement():
    with pytest.raises(TypeError, match="did you mean 'start'"):
        reject_unknown_kwargs("read", {"lo": 0}, ("start", "stop"))
    with pytest.raises(TypeError, match="did you mean 'stop'"):
        reject_unknown_kwargs("read", {"hi": 8}, ("start", "stop"))


def test_reject_unknown_kwargs_suggests_close_match():
    with pytest.raises(TypeError, match="did you mean 'values'"):
        reject_unknown_kwargs("write", {"value": 1}, ("start", "stop", "values"))


def test_reject_unknown_kwargs_without_hint():
    with pytest.raises(TypeError, match="unexpected keyword argument 'zzz'"):
        reject_unknown_kwargs("read", {"zzz": 1}, ("start", "stop"))
    # No kwargs: a no-op, not an error.
    reject_unknown_kwargs("read", {}, ("start", "stop"))

