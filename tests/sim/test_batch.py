"""Unit tests for the declared bulk-run script."""

from repro.sim.batch import BatchScript


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
