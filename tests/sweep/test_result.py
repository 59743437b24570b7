"""SweepResult series extraction, serialization, and rendering."""

import pytest

from repro.sweep.result import SWEEP_SCHEMA, SweepResult


def _result_1d():
    return SweepResult(
        spec_name="t",
        exp_id="em3d",
        description="d",
        axes=[["net_latency", [0, 50]]],
        metrics=["sm_over_mp"],
        points=[
            {"coords": {"net_latency": 0}, "cache_key": "k0",
             "metrics": {"sm_over_mp": 1.4, "extra_speedup": 1.0}},
            {"coords": {"net_latency": 50}, "cache_key": "k1",
             "metrics": {"sm_over_mp": 2.3, "extra_speedup": 2.0}},
        ],
        checks=[["grows", True, "ok"]],
        meta={"elapsed_seconds": 1.0},
    )


def _result_2d():
    points = []
    for lat in (0, 50):
        for kb in (4, 8):
            points.append({
                "coords": {"net_latency": lat, "cache_kb": kb},
                "cache_key": f"k{lat}-{kb}",
                "metrics": {"sm_total": float(lat + kb)},
            })
    return SweepResult(
        spec_name="t2", exp_id="em3d", description="",
        axes=[["net_latency", [0, 50]], ["cache_kb", [4, 8]]],
        metrics=["sm_total"], points=points,
    )


def test_series_1d():
    xs, ys = _result_1d().series("sm_over_mp")
    assert xs == [0, 50]
    assert ys == [1.4, 2.3]


def test_series_2d_requires_where():
    result = _result_2d()
    with pytest.raises(ValueError, match="pass where="):
        result.series("sm_total")
    xs, ys = result.series("sm_total", where={"cache_kb": 8})
    assert xs == [0, 50]
    assert ys == [8.0, 58.0]


def test_rows_flatten_coords_and_metrics():
    rows = _result_1d().rows()
    assert rows[0] == {"net_latency": 0, "sm_over_mp": 1.4,
                       "extra_speedup": 1.0}


def test_jsonable_roundtrip_and_schema():
    result = _result_1d()
    clone = SweepResult.from_jsonable(result.to_jsonable())
    assert clone == result
    assert clone.schema == SWEEP_SCHEMA


def test_meta_excluded_from_identity():
    a, b = _result_1d(), _result_1d()
    b.meta = {"elapsed_seconds": 99.0, "simulated": 5}
    assert a == b  # meta is compare=False


def test_all_ok():
    result = _result_1d()
    assert result.all_ok
    result.checks.append(["fails", False, "bad"])
    assert not result.all_ok


def test_to_csv_includes_derived_columns():
    text = _result_1d().to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "net_latency,sm_over_mp,extra_speedup"
    assert lines[1] == "0,1.4,1.0"
    assert len(lines) == 3


def test_render_table_alignment():
    table = _result_1d().render_table()
    lines = table.split("\n")
    assert "net_latency" in lines[0]
    assert "sm_over_mp" in lines[0]
    assert "extra_speedup" in lines[0]
    assert set(lines[1]) == {"-"}
    assert len(lines) == 4

