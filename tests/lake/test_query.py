"""The query layer: filters, salt freshness, the cross-preset pivot."""

import pytest

import repro.runner.cache as cache_mod
from repro.lake import (
    QueryFilters,
    pivot,
    query_runs,
    render_rows,
    rows_to_csv,
)


def test_default_query_returns_fresh_rows_with_headline_metrics(lake):
    rows = query_runs(lake)
    assert len(rows) == 2
    for row in rows:
        assert row["exp_id"] == "em3d"
        assert row["fresh"] is True
        assert row["sm_over_mp"] == pytest.approx(
            row["sm_total"] / row["mp_total"]
        )


def test_filters_narrow_by_preset_and_app(lake):
    only = query_runs(lake, QueryFilters(preset="multicore"))
    assert [row["preset"] for row in only] == ["multicore"]
    assert query_runs(lake, QueryFilters(app="gauss")) == []


def test_unknown_metric_suggests(lake):
    with pytest.raises(ValueError, match="did you mean 'sm_over_mp'"):
        query_runs(lake, QueryFilters(metrics=("sm_over_mpp",)))


@pytest.mark.parametrize(
    "filters, suggestion",
    [
        ({"app": "em3dd"}, "did you mean 'em3d'"),
        ({"preset": "multicre"}, "did you mean 'multicore'"),
        ({"consistency": "tsso"}, "did you mean 'tso'"),
    ],
)
def test_api_query_refuses_a_filter_no_row_could_match(lake, filters, suggestion):
    """api.query refuses what `repro query` refuses, instead of []."""
    from repro import api

    with pytest.raises(ValueError, match=suggestion):
        api.query(lake=lake, **filters)


def test_preset_filter_accepts_the_lake_only_presets(lake):
    for preset in ("custom", "unknown"):
        assert query_runs(lake, QueryFilters(preset=preset)) == []


def test_stale_rows_hidden_by_default_visible_with_all_salts(lake, monkeypatch):
    ingest_salt = cache_mod.CODE_SALT
    monkeypatch.setattr(cache_mod, "CODE_SALT", "repro-runner-vNEXT")
    assert query_runs(lake) == []
    rows = query_runs(lake, QueryFilters(all_salts=True))
    assert len(rows) == 2
    assert all(row["fresh"] is False for row in rows)
    # The salt column still names the salt the rows were ingested under,
    # so a cross-version comparison stays explicit.
    assert all(row["salt"] == ingest_salt for row in rows)


def test_cross_preset_pivot_answers_from_lake_rows_only(lake):
    # The acceptance scenario: EM3D sm_over_mp under the paper vs
    # multicore presets, purely lake arithmetic — no simulation here.
    rows = query_runs(lake, QueryFilters(app="em3d", metrics=("sm_over_mp",)))
    (row,) = pivot(rows, "preset", "sm_over_mp")
    assert row["exp_id"] == "em3d"
    assert row["paper"] > 1.0  # MP wins EM3D on the paper table
    assert row["multicore"] > 1.0  # and on the multicore table
    assert row["multicore"] != row["paper"]  # distinct machine, distinct ratio


def test_pivot_unknown_column_suggests(lake):
    rows = query_runs(lake)
    with pytest.raises(ValueError, match="cannot pivot on 'presett'"):
        pivot(rows, "presett", "sm_over_mp")


def test_render_rows_and_csv(lake):
    rows = query_runs(lake)
    table = render_rows(rows)
    assert "sm_over_mp" in table.splitlines()[0]
    assert len(table.splitlines()) == 2 + len(rows)
    csv_text = rows_to_csv(rows)
    assert csv_text.splitlines()[0].startswith("exp_id,")
    assert render_rows([]) == "(no rows)"
    assert rows_to_csv([]) == ""
