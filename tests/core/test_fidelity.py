"""Tests for the fidelity scorecard machinery."""

import pytest

from repro.core.fidelity import (
    PAIR_KEYS,
    FidelityRow,
    render_scorecard,
    summarize,
)


def test_pair_keys_cover_all_pair_experiments():
    assert set(PAIR_KEYS) == {"mse", "gauss", "em3d", "lcp", "alcp"}


def test_fidelity_row_error():
    row = FidelityRow("x", "m", paper=90.0, measured=84.5)
    assert row.abs_error == pytest.approx(5.5)


def test_summarize_statistics():
    rows = [
        FidelityRow("a", "m1", 50.0, 52.0),
        FidelityRow("a", "m2", 50.0, 65.0),
        FidelityRow("a", "m3", 50.0, 50.0),
    ]
    stats = summarize(rows)
    assert stats["rows"] == 3
    assert stats["mean_abs_error_pp"] == pytest.approx((2 + 15 + 0) / 3)
    assert stats["max_abs_error_pp"] == 15.0
    assert stats["within_10pp"] == pytest.approx(2 / 3)


def test_summarize_empty_rejected():
    with pytest.raises(ValueError):
        summarize([])


def test_render_scorecard_format():
    rows = [FidelityRow("mse", "MP computation share", 90.0, 88.0)]
    text = render_scorecard(rows)
    assert "Fidelity scorecard" in text
    assert "mse" in text
    assert "2.0p" in text
    assert "mean |error|" in text


def test_render_scorecard_header_keeps_columns_apart():
    rows = [FidelityRow("alcp", "MP relative to SM", 97.0, 98.0)]
    lines = render_scorecard(rows).splitlines()
    header, row = lines[2], lines[4]
    assert header.split() == ["experiment", "metric", "paper", "run", "|err|"]
    assert header.index("metric") == row.index("MP relative to SM")
