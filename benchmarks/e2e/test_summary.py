"""The percentile rule: the median, and the highest percentile with at
least ten samples beyond it."""

import pytest

from benchmarks.e2e.summary import describe, percentile, spread, tail_percentile


@pytest.mark.parametrize(
    "n, expected",
    [(0, None), (19, None), (20, 50.0), (40, 75.0), (100, 90.0), (199, 90.0),
     (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_describe_reports_median_tail_and_count():
    samples = [float(i) for i in range(200, 0, -1)]
    summary = describe(samples)
    assert summary == {"n": 200, "p50": 100.5, "tail_p": 95.0, "tail": 190.0}
    assert sum(s > summary["tail"] for s in samples) == 10


def test_describe_omits_a_tail_it_cannot_support():
    assert describe([3.0, 1.0, 2.0]) == {"n": 3, "p50": 2.0, "tail_p": None, "tail": None}
    assert describe([])["p50"] is None


def test_percentile_is_nearest_rank():
    assert percentile([5, 1, 4, 2, 3], 50) == 3
    assert percentile([5, 1, 4, 2, 3], 100) == 5
    assert percentile([5, 1, 4, 2, 3], 0) == 1


def test_spread_is_quartile_distance_over_median():
    median, rel = spread([10.0, 10.0, 11.0, 12.0, 9.0, 10.0, 10.0, 10.0])
    assert median == 10.0
    assert rel == pytest.approx(0.075)
    assert spread([4.0, 6.0]) == (5.0, 0.4)
