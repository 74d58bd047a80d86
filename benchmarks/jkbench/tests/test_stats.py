import statistics

import pytest

from .. import stats


def test_percentile_is_nearest_rank_on_sorted_samples():
    ordered = list(range(1, 101))
    assert stats.percentile(ordered, 0.50) == 51
    assert stats.percentile(ordered, 0.99) == 100
    assert stats.percentile([7], 0.99) == 7
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)


def test_a_percentile_needs_ten_samples_beyond_it():
    assert stats.samples_needed(0.99) == 1000
    assert stats.samples_needed(0.9) == 100
    assert stats.samples_needed(0.999) == 10000


def test_window_aggregation_reports_median_and_spread():
    summary = stats.aggregate([10.0, 30.0, 20.0, 1000.0])
    assert summary["value"] == 25.0  # the median shrugs off one bad window
    assert (summary["min"], summary["max"]) == (10.0, 1000.0)
    assert summary["windows"] == [10.0, 30.0, 20.0, 1000.0]


def test_spread_share_is_the_drivers_interquartile_figure():
    values = [100, 102, 98, 101, 99, 103, 97, 100, 104, 96]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.spread_share(values) == pytest.approx(
        (q3 - q1) / statistics.median(values))
    assert stats.spread_share([5.0]) == 0.0
