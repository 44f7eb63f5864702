import pytest

from perfbench.stats import MIN_BEYOND, beyond, nearest_rank, quartile_spread, tail


def test_nearest_rank_picks_an_observed_sample():
    values = sorted([5.0, 1.0, 4.0, 2.0, 3.0])
    assert nearest_rank(values, 0.5) == 3.0
    assert nearest_rank(values, 0.2) == 1.0
    assert nearest_rank(values, 0.21) == 2.0
    assert nearest_rank(values, 1.0) == 5.0


def test_nearest_rank_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        nearest_rank([], 0.5)
    with pytest.raises(ValueError):
        nearest_rank([1.0], 0.0)
    with pytest.raises(ValueError):
        nearest_rank([1.0], 1.5)


def test_a_tail_needs_ten_samples_beyond_it():
    assert MIN_BEYOND == 10
    hundred = [float(i) for i in range(100)]
    assert beyond(100, 0.9) == 10
    assert tail(hundred, 0.9) == 89.0
    assert tail(hundred[:99], 0.9) is None
    assert tail(hundred, 0.99) is None
    thousand = [float(i) for i in range(1000)]
    assert tail(thousand, 0.99) == 989.0


def test_median_needs_no_tail_rule():
    assert nearest_rank([7.0], 0.5) == 7.0


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.0, 10.2, 9.8, 10.1, 9.9]
    import statistics

    q1, median, q3 = statistics.quantiles(values, n=4)
    assert quartile_spread(values) == pytest.approx((q3 - q1) / median)
