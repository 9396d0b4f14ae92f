"""Percentile selection follows the ten-samples-beyond rule."""

import pytest

from bench import stats


@pytest.mark.parametrize("n, expected", [
    (1, 50.0), (3, 50.0), (19, 50.0), (20, 50.0), (39, 50.0),
    (40, 75.0), (99, 75.0),
    (100, 90.0), (199, 90.0),
    (200, 95.0), (999, 95.0),
    (1000, 99.0), (9999, 99.0),
    (10000, 99.9),
])
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected


def test_the_chosen_tail_really_has_ten_samples_beyond():
    for n in range(20, 3000, 7):
        pct = stats.tail_percentile(n)
        samples = list(range(n))
        beyond = sum(1 for s in samples if s > stats.percentile(samples, pct))
        assert beyond >= stats.SAMPLES_BEYOND, (n, pct, beyond)


def test_percentile_is_nearest_rank():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert stats.percentile(samples, 50) == 3.0
    assert stats.percentile(samples, 100) == 5.0
    assert stats.percentile(samples, 1) == 1.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_spread_is_the_drivers_quartile_rule():
    import statistics

    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.spread(values) == (q3 - q1) / statistics.median(values)
    assert stats.spread([10.0, 12.0, 11.0]) == pytest.approx(2.0 / 11.0)
