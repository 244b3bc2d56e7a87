import statistics

import pytest

from perfbench.stats import latency_summary, percentile, tail_percentile


def test_percentile_interpolates_like_the_inclusive_quantiles():
    xs = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6]
    assert percentile(xs, 0) == 1.0
    assert percentile(xs, 100) == 9.0
    assert percentile(xs, 50) == statistics.median(xs)
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    assert percentile(xs, 25) == pytest.approx(q1)
    assert percentile(xs, 75) == pytest.approx(q3)


def test_percentile_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        percentile([], 50)


@pytest.mark.parametrize("n, want", [(1000, 90), (100, 90), (99, 89), (40, 75), (20, 50),
                                     (11, 9), (10, None), (0, None)])
def test_tail_percentile_keeps_ten_samples_beyond(n, want):
    assert tail_percentile(n) == want
    if want is not None:
        assert n * (100 - want) / 100 >= 10


def test_latency_summary_reports_the_sample_count_and_no_tail_below_the_median():
    full = latency_summary([float(i) for i in range(100)])
    assert full["n"] == 100 and full["tail_pct"] == 90
    assert full["p50"] == pytest.approx(49.5)
    few = latency_summary([1.0] * 15)
    assert few == {"n": 15, "p50": 1.0}  # p33 would say nothing beyond the median
    assert latency_summary([]) == {"n": 0}
