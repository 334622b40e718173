import pytest

from benchlib import stats


@pytest.mark.parametrize("q, needed", [(50, 20), (90, 100), (95, 200), (99, 1000)])
def test_percentile_needs_ten_samples_beyond(q, needed):
    assert stats.min_samples(q) == needed
    values = list(range(needed))
    stats.percentile(values, q)  # exactly enough
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(values[:-1], q)


def test_samples_beyond_counts_the_tail():
    assert stats.samples_beyond(1000, 99) == 10
    assert stats.samples_beyond(999, 99) == 9
    assert stats.samples_beyond(200, 95) == 10


def test_percentile_interpolates_between_order_statistics():
    values = list(range(1, 1001))  # 1..1000
    assert stats.percentile(values, 50) == pytest.approx(500.5)
    assert stats.percentile(values, 99) == pytest.approx(990.01)
    assert stats.percentile(list(reversed(values)), 99) == pytest.approx(990.01)


def test_chunks_are_consecutive_and_at_least_chunk_sized():
    values = list(range(650))
    assert [len(chunk) for chunk in stats.chunks(values)] == [217, 216, 217]
    assert sum(stats.chunks(values), []) == values
    assert stats.chunks(values[:150]) == [values[:150]]


def test_spread_matches_statistics_quantiles():
    summary = stats.spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert summary["median"] == 3.0
    assert (summary["q1"], summary["q3"]) == (1.5, 4.5)
    assert summary["iqr"] == 3.0
    assert stats.spread([2.0])["iqr"] == 0.0
    assert stats.spread([])["n"] == 0
