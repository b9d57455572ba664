"""Tests of the benchmark's statistics helpers.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import pytest

from perfbench import stats


def test_percentile_interpolates_like_numpy_linear():
    samples = [4.0, 1.0, 3.0, 2.0]
    assert stats.percentile(samples, 0) == 1.0
    assert stats.percentile(samples, 100) == 4.0
    assert stats.percentile(samples, 50) == 2.5
    assert stats.percentile(samples, 25) == pytest.approx(1.75)


@pytest.mark.parametrize(
    "n, level",
    [(1000, 99.0), (5000, 99.0), (200, 95.0), (160, 93.7), (100, 90.0), (80, 87.5), (20, 50.0), (19, 50.0)],
)
def test_tail_level_leaves_ten_samples_beyond(n, level):
    assert stats.supported_level(n) == level
    if level > 50.0:
        assert round(n * (100 - level) / 100, 9) >= stats.MIN_TAIL_SAMPLES


def test_tail_reports_value_level_and_count():
    samples = [float(i) for i in range(1, 101)]  # 1..100
    top = stats.tail(samples)
    assert (top.level, top.n) == (90.0, 100)
    assert top.value == pytest.approx(stats.percentile(samples, 90.0))
    assert sum(1 for s in samples if s > top.value) == 10
    assert top.describe("ms") == "p90=90.1 ms (n=100)"


def test_tail_never_exceeds_requested_level():
    assert stats.tail([1.0] * 100_000, wanted=99.0).level == 99.0
    assert stats.tail([1.0] * 100_000, wanted=95.0).level == 95.0


def test_empty_samples_are_rejected():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.lateness([], [])


def test_lateness_counts_only_running_behind():
    due = [0.0, 1.0, 2.0, 3.0]
    sent = [0.0005, 0.999, 2.010, 3.0]  # 0.5 ms late, early, 10 ms late, on time
    late = stats.lateness(due, sent)
    assert late.n == 4
    assert late.max_ms == pytest.approx(10.0)
    assert late.p50_ms == pytest.approx(0.25)
    assert late.p99.level == 50.0  # four samples support only the median


def test_lateness_requires_paired_times():
    with pytest.raises(ValueError):
        stats.lateness([0.0, 1.0], [0.0])
