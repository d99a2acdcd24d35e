"""The statistic behind ``op_ms``."""

import pytest

import run


def test_trimmed_mean_drops_a_fifth_at_each_end():
    # Ten rounds: the two fastest and the two slowest are left out.
    samples = [100.0, 1.0, 5.0, 4.0, 6.0, 3.0, 5.0, 4.0, 6.0, 0.5]
    assert run.trimmed_mean(samples) == pytest.approx((3 + 4 + 4 + 5 + 5 + 6) / 6)


def test_trimmed_mean_keeps_everything_when_too_few_to_trim():
    assert run.trimmed_mean([2.0, 4.0]) == 3.0
    assert run.trimmed_mean([7.0]) == 7.0
