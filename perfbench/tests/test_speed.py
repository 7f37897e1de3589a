from __future__ import annotations

import pytest

from gqbench import speed


def test_nearest_takes_the_closest_samples_on_both_sides():
    stamps = [1.0, 2.0, 3.0, 4.0, 5.0]
    values = [10, 20, 30, 40, 50]
    assert sorted(speed.nearest(stamps, values, 3.1, 3)) == [20, 30, 40]
    assert sorted(speed.nearest(stamps, values, 0.0, 2)) == [10, 20]
    assert sorted(speed.nearest(stamps, values, 9.0, 9)) == values


def test_factor_scales_to_the_reference_speed():
    reference = speed.SpeedReference()
    reference.stamps = [float(i) for i in range(10)]
    reference.times = [speed.REFERENCE_S * 2] * 5 + [speed.REFERENCE_S] * 5
    assert reference.factor(1.0) == pytest.approx(0.5)   # machine at half speed
    assert reference.factor(8.0) == pytest.approx(1.0)


def test_sampling_is_rate_limited_unless_forced():
    reference = speed.SpeedReference()
    reference.sample()
    reference.sample()
    assert len(reference.times) == 1
    reference.sample(force=True)
    assert len(reference.times) == 2
    assert all(t > 0 for t in reference.times)
