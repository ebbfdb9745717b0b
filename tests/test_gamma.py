"""Accuracy of 1/Gamma and log Gamma against mpmath at 40 digits."""

import math

import mpmath as mp
import numpy as np
import pytest

from fracsteer.gammafn import log_gamma, rgamma


def _rel(value, ref) -> float:
    return float(abs((value - ref) / ref))


def test_log_gamma_consistency():
    for x in (0.1, 0.7, 1.3, 4.2, 9.9, 30.0):
        assert log_gamma(x) == pytest.approx(math.lgamma(x), rel=1e-12, abs=1e-12)


def test_reciprocal():
    for x in (0.3, 1.0, 2.5, 8.0):
        assert rgamma(x) == pytest.approx(1.0 / math.gamma(x), rel=1e-13)


def test_reciprocal_on_the_positive_range():
    # (10, 171] is where a Lanczos Gamma loses accuracy linearly in x
    xs = np.concatenate([np.linspace(0.01, 10.0, 400), np.linspace(10.0, 171.0, 645),
                         np.arange(140.0, 172.0)])
    worst = 0.0
    with mp.workdps(40):
        for x in xs:
            worst = max(worst, _rel(rgamma(float(x)), mp.rgamma(mp.mpf(float(x)))))
    assert worst <= 1e-15


def test_large_arguments_up_to_the_double_limit():
    # Gamma stays finite up to x ~ 171.6, where 1/Gamma is subnormal
    xs = np.concatenate([np.linspace(100.0, 171.0, 711), np.arange(140.0, 172.0)])
    for x in xs:
        assert rgamma(x) == pytest.approx(1.0 / math.gamma(x), rel=1e-13)


def test_reflection_next_to_the_poles():
    # the poles at -n keep full relative accuracy a few ulps away
    worst = 0.0
    for n in range(1, 21):
        offsets = [k * math.ulp(float(n)) for k in (-3, -2, -1, 1, 2, 3)]
        for x in [-n + d for d in offsets] + [-n - 1e-7, -n + 1e-7]:
            with mp.workdps(40):
                worst = max(worst, _rel(rgamma(x), mp.rgamma(mp.mpf(x))))
    assert worst <= 1e-15


def test_poles_are_zeros():
    for x in (0.0, -1.0, -2.0, -20.0):
        assert rgamma(x) == 0.0


@pytest.mark.parametrize("x", [5e-309, 1e-320, -5e-309, -1e-320])
def test_next_to_zero_where_gamma_overflows(x):
    # 1/Gamma(x) = x / Gamma(1 + x) rounds to x
    assert rgamma(x) == x
