"""Gamma-function routine accuracy on the working range."""

import math

import numpy as np
import pytest

from fracsteer.gammafn import gamma, log_gamma, rgamma


def test_matches_reference_on_working_range():
    xs = np.linspace(0.05, 10.0, 400)
    for x in xs:
        assert gamma(x) == pytest.approx(math.gamma(x), rel=1e-13)


def test_integers_and_half_integers():
    assert gamma(1.0) == pytest.approx(1.0, rel=1e-14)
    assert gamma(2.0) == pytest.approx(1.0, rel=1e-14)
    assert gamma(5.0) == pytest.approx(24.0, rel=1e-14)
    assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
    assert gamma(1.5) == pytest.approx(0.5 * math.sqrt(math.pi), rel=1e-14)


def test_log_gamma_consistency():
    for x in (0.1, 0.7, 1.3, 4.2, 9.9, 30.0):
        assert log_gamma(x) == pytest.approx(math.lgamma(x), rel=1e-12, abs=1e-12)


def test_reciprocal():
    for x in (0.3, 1.0, 2.5, 8.0):
        assert rgamma(x) == pytest.approx(1.0 / math.gamma(x), rel=1e-13)


def test_large_arguments_up_to_the_double_limit():
    # Gamma stays finite up to x ~ 171.6; the Lanczos power alone overflows
    # from x ~ 142
    xs = np.concatenate([np.linspace(100.0, 171.0, 711), np.arange(140.0, 172.0)])
    for x in xs:
        assert gamma(x) == pytest.approx(math.gamma(x), rel=1e-13)
        assert rgamma(x) == pytest.approx(1.0 / math.gamma(x), rel=1e-13)
