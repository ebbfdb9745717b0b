"""Discrete fractional operators: quadrature exactness and identities."""

import math

import numpy as np
import pytest

from fracsteer.errors import DomainError
from fracsteer.fractional import _as_alpha, convolution_kernel


def _weights(alpha, n, dt):
    """Product-trapezoidal weights of the target time n * dt."""
    return convolution_kernel(alpha, n, dt).row(n)


def _rl_integral(alpha, values, dt):
    """Riemann-Liouville integral (I^alpha f)(n dt) of the samples f(k dt),
    k = 0..n: the weight row of the last node over Gamma(alpha)."""
    n = len(values) - 1
    return float(_weights(alpha, n, dt) @ values) / math.gamma(alpha)


def _grid(n=256):
    return np.arange(n + 1) / n


class TestFracOrder:
    def test_range(self):
        assert _as_alpha(0.5) == 0.5
        assert _as_alpha(1) == 1.0
        with pytest.raises(DomainError):
            _as_alpha(0.0)
        with pytest.raises(DomainError):
            _as_alpha(1.2)


class TestSingularWeights:
    def test_classical_trapezoid_at_alpha_one(self):
        assert np.allclose(_weights(1.0, 4, 0.25), [0.125, 0.25, 0.25, 0.25, 0.125])

    def test_bare_kernel_mass(self):
        # sum of weights = t^alpha / alpha exactly
        for a in (0.3, 0.5, 0.8, 1.0):
            for n in (1, 7, 64):
                w = _weights(a, n, 1.0 / n)
                assert w @ np.ones(n + 1) == pytest.approx(1.0 / a, rel=1e-13)

    def test_single_interval_half_order(self):
        assert _weights(0.5, 1, 1.0) @ np.ones(2) == pytest.approx(2.0, rel=1e-13)

    def test_nonnegative(self):
        for a in (0.2, 0.5, 0.9):
            assert np.all(_weights(a, 32, 1.0 / 32) >= 0.0)

    def test_exact_on_linear_integrands(self):
        # int_0^t (t-s)^{a-1}(c0 + c1 s) ds has closed-form moments
        for a in (0.3, 0.5, 0.8, 1.0):
            n, t = 48, 1.0
            s = np.linspace(0.0, t, n + 1)
            got = _weights(a, n, t / n) @ (2.0 + 3.0 * s)
            exact = 2.0 * t ** a / a + 3.0 * (t ** (a + 1.0) / a
                                              - t ** (a + 1.0) / (a + 1.0))
            assert got == pytest.approx(exact, rel=1e-12)


class TestConvolutionKernel:
    def test_row_independent_of_kernel_length(self):
        # the weights of target node m do not depend on the kernel length
        short = convolution_kernel(0.4, 16, 1.0 / 32)
        long = convolution_kernel(0.4, 32, 1.0 / 32)
        assert np.array_equal(short.row(16), long.row(16))

    def test_row_bounds(self):
        kern = convolution_kernel(0.4, 8, 0.125)
        with pytest.raises(DomainError):
            kern.row(0)
        with pytest.raises(DomainError):
            kern.row(9)


class TestFracIntegral:
    def test_constant_half_order(self):
        got = _rl_integral(0.5, np.ones(257), 1.0 / 256)
        assert got == pytest.approx(1.0 / math.gamma(1.5), rel=1e-12)

    def test_alpha_one_is_plain_integral(self):
        assert _rl_integral(1.0, np.full(257, 2.0), 1.0 / 256) == pytest.approx(
            2.0, rel=1e-13)

    def test_linear_half_order(self):
        # I^{1/2} t = Gamma(2)/Gamma(2.5) t^{3/2}
        assert _rl_integral(0.5, _grid(), 1.0 / 256) == pytest.approx(
            math.gamma(2.0) / math.gamma(2.5), rel=1e-12)

    def test_bad_order_rejected(self):
        with pytest.raises(DomainError):
            convolution_kernel(1.5, 64, 1.0 / 64)

    def test_semigroup_of_integrals(self):
        # I^a (I^b f) = I^{a+b} f with observed order >= 1
        a, b = 0.4, 0.35
        errs = []
        for n in (64, 128):
            f = np.sin(_grid(n))
            inner = np.zeros(n + 1)
            for m in range(1, n + 1):
                inner[m] = _rl_integral(b, f[:m + 1], 1.0 / n)
            nested = _rl_integral(a, inner, 1.0 / n)
            direct = _rl_integral(a + b, f, 1.0 / n)
            errs.append(abs(nested - direct))
        order = math.log2(errs[0] / errs[1])
        assert order >= 1.0
