"""Discrete fractional operators: quadrature exactness and identities."""

import math

import numpy as np
import pytest

from fracsteer.errors import (DomainError, GridMismatchError,
                              InsufficientDataError)
from fracsteer.fractional import (FracOrder, SampledFunction,
                                  build_singular_weights, convolution_kernel,
                                  frac_integral)
from fracsteer.gammafn import gamma


def _sampled(fn, n=256, t0=0.0, t1=1.0):
    dt = (t1 - t0) / n
    return SampledFunction(t0, dt, fn(t0 + dt * np.arange(n + 1)))


class TestFracOrder:
    def test_range(self):
        FracOrder(0.5)
        FracOrder(1.0)
        with pytest.raises(DomainError):
            FracOrder(0.0)
        with pytest.raises(DomainError):
            FracOrder(1.2)


class TestSingularWeights:
    def test_classical_trapezoid_at_alpha_one(self):
        w = build_singular_weights(1.0, 4, 0.25)
        assert np.allclose(w.weights, [0.125, 0.25, 0.25, 0.25, 0.125])

    def test_bare_kernel_mass(self):
        # sum of weights = t^alpha / alpha exactly
        for a in (0.3, 0.5, 0.8, 1.0):
            for n in (1, 7, 64):
                dt = 1.0 / n
                w = build_singular_weights(a, n, dt)
                assert w.apply(np.ones(n + 1)) == pytest.approx(1.0 / a, rel=1e-13)

    def test_single_interval_half_order(self):
        w = build_singular_weights(0.5, 1, 1.0)
        assert w.apply(np.ones(2)) == pytest.approx(2.0, rel=1e-13)

    def test_nonnegative(self):
        for a in (0.2, 0.5, 0.9):
            w = build_singular_weights(a, 32, 1.0 / 32)
            assert np.all(w.weights >= 0.0)

    def test_exact_on_linear_integrands(self):
        # int_0^t (t-s)^{a-1}(c0 + c1 s) ds has closed-form moments
        for a in (0.3, 0.5, 0.8, 1.0):
            n, t = 48, 1.0
            s = np.linspace(0.0, t, n + 1)
            w = build_singular_weights(a, n, t / n)
            got = w.apply(2.0 + 3.0 * s)
            exact = 2.0 * t ** a / a + 3.0 * (t ** (a + 1.0) / a
                                              - t ** (a + 1.0) / (a + 1.0))
            assert got == pytest.approx(exact, rel=1e-12)

    def test_sample_count_checked(self):
        w = build_singular_weights(0.5, 8, 0.125)
        with pytest.raises(InsufficientDataError):
            w.apply(np.ones(4))


class TestConvolutionKernel:
    def test_row_matches_dense_weights(self):
        kern = convolution_kernel(0.4, 16, 1.0 / 16)
        w = build_singular_weights(0.4, 16, 1.0 / 16)
        assert np.allclose(kern.row(16), w.weights)

    def test_row_bounds(self):
        kern = convolution_kernel(0.4, 8, 0.125)
        with pytest.raises(DomainError):
            kern.row(0)
        with pytest.raises(DomainError):
            kern.row(9)


class TestFracIntegral:
    def test_constant_half_order(self):
        f = _sampled(lambda t: np.ones_like(t))
        assert frac_integral(f, 0.5, 1.0) == pytest.approx(1.0 / gamma(1.5),
                                                           rel=1e-12)

    def test_alpha_one_is_plain_integral(self):
        f = _sampled(lambda t: 2.0 * np.ones_like(t))
        assert frac_integral(f, 1.0, 1.0) == pytest.approx(2.0, rel=1e-13)

    def test_linear_half_order(self):
        f = _sampled(lambda t: t)
        # I^{1/2} t = Gamma(2)/Gamma(2.5) t^{3/2}
        assert frac_integral(f, 0.5, 1.0) == pytest.approx(
            gamma(2.0) / gamma(2.5), rel=1e-12)

    def test_off_grid_time_rejected(self):
        f = _sampled(lambda t: t, n=64)
        with pytest.raises(GridMismatchError):
            frac_integral(f, 0.5, 0.51234)
        with pytest.raises(GridMismatchError):
            frac_integral(f, 0.5, 0.0)

    def test_bad_order_rejected(self):
        f = _sampled(lambda t: t, n=64)
        with pytest.raises(DomainError):
            frac_integral(f, 1.5, 0.5)

    def test_semigroup_of_integrals(self):
        # I^a (I^b f) = I^{a+b} f with observed order >= 1
        a, b = 0.4, 0.35
        errs = []
        for n in (64, 128):
            f = _sampled(np.sin, n=n)
            grid = f.grid()
            inner = np.zeros(n + 1)
            for m in range(1, n + 1):
                inner[m] = frac_integral(f, b, grid[m])
            nested = frac_integral(SampledFunction(0.0, f.dt, inner), a, 1.0)
            direct = frac_integral(f, a + b, 1.0)
            errs.append(abs(nested - direct))
        order = math.log2(errs[0] / errs[1])
        assert order >= 1.0
