"""Probability-density and Mittag-Leffler kernel routines."""

import math

import mpmath as mp
import numpy as np
import pytest

from fracsteer import special
from fracsteer.errors import DomainError
from fracsteer.gammafn import gamma, rgamma
from fracsteer.special import (ML_NEG_Z_LIMIT, _wright_integral,
                               _wright_series_double, ml, ml_array,
                               s_alpha_route_quadrature,
                               t_alpha_route_quadrature, underflow_cutoff,
                               wright_moment, wright_pdf)


def _ml_series_mp(alpha, beta, z):
    # precision sized to the worst-case cancellation of the power series
    kstar = abs(z) ** (1.0 / alpha)
    dps = 60 + int(0.6 * kstar * math.log10(max(abs(z), 2.0)))
    terms = 200 + int(8 * kstar)
    with mp.workdps(dps):
        a, b, zz = mp.mpf(alpha), mp.mpf(beta), mp.mpf(z)
        total = mp.mpf(0)
        for k in range(terms):
            total += zz ** k / mp.gamma(a * k + b)
        return float(total)


class TestDensity:
    def test_half_order_closed_form(self):
        # zeta_{1/2}(theta) = pi^{-1/2} exp(-theta^2/4)
        for theta in np.linspace(0.05, 12.0, 60):
            exact = math.exp(-theta * theta / 4.0) / math.sqrt(math.pi)
            assert wright_pdf(0.5, theta) == pytest.approx(exact, rel=1e-8)

    def test_spot_value(self):
        assert wright_pdf(0.5, 1.0) == pytest.approx(
            math.exp(-0.25) / math.sqrt(math.pi), rel=1e-10)

    def test_nonpositive_argument_rejected(self):
        with pytest.raises(DomainError):
            wright_pdf(0.5, 0.0)
        with pytest.raises(DomainError):
            wright_pdf(0.5, -1.0)

    def test_nonnegative_everywhere(self):
        for a in (0.3, 0.5, 0.7, 0.9):
            for theta in np.linspace(0.01, 20.0, 200):
                assert wright_pdf(a, theta) >= 0.0

    def test_series_integral_agreement(self):
        # both evaluation routes overlap in the moderate-theta regime
        for a in (0.3, 0.6, 0.8):
            for theta in np.linspace(0.2, 3.0, 15):
                val, max_term = _wright_series_double(a, theta)
                if val is None or max_term > 1e4 * abs(val):
                    continue
                assert _wright_integral(a, theta) == pytest.approx(val,
                                                                   rel=1e-8)

    def test_underflow_cutoff(self):
        for a in (0.3, 0.7):
            cut = underflow_cutoff(a)
            assert wright_pdf(a, cut * 1.5) == 0.0
            assert wright_pdf(a, cut * 0.5) > 0.0

    def test_moments(self):
        # int theta^nu zeta_a(theta) dtheta = Gamma(1+nu)/Gamma(1+a*nu)
        assert wright_moment(0.7, 0.0) == pytest.approx(1.0, rel=1e-8)
        assert wright_moment(0.5, 1.0) == pytest.approx(
            gamma(2.0) / gamma(1.5), rel=1e-8)
        assert wright_moment(0.5, 2.0) == pytest.approx(
            gamma(3.0) / gamma(2.0), rel=1e-8)

    def test_normalization(self):
        from scipy.integrate import quad
        for a in (0.4, 0.85):
            total, _ = quad(lambda th: wright_pdf(a, th), 0.0,
                            underflow_cutoff(a, 45.0), limit=200)
            assert total == pytest.approx(1.0, abs=1e-6)


class TestMittagLeffler:
    def test_params_validation(self):
        for a, b, z in ((0.0, 1.0, -1.0), (1.5, 1.0, -1.0), (0.5, 0.0, -1.0),
                        (0.5, 1.0, -1.01 * ML_NEG_Z_LIMIT), (0.5, 1.0, 1e-300),
                        (1.0, 1.0, 0.5), (1.0, 2.0, 5.0), (0.4, 2.5, 1.0),
                        # past the series at alpha = 1, beta = 1.5 or 2.5
                        # reduces to 0.5, not to 1, and there is no integral
                        (1.0, 1.5, -20.0), (1.0, 2.5, -20.0)):
            with pytest.raises(DomainError):
                ml(a, b, z)
        with pytest.raises(DomainError, match=r"\[-10000, 0\]"):
            ml(0.5, 1.0, 6.0)
        assert ml(0.5, 1.0, 0.0) == pytest.approx(1.0, rel=1e-15)
        assert math.isfinite(ml(0.5, 1.0, -ML_NEG_Z_LIMIT))

    def test_exponential_case(self):
        for z in (-3.0, -1.0, -0.5, -1e-3, 0.0):
            assert ml(1.0, 1.0, z) == pytest.approx(math.exp(z), rel=1e-12)

    def test_classical_closed_forms(self):
        # E_{1,2}(z) = expm1(z)/z and E_{1,3}(z) = (expm1(z) - z)/z^2 past
        # the series, where beta reduces to the exp shortcut
        zs = -np.concatenate([np.geomspace(10.0 + 1e-9, 1e4, 200), [10.5625]])
        for z in zs:
            z = float(z)
            e12 = math.expm1(z) / z
            e13 = (math.expm1(z) - z) / (z * z)
            assert ml(1.0, 2.0, z) == pytest.approx(e12, rel=1e-15, abs=0.0)
            assert ml(1.0, 3.0, z) == pytest.approx(e13, rel=1e-15, abs=0.0)

    def test_half_order_closed_form(self):
        # E_{1/2,1}(-x) = exp(x^2) erfc(x)
        for x in (0.25, 1.0, 2.0, 5.0):
            exact = math.exp(x * x) * math.erfc(x)
            assert ml(0.5, 1.0, -x) == pytest.approx(exact, rel=1e-9)

    def test_value_at_zero(self):
        for a, b in ((0.3, 0.3), (0.5, 1.0), (0.9, 1.9), (0.7, 2.4)):
            assert ml(a, b, 0.0) == pytest.approx(rgamma(b), rel=1e-13)

    def test_monotone_decay_on_negative_axis(self):
        for a in (0.4, 0.7, 1.0):
            xs = np.linspace(0.0, 40.0, 300)
            vals = ml_array(a, 1.0, -xs)
            assert np.all(np.diff(vals) <= 1e-15)
            assert np.all(vals > 0.0)
            assert vals[0] == pytest.approx(1.0, rel=1e-14)

    def test_integral_route_accuracy(self):
        # the negative-axis integral route matches a high-precision series
        from fracsteer.special import _ml_integral_neg
        for a in (0.4, 0.6, 0.85):
            for b in (a, 1.0, 1.0 + 0.5 * a):
                for x in np.linspace(2.0, 5.0, 7):
                    ref = _ml_series_mp(a, b, -x)
                    assert _ml_integral_neg(a, b, -x) == pytest.approx(
                        ref, rel=1e-10)

    def test_large_beta_recurrence(self):
        # values for beta >= 1 + alpha match a high-precision series
        for a, b, z in ((0.5, 1.6, -8.0), (0.7, 2.4, -15.0),
                        (0.4, 1.5, -5.0), (0.9, 2.8, -40.0)):
            ref = _ml_series_mp(a, b, z)
            assert ml(a, b, z) == pytest.approx(ref, rel=1e-9)

    def test_array_wrapper(self):
        xs = np.array([0.0, 0.5, 3.0, 50.0])
        vals = ml_array(0.6, 0.6, -xs)
        for x, v in zip(xs, vals):
            assert v == pytest.approx(ml(0.6, 0.6, -x), rel=1e-13)


class TestMemoizedArray:
    @pytest.mark.parametrize("shape", [(), (5,), (3, 4)])
    def test_bitwise_equal_to_scalar_calls(self, shape):
        xs = np.linspace(0.0, 60.0, int(np.prod(shape))).reshape(shape)
        for a, b in ((0.5, 1.0), (0.7, 0.7), (0.5, 2.5)):
            vals = ml_array(a, b, -xs)
            assert vals.shape == shape
            expect = np.array([ml(a, b, -x) for x in xs.ravel()]).reshape(shape)
            assert np.array_equal(vals, expect)

    def test_result_is_read_only(self):
        vals = ml_array(0.6, 1.0, -np.array([0.5, 2.0]))
        with pytest.raises(ValueError):
            vals[0] = 0.0
        assert ml_array(0.6, 1.0, -np.array([0.5, 2.0]))[0] == ml(0.6, 1.0, -0.5)

    def test_input_mutation_does_not_leak(self):
        z = -np.array([0.5, 2.0, 7.0])
        first = ml_array(0.55, 1.0, z)
        kept = first.copy()
        z[1] = -3.0
        assert np.array_equal(first, kept)
        assert ml_array(0.55, 1.0, z)[1] == ml(0.55, 1.0, -3.0)
        assert np.array_equal(ml_array(0.55, 1.0, -np.array([0.5, 2.0, 7.0])), kept)

    def test_repeat_call_skips_evaluation(self, monkeypatch):
        z = -np.array([0.25, 1.5, 9.0])
        special._ml_values.cache_clear()
        calls = [0]
        inner = special.ml

        def counting(*args):
            calls[0] += 1
            return inner(*args)

        monkeypatch.setattr(special, "ml", counting)
        first = ml_array(0.45, 0.45, z)
        assert calls[0] == 3
        assert np.array_equal(ml_array(0.45, 0.45, z.copy()), first)
        assert calls[0] == 3
        ml_array(0.45, 1.0, z)
        assert calls[0] == 6


class TestRouteQuadratures:
    def test_match_direct_evaluation(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.uniform(0.3, 0.95)
            x = rng.uniform(0.1, 30.0)
            assert s_alpha_route_quadrature(a, x) == pytest.approx(
                ml(a, 1.0, -x), abs=1e-7, rel=1e-7)
            assert t_alpha_route_quadrature(a, x) == pytest.approx(
                ml(a, a, -x), abs=1e-7, rel=1e-7)
