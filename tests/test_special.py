"""Probability-density and Mittag-Leffler kernel routines."""

import math
import os
import subprocess
import sys
import warnings
from unittest import mock

import mpmath as mp
import numpy as np
import pytest

from fracsteer import special, verify
from fracsteer.errors import DomainError
from fracsteer.special import (_wright_integral, _wright_series_double,
                               gauss_legendre, ml, ml_array, underflow_cutoff,
                               wright_pdf)
from fracsteer.verify import (density_rule, route_quadrature, theta_rule,
                              wright_moment)


_SERIES_MP_MAX_TERMS = 10_000
SRC = os.path.dirname(os.path.dirname(special.__file__))
_NORMAL_MIN = sys.float_info.min


def _gauss_legendre_oracle(n, s0):
    """The node of the order-n Gauss-Legendre rule on [0, 1] next to s0,
    and its weight, by Newton's method on the Legendre recurrence at 40
    digits."""
    with mp.workdps(40):
        x = 2 * mp.mpf(float(s0)) - 1
        for _ in range(3):
            p0, p1 = mp.mpf(1), x
            for j in range(2, n + 1):
                p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
            dp = n * (p0 - x * p1) / (1 - x * x)
            x -= p1 / dp
        return (x + 1) / 2, 1 / ((1 - x * x) * dp * dp)


def _ml_series_mp(alpha, beta, z):
    """E_{alpha,beta}(z) by its power series in mpmath.

    The log-magnitudes of the terms, from lgamma in doubles, are concave
    in k: they rise to one peak and fall.  The sum runs past the peak
    until the terms drop 30 digits below min(largest term, 1), at 40
    digits plus the decimal exponent of the largest term, which covers
    its cancellation; a series longer than the term cap raises instead of
    returning a partial sum.
    """
    if z == 0.0:
        return float(mp.rgamma(beta))
    ln_z, ln_10 = math.log(abs(z)), math.log(10.0)

    def ln_term(k):
        return k * ln_z - math.lgamma(alpha * k + beta)

    peak, terms = ln_term(0), 1
    while ln_term(terms) >= min(peak, 0.0) - 30 * ln_10:
        peak = max(peak, ln_term(terms))
        terms += 1
        if terms > _SERIES_MP_MAX_TERMS:
            raise ValueError(f"E_{{{alpha},{beta}}}({z}): series longer than "
                             f"{_SERIES_MP_MAX_TERMS} terms")
    with mp.workdps(40 + max(0, math.ceil(peak / ln_10))):
        a, b, zz = mp.mpf(alpha), mp.mpf(beta), mp.mpf(z)
        return float(mp.fsum(zz ** k / mp.gamma(a * k + b) for k in range(terms)))


def _wright_integral_quad(alpha, theta):
    """The stable-law integral of ``_wright_integral`` by adaptive
    ``scipy.integrate.quad`` (its former production route), as an oracle."""
    one = 1.0 - alpha
    ratio = alpha / one
    x = theta ** (1.0 / one)

    def f(u):
        if u <= 0.0:
            ln_a = math.log(special._tail_exponent_scale(alpha))
        elif u >= math.pi:
            return 0.0
        else:
            ln_a = (ratio * math.log(math.sin(alpha * u))
                    + math.log(math.sin(one * u))
                    - math.log(math.sin(u)) / one)
        if ln_a > 690.0:
            return 0.0
        a_val = math.exp(ln_a)
        e = x * a_val
        return 0.0 if e > 700.0 else a_val * math.exp(-e)

    from scipy.integrate import quad

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        val, _ = quad(f, 0.0, math.pi, epsabs=1e-300, epsrel=1e-11, limit=200)
    return theta ** ratio * val / (one * math.pi)


def _integral_route_points(alphas, n):
    """(alpha, theta) at which ``wright_pdf`` takes the stable-law integral,
    on n equispaced thetas below the underflow cutoff."""
    points = []
    for a in alphas:
        cut = underflow_cutoff(a)
        with mock.patch.object(special, "_wright_integral",
                               wraps=special._wright_integral) as spy:
            for theta in np.linspace(cut / n, cut, n, endpoint=False):
                wright_pdf(a, float(theta))
        points += [c.args for c in spy.call_args_list]
    return points


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
            math.gamma(2.0) / math.gamma(1.5), rel=1e-8)
        assert wright_moment(0.5, 2.0) == pytest.approx(
            math.gamma(3.0) / math.gamma(2.0), rel=1e-8)

    def test_normalization(self):
        from scipy.integrate import quad
        for a in (0.4, 0.85):
            total, _ = quad(lambda th: wright_pdf(a, th), 0.0,
                            underflow_cutoff(a, 45.0), limit=200)
            assert total == pytest.approx(1.0, abs=1e-6)

    def _check_integral_route(self, points):
        # the worst relative error on the full grid is 6.5e-12, at alpha =
        # 0.99 next to the cutoff, where theta^{1/(1-a)} A(u) ~ 600 turns
        # rounding of ln A into relative error of the value
        checked = 0
        for a, theta in points:
            ref = _wright_integral_quad(a, theta)
            if ref >= 1e-290:
                checked += 1
                err = abs(_wright_integral(a, theta) - ref)
                assert err <= 1e-11 * ref, (a, theta)
        return checked

    def test_integral_route_matches_quadrature(self):
        points = _integral_route_points((0.7, 0.99), 100)
        assert self._check_integral_route(points) == 82

    @pytest.mark.slow
    def test_integral_route_matches_quadrature_grid(self):
        points = _integral_route_points((0.3, 0.5, 0.7, 0.9, 0.95, 0.99), 2000)
        assert self._check_integral_route(points) > 5000

    def test_gauss_legendre_is_shared_and_read_only(self):
        s, w = gauss_legendre(64)
        assert gauss_legendre(64)[0] is s
        assert w.sum() == pytest.approx(1.0, rel=1e-14)
        for arr in (s, w):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    @pytest.mark.parametrize("n", [64, 256, 400])
    def test_gauss_legendre_against_oracle(self, n):
        # every rule the package builds: the Wright integral (256), the
        # negative-axis panels and the theta rule (64), shape projection (400)
        s, w = gauss_legendre(n)
        for i in (0, 1, n // 4, n // 2, 3 * n // 4, n - 2, n - 1):
            node, weight = _gauss_legendre_oracle(n, s[i])
            assert abs(float(s[i] - node)) <= 2e-16, (n, i)
            assert abs(float(w[i] / weight - 1)) <= 1e-11, (n, i)

    @pytest.mark.parametrize("n", [1, 2, 7, 64, 256, 400])
    def test_gauss_legendre_exact_and_symmetric(self, n):
        s, w = gauss_legendre(n)
        assert np.all(np.diff(s) > 0.0) and 0.0 < s[0] and s[-1] < 1.0
        assert np.array_equal(w, w[::-1])
        assert np.max(np.abs(s + s[::-1] - 1.0)) <= 2.2e-16
        # int_0^1 s^k ds = 1 / (k + 1) for every k <= 2n - 1
        for k in sorted({0, 1, n, 2 * n - 2, 2 * n - 1}):
            assert w @ s ** k == pytest.approx(1.0 / (k + 1), rel=1e-13), k

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                        reason="needs per-thread CPU times from /proc")
    def test_building_rules_leaves_the_blas_pool_asleep(self):
        # a LAPACK call would wake the BLAS worker threads, which then
        # spin for about 0.1 s of CPU with nothing to do
        code = ("import glob, os, time\n"
                "from importlib import resources\n"
                "def others():\n"
                "    ticks = 0\n"
                "    for path in glob.glob('/proc/self/task/*/stat'):\n"
                "        if int(path.split('/')[-2]) != os.getpid():\n"
                "            with open(path) as f:\n"
                "                fields = f.read().rsplit(')', 1)[1].split()\n"
                "            ticks += int(fields[11]) + int(fields[12])\n"
                "    return ticks / os.sysconf('SC_CLK_TCK')\n"
                "import fracsteer.cli\n"
                "from fracsteer.config import parse_config\n"
                "from fracsteer.special import gauss_legendre\n"
                "time.sleep(0.3)\n"
                "before = others()\n"
                "for n in (64, 256, 400):\n"
                "    gauss_legendre(n)\n"
                "parse_config((resources.files('fracsteer') / 'data'"
                " / 'default.cfg').read_text())\n"
                "time.sleep(0.3)\n"
                "print(others() - before)\n")
        env = dict(os.environ, PYTHONPATH=SRC)
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60,
                              check=True)
        assert float(done.stdout) <= 0.02

    def test_theta_rule_closed_form(self):
        # int_0^c e^{-th^2/4} / sqrt(pi) dth = erf(c/2)
        for c in (0.5, 2.0, 6.0, 13.5, 30.0):
            th, w = theta_rule(c)
            got = w @ (np.exp(-th * th / 4.0) / math.sqrt(math.pi))
            assert abs(got - math.erf(c / 2.0)) <= 1e-13


_BAND_ALPHAS = (0.9991, 0.9995, 0.9999, 0.99999)


class TestMittagLeffler:
    def test_params_validation(self):
        for a, b, z in ((0.0, 1.0, -1.0), (1.5, 1.0, -1.0), (0.5, 0.0, -1.0),
                        (0.5, 1.0, -math.inf), (0.5, 1.0, math.nan),
                        (0.5, 1.0, 1e-300), (1.0, 1.0, 0.5), (1.0, 2.0, 5.0),
                        (0.4, 2.5, 1.0),
                        # past the series at alpha = 1, beta = 1.5 or 2.5
                        # reduces to 0.5, not to 1, and there is no integral
                        (1.0, 1.5, -20.0), (1.0, 2.5, -20.0)):
            with pytest.raises(DomainError):
                ml(a, b, z)
        with pytest.raises(DomainError, match=r"\(-inf, 0\]"):
            ml(0.5, 1.0, 6.0)
        assert ml(0.5, 1.0, 0.0) == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("a", [0.3, 0.5, 0.9, 0.999, 0.9995, 0.99999, 1.0])
    def test_most_negative_double_runs(self, a):
        # every route reaches the end of the axis with no numpy warning
        z = -sys.float_info.max
        for b in (a, 1.0, a + 1.0, a + 2.0):
            assert 0.0 <= ml(a, b, z) < 1e-307
            assert ml_array(a, b, [z])[0] == ml(a, b, z)

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
            assert ml(a, b, 0.0) == pytest.approx(1.0 / math.gamma(b), rel=1e-13)

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

    # 0.999 < alpha < 1, at the beta that ml sends after its reduction;
    # worst relative error on the full grid 7.8e-15 up to alpha = 0.9995,
    # 7.7e-14 at 0.9999 and 5.6e-13 at 0.99999, where the dip of the
    # denominator is 3e-5 wide relative to its place and node rounding shows
    @staticmethod
    def _check_band(a, xs):
        for b in (a, 1.0, 2.0 - a):
            for x in xs:
                ref = _ml_oracle(a, b, -x)
                err = abs(special._ml_integral_neg(a, b, -x) - ref)
                assert err <= 5e-12 * abs(ref), (a, b, x)

    @pytest.mark.parametrize("a", _BAND_ALPHAS)
    def test_integral_route_accuracy_in_its_band(self, a):
        self._check_band(a, (2.0, 1e4))

    @pytest.mark.slow
    @pytest.mark.parametrize("a", _BAND_ALPHAS)
    def test_integral_route_band_grid(self, a):
        self._check_band(a, (2.0, 5.0, 10.0, 50.0, 300.0, 1000.0, 1e4))

    @pytest.mark.parametrize("a", _BAND_ALPHAS)
    def test_integral_route_past_the_double_square_root(self, a):
        # (x c)^2 overflows from x ~ 1e154; at 1.7e308 every value is
        # subnormal, so one unit of 2^-1074 is allowed besides 1e-15
        for b in (a, 1.0, 1.5, 2.0 - a):
            for x in (1e200, 1.7e308):
                ref = _ml_asymptotic_mp(a, b, -x)
                got = special._ml_integral_neg(a, b, -x)
                assert abs(got - ref) <= 1e-15 * abs(ref) + 1e-323, (a, b, x)

    def test_large_beta_recurrence(self):
        # values for beta >= 1 + alpha match a high-precision series
        for a, b, z in ((0.5, 1.6, -8.0), (0.7, 2.4, -15.0),
                        (0.4, 1.5, -5.0), (0.9, 2.8, -40.0)):
            ref = _ml_series_mp(a, b, z)
            assert ml(a, b, z) == pytest.approx(ref, rel=1e-9)

    def test_small_alpha_reduction(self):
        # at alpha = 0.0009 the beta >= 1 + alpha reduction takes about 2,200
        # steps, past the interpreter's recursion limit; references from
        # _ml_oracle_mp at 40 digits (with a raised recursion limit)
        for b, z, ref in ((1.0009, -20.0, 0.047620226700092985),
                          (2.0009, -300.0, 0.0033222549384861796)):
            assert ml(0.0009, b, z) == pytest.approx(ref, rel=1e-15)

    @pytest.mark.parametrize("a, b", [(1e-300, 1.0), (1e-4, 2.0001)])
    def test_reduction_gives_up_past_its_level_cap(self, a, b):
        # 1 + 1e-300 rounds to 1, so there no step moves beta; at 1e-4
        # beta = a + 2 needs about 10,000 steps
        with pytest.raises(DomainError, match="levels"):
            ml(a, b, -20.0)

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

    def test_repeat_call_skips_evaluation(self):
        z = -np.array([0.25, 1.5, 9.0])
        special._ml_values.cache_clear()
        first = ml_array(0.45, 0.45, z)
        assert special._ml_values.cache_info().misses == 1
        assert np.array_equal(ml_array(0.45, 0.45, z.copy()), first)
        assert special._ml_values.cache_info().misses == 1
        ml_array(0.45, 1.0, z)
        assert special._ml_values.cache_info().misses == 2


def _ml_oracle(alpha, beta, z):
    """E_{alpha,beta}(z), z < 0: the mpmath power series for |z| <= 1, and
    past it the negative-axis integral at 40 digits.

    The substitution w = u^p, p = 1/(alpha - beta + 1), absorbs the
    w^(alpha - beta) endpoint factor, which tanh-sinh quadrature does not
    resolve on its own; beta >= 1 + alpha goes through the recurrence
    E_{a,b}(z) = (E_{a,b-a}(z) - 1/Gamma(b-a)) / z, in mpmath.  Each step
    of it loses log10(1/|z|) digits, which is why small |z| takes the
    series.
    """
    if abs(z) <= 1.0:
        return _ml_series_mp(alpha, beta, z)
    with mp.workdps(40):
        return float(_ml_oracle_mp(mp.mpf(alpha), mp.mpf(beta), -mp.mpf(z)))


def _ml_oracle_mp(a, b, x):
    if b >= 1 + a:
        return (_ml_oracle_mp(a, b - a, x) - mp.rgamma(b - a)) / -x
    p = 1 / (a - b + 1)
    s1, s2, c = mp.sinpi(1 - b), mp.sinpi(1 - b + a), mp.cospi(a)

    def f(u):
        w = u ** p
        if w > 1000:
            return mp.mpf(0)
        wa = w ** a
        return mp.exp(-w) * (wa * s1 + x * s2) / (wa * wa + 2 * x * wa * c + x * x)

    # break at the dip of the denominator near w = x^(1/a) and where e^-w fades
    ws = sorted({mp.mpf(1), mp.mpf(40), mp.mpf(300), x ** (1 / a)})
    pts = [mp.mpf(0)] + [w ** (1 / p) for w in ws if w < 2000] + [mp.inf]
    return p * mp.quad(f, pts) / mp.pi


def _ml_asymptotic_mp(alpha, beta, z):
    """E_{alpha,beta}(z) for z <= -1e4 by the large-|z| expansion
    -sum_k z^-k / Gamma(beta - alpha k), with 40-digit coefficients.

    The sum is truncated at its smallest term, or once a term falls 45
    digits below the first; a coefficient that is exactly zero (a pole of
    Gamma) is skipped.  The series is asymptotic, and at these arguments
    the truncation error and the exponentially small part it misses are
    both far below double rounding, so this reaches where ``_ml_series_mp``
    cannot.
    """
    with mp.workdps(40):
        a, b, w = mp.mpf(alpha), mp.mpf(beta), 1 / mp.mpf(z)
        terms = []
        for k in range(1, 1000):
            term = mp.rgamma(b - a * k) * w ** k
            if term == 0:
                continue
            if terms and (abs(term) > abs(terms[-1])
                          or abs(term) < mp.mpf(10) ** -45 * abs(terms[0])):
                return float(-mp.fsum(terms))
            terms.append(term)
    raise ValueError(f"E_{{{alpha},{beta}}}({z}): no smallest term in 1000")


_FAR_ALPHAS = (0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999, 0.9991, 0.9995, 0.9999,
               0.99999)


class TestWholeNegativeAxis:
    # worst relative error of ``ml`` on 200 points per (alpha, beta):
    # 1.5e-15 (alpha = 0.7) up to 0.999, and 6.4e-16 in the band past it
    @staticmethod
    def _check(points):
        checked = 0
        for a in _FAR_ALPHAS:
            for b in (a, 1.0, a + 1.0, a + 2.0):
                for x in np.geomspace(1e4, 1e300, points):
                    ref = _ml_asymptotic_mp(a, b, -float(x))
                    got = ml(a, b, -float(x))
                    assert math.isfinite(got)
                    if abs(ref) >= _NORMAL_MIN:
                        checked += 1
                        assert abs(got - ref) <= 1e-12 * abs(ref), (a, b, x)
        return checked

    def test_oracle_slice(self):
        assert self._check(25) == 966

    @pytest.mark.slow
    def test_oracle_grid(self):
        assert self._check(200) == 7706

    def test_oracle_matches_the_integral_at_the_seam(self):
        # at |z| = 1e4 the expansion oracle meets the 40-digit integral
        for a, b in ((0.3, 1.0), (0.9, 0.9), (0.9995, 1.0)):
            assert _ml_asymptotic_mp(a, b, -1e4) == pytest.approx(
                _ml_oracle(a, b, -1e4), rel=1e-15)


class TestOracle:
    def test_series_runs_past_its_peak(self):
        # the terms of E_{0.1,2.1}(-1.5) peak near 1e22 at k ~ 560; a sum
        # sized from |z|^{1/alpha} stopped at k = 660 and returned 1.48e21
        assert _ml_series_mp(0.1, 2.1, -1.5) == pytest.approx(
            0.3932964181501194, rel=1e-15)
        assert _ml_oracle(0.1, 2.1, -1.5) == pytest.approx(
            0.3932964181501194, rel=1e-15)
        # at -3.0 the peak lies near k = 590,000, past the term cap
        with pytest.raises(ValueError):
            _ml_series_mp(0.1, 2.1, -3.0)

    def test_small_argument_past_the_recurrence(self):
        # at alpha = 0.1, beta = 2.1 the recurrence takes ten steps; 80-digit
        # series values, which the integral route missed by a factor of
        # 1060 at -1e-4 and by 1.3e-9 at -1e-3
        for z, ref in ((-1e-4, 0.9554883446671222), (-1e-3, 0.9546723490863676)):
            assert _ml_oracle(0.1, 2.1, z) == pytest.approx(ref, rel=1e-15)
            assert ml(0.1, 2.1, z) == pytest.approx(ref, rel=1e-14)
        # the series and the integral route meet at |z| = 1
        with mp.workdps(40):
            integral = float(_ml_oracle_mp(mp.mpf(0.1), mp.mpf(2.1), mp.mpf(1)))
        assert integral == pytest.approx(_ml_oracle(0.1, 2.1, -1.0), rel=1e-15)


def _asymptotic_cases(alphas, zs):
    """(alpha, beta, z) for beta in {a, 1, a+1, a+2}: z from ``zs`` where
    the expansion takes it, and z at the expansion's reach."""
    cases = []
    for a in alphas:
        for b in (a, 1.0, a + 1.0, a + 2.0):
            reach = special._asymptotic_plan(a, b)[1]
            cases += [(a, b, z) for z in (-reach, *zs) if -z >= reach]
    return cases


class TestAsymptoticBranch:
    def _check(self, cases):
        worst = 0.0
        for a, b, z in cases:
            got = ml(a, b, z)
            ref = _ml_oracle(a, b, z)
            worst = max(worst, abs(got - ref) / abs(ref))
        assert worst <= 1e-13

    def test_oracle_slice(self):
        cases = _asymptotic_cases((0.3, 0.999), (-50.0, -1e4, -1e8))
        assert len(cases) == 30
        self._check(cases)

    @pytest.mark.slow
    def test_oracle_grid(self):
        cases = _asymptotic_cases(
            (0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999),
            (-10.0, -20.0, -50.0, -1e3, -1e4, -1e6, -1e8))
        assert len(cases) == 190
        self._check(cases)

    def test_remainder_bound_holds_below_the_reach(self):
        # |E - S_K| <= Gamma(1 - b + a (K+1)) / (pi s x^(K+1)), s = sin(pi a)
        # past a = 1/2, where the truncation error is far above rounding
        # (without the 1/s factor it fails from alpha = 0.9); at the reach
        # the bound is below double rounding of E
        terms = special._ASYMPTOTIC_TERMS
        for a in (0.6, 0.9, 0.999):
            for b in (a, 1.0, a + 2.0):
                coeffs, reach = special._asymptotic_plan(a, b)
                top = math.gamma(1.0 - b + a * (terms + 1)) / (math.pi * math.sin(math.pi * a))
                for x in (0.4 * reach, 0.6 * reach):
                    err = abs(special._asymptotic_sum(coeffs, -x) - _ml_oracle(a, b, -x))
                    assert err <= top / x ** (terms + 1)
                assert top / reach ** (terms + 1) <= 2.0 ** -52 * abs(_ml_oracle(a, b, -reach))

    def test_array_pass_matches_scalar_calls_across_the_reach(self):
        for a, b in ((0.5, 1.0), (0.7, 0.7), (0.9, 1.9)):
            coeffs, reach = special._asymptotic_plan(a, b)
            z = -np.concatenate([np.linspace(0.5, 2.0 * reach, 301),
                                 [reach, np.nextafter(reach, 0.0)]])
            vals = ml_array(a, b, z)
            assert np.array_equal(vals, [ml(a, b, float(zi)) for zi in z])
            assert vals[-2] == special._asymptotic_sum(coeffs, -reach)

    def test_integral_runs_only_for_rejected_elements(self, monkeypatch):
        # reach 21.2 at (0.7, 0.7): 0.5 and 2 go to the series, 12 and 15
        # to the contour rule, the rest to the expansion; the negative-axis
        # integral serves only orders past 0.999
        z = -np.array([0.5, 2.0, 12.0, 15.0, 50.0, 500.0, 5000.0])
        special._ml_values.cache_clear()
        calls = {"contour": [], "integral": []}

        def recording(name, inner):
            def wrapped(*args):
                calls[name].append(args)
                return inner(*args)
            return wrapped

        monkeypatch.setattr(special, "_ml_contour",
                            recording("contour", special._ml_contour))
        monkeypatch.setattr(special, "_ml_integral_neg",
                            recording("integral", special._ml_integral_neg))
        vals = ml_array(0.7, 0.7, z)
        assert calls == {"contour": [(0.7, 0.7, -12.0), (0.7, 0.7, -15.0)],
                         "integral": []}
        far = special._asymptotic_sum(special._asymptotic_plan(0.7, 0.7)[0], z[4:])
        assert np.array_equal(vals[4:], far)

    def test_rejected_element_keeps_the_older_route(self):
        # at alpha = 0.999 the expansion certifies itself only from |z| ~ 88,
        # and the contour rule takes the band below; past 0.999 neither
        # serves, and the negative-axis integral does
        assert special._asymptotic_plan(0.999, 0.999)[1] > 20.0
        assert ml(0.999, 0.999, -20.0) == special._ml_contour(0.999, 0.999, -20.0)
        assert ml(0.9999, 0.9999, -20.0) == special._ml_integral_neg(0.9999, 0.9999, -20.0)

    def test_orders_past_0_999_never_take_it(self):
        # all coefficients vanish at alpha = 1, where exp stays the route
        for a, b in ((1.0, 1.0), (1.0, 2.0), (1.0, 3.0), (0.9999, 1.0)):
            assert special._asymptotic_plan(a, b) == ((), math.inf)
        assert ml(1.0, 1.0, -50.0) == math.exp(-50.0)


def _band_cases(alphas, per_beta):
    """(alpha, beta, z) for beta in {a, 1, a+1, a+2}, on ``per_beta``
    geometric points from |z| = 0.05 up to the expansion's reach, kept
    where ``ml`` ends in the contour rule (the series rejected)."""
    cases, reached = [], []
    inner = special._ml_contour

    def recording(*args):
        reached.append(args)
        return inner(*args)

    with mock.patch.object(special, "_ml_contour", recording):
        for a in alphas:
            for b in (a, 1.0, a + 1.0, a + 2.0):
                reach = special._asymptotic_plan(a, b)[1]
                for x in np.geomspace(0.05, reach, per_beta, endpoint=False):
                    reached.clear()
                    ml(a, b, -float(x))
                    if reached:
                        cases.append((a, b, -float(x)))
    return cases


class TestContourBand:
    # worst relative error of ``ml`` against the oracle on the full grid:
    # 6.2e-14 up to alpha = 0.9, 4.0e-13 at 0.99 and 1.1e-11 at 0.999,
    # where E at the top of the band is far below the rule's O(1) terms
    @staticmethod
    def _bound(alpha):
        return 1e-13 if alpha <= 0.9 else 5e-12 if alpha <= 0.99 else 3.5e-11

    def _check(self, cases):
        for a, b, z in cases:
            ref = _ml_oracle(a, b, z)
            assert abs(ml(a, b, z) - ref) <= self._bound(a) * abs(ref), (a, b, z)

    def test_oracle_slice(self):
        cases = _band_cases((0.3, 0.999), 16)
        assert len(cases) == 29
        self._check(cases)

    @pytest.mark.slow
    def test_oracle_grid(self):
        cases = _band_cases((0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999), 48)
        assert len(cases) == 320
        self._check(cases)


class TestRouteQuadratures:
    def test_match_direct_evaluation(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.uniform(0.3, 0.95)
            x = rng.uniform(0.1, 30.0)
            first, second = route_quadrature(a, density_rule(a), x)
            assert first == pytest.approx(ml(a, 1.0, -x), abs=1e-7, rel=1e-7)
            assert second == pytest.approx(ml(a, a, -x), abs=1e-7, rel=1e-7)

    def test_kernel_checks_build_each_rule_once(self, monkeypatch):
        # one density rule per order the suite quadratures use
        built = []
        monkeypatch.setattr(verify, "density_rule",
                            lambda a, build=verify.density_rule: built.append(a) or build(a))
        verify.kernel_checks()
        assert sorted(built) == [0.3, 0.5, 0.7, 0.9]
