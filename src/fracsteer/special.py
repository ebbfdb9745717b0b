"""Wright-type density and two-parameter Mittag-Leffler evaluation.

Two independent routes are maintained on purpose:

* the probability density ``wright_pdf`` (power series, switching to a
  single-integral stable-law representation where the alternating series
  cancels), whose theta-integrals against exp(z*theta) define the
  fractional operator families, and
* ``ml``, the production route for the same operator eigenvalue
  factors, evaluated by power series where that is safe in double
  precision and otherwise by a real integral representation on the
  negative axis.

The test suite ties the two routes together through the Laplace-type
identities  int zeta_a(th) e^{-x th} dth = E_{a,1}(-x)  and
a int th zeta_a(th) e^{-x th} dth = E_{a,a}(-x).
"""

import math
import warnings
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .fractional import _as_alpha
from .gammafn import gamma, log_gamma, rgamma

_SERIES_MAX_TERMS = 500
_EXP_UNDERFLOW = 745.0  # e^-x underflows past this
_SERIES_TAIL_RTOL = 1e-16
# reject a double-precision alternating sum once the largest term exceeds
# the result by this factor; the residual roundoff is about 1e-14 times
# the factor, so these keep ~1e-9 (density) and ~1e-10 (Mittag-Leffler)
_CANCELLATION_LIMIT = 1e6
_ML_CANCELLATION_LIMIT = 1e4
# most negative argument the Mittag-Leffler routes are validated for;
# config parsing rejects models whose eigenfactors would reach past it
ML_NEG_Z_LIMIT = 1e4
# distinct argument tables kept by ml_array; a sweep needs five (E_{a,1}
# and E_{a,a} on the grid, E_{a,a} at the steering times, and the two
# first-step weights), so 16 holds them while bounding memory on a fine
# grid, where each table is (n_steps + 1) x truncation doubles
_ML_TABLES = 16


def _tail_exponent_scale(alpha: float) -> float:
    return (1.0 - alpha) * alpha ** (alpha / (1.0 - alpha))


def underflow_cutoff(alpha: float, exponent: float = 745.0) -> float:
    """Theta at which the density tail e^{-b theta^{1/(1-a)}} reaches
    e^{-exponent}; the default marks double-precision underflow.

    Uses the stretched-exponential decay exponent
    (1-a) a^{a/(1-a)} theta^{1/(1-a)} of the density tail.
    """
    if alpha >= 1.0:
        return math.inf
    return (exponent / _tail_exponent_scale(alpha)) ** (1.0 - alpha)


def _wright_series_double(alpha: float, theta: float):
    """Power-series sum and its largest term magnitude, in doubles."""
    ln_theta = math.log(theta)
    pref = 1.0 / (alpha * math.pi)
    terms = []
    running = 0.0
    comp = 0.0  # Kahan compensation for the running estimate
    max_abs = 0.0
    small_streak = 0
    for n in range(1, _SERIES_MAX_TERMS + 1):
        s = math.sin(math.pi * math.fmod(n * alpha, 2.0))
        ln_t = log_gamma(n * alpha + 1.0) - log_gamma(n + 1.0) + (n - 1) * ln_theta
        if ln_t > 700.0:
            # term overflows double range; cancellation is total
            return None, math.inf
        mag = math.exp(ln_t)
        term = pref * (-1.0) ** (n - 1) * mag * s
        terms.append(term)
        y = term - comp
        t = running + y
        comp = (t - running) - y
        running = t
        max_abs = max(max_abs, abs(term))
        if abs(term) < _SERIES_TAIL_RTOL * max(abs(running), 1e-300):
            small_streak += 1
            if small_streak >= 2:
                return math.fsum(terms), max_abs
        else:
            small_streak = 0
    # term cap reached: the caller falls back to _wright_integral
    return None, math.inf


@lru_cache(maxsize=1 << 18)
def _wright_integral(alpha: float, theta: float) -> float:
    """Density via the single-integral (stable-law) representation.

    zeta_a(th) = th^{a/(1-a)}/((1-a) pi) *
                 int_0^pi A(u) exp(-th^{1/(1-a)} A(u)) du,
    A(u) = sin(a u)^{a/(1-a)} sin((1-a) u) / sin(u)^{1/(1-a)}.

    A(0+) equals the tail exponent scale b, A(pi-) diverges, and the
    integrand is smooth and positive; this is the production route where
    the alternating power series cancels.  (At alpha = 1/2 the integral
    collapses to the Gaussian closed form, which the tests verify.)
    """
    one = 1.0 - alpha
    ratio = alpha / one
    x = theta ** (1.0 / one)

    def f(u):
        if u <= 0.0:
            ln_a = math.log(_tail_exponent_scale(alpha))
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


def wright_pdf(alpha, theta: float) -> float:
    """Density zeta_alpha(theta) on (0, infinity); exactly 0 past the
    double-precision underflow threshold of the stretched-exponential tail."""
    a = _as_alpha(alpha)
    if a >= 1.0:
        raise DomainError("the density degenerates to a point mass at alpha=1")
    if theta <= 0.0:
        raise DomainError(f"theta must be positive, got {theta}")
    if theta >= underflow_cutoff(a):
        return 0.0
    value, max_abs = _wright_series_double(a, theta)
    if value is not None and max_abs <= _CANCELLATION_LIMIT * max(abs(value), 1e-300):
        return value
    return _wright_integral(a, theta)


def wright_moment(alpha, nu: float) -> float:
    """Moment int_0^inf theta^nu zeta_alpha(theta) dtheta = G(1+nu)/G(1+a*nu)."""
    a = _as_alpha(alpha)
    if nu < 0.0:
        raise DomainError(f"nu must be nonnegative, got {nu}")
    return gamma(1.0 + nu) / gamma(1.0 + a * nu)


def _ml_series_double(alpha: float, beta: float, z: float):
    terms = [rgamma(beta)]
    running = terms[0]
    max_abs = abs(terms[0])
    ln_az = math.log(abs(z))
    for k in range(1, _SERIES_MAX_TERMS + 1):
        ln_t = k * ln_az - log_gamma(alpha * k + beta)
        if ln_t > 700.0:
            return None, math.inf
        mag = math.exp(ln_t)
        term = mag * (-1.0) ** k
        terms.append(term)
        running += term
        max_abs = max(max_abs, mag)
        if mag < _SERIES_TAIL_RTOL * max(abs(running), 1e-300) and k >= 3:
            return math.fsum(terms), max_abs
    # term cap reached: signal the caller to use the integral route
    return None, math.inf


@lru_cache(maxsize=1 << 18)
def _ml_integral_neg(alpha: float, beta: float, z: float) -> float:
    """E_{alpha,beta}(z) for z < 0, 0 < alpha < 1, beta < 1 + alpha.

    Real integral representation (Hankel contour collapsed onto the
    negative axis; for beta >= 1 + alpha the collapsing circle leaves a
    residue and the formula no longer holds, so callers reduce that case
    first).  The algebraic w^(alpha-beta) endpoint factor is handled by
    a weighted quadrature on [0, 1].
    """
    s1 = math.sin(math.pi * (1.0 - beta))
    s2 = 0.0 if beta == 1.0 + alpha else math.sin(math.pi * (1.0 - beta + alpha))
    c = math.cos(math.pi * alpha)

    if s2 == 0.0:
        # the z*s2 term drops and a factor w^alpha moves into the weight
        exponent = 2.0 * alpha - beta

        def smooth(w):
            if w > _EXP_UNDERFLOW:
                return 0.0
            wa = w ** alpha
            return math.exp(-w) * s1 / (math.pi * (wa * wa - 2.0 * z * wa * c + z * z))
    else:
        exponent = alpha - beta

        def smooth(w):
            if w > _EXP_UNDERFLOW:
                return 0.0
            wa = w ** alpha
            return (math.exp(-w) * (wa * s1 - z * s2)
                    / (math.pi * (wa * wa - 2.0 * z * wa * c + z * z)))

    def full(w):
        return smooth(w) * w ** exponent

    # the 1/(w^2a - 2 z w^a cos(pi a) + z^2) factor dips near |z|^{1/a}
    wdip = abs(z) ** (1.0 / alpha)
    pts = [wdip] if 1.0 < wdip < _EXP_UNDERFLOW else None
    from scipy.integrate import quad

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if abs(exponent) < 1e-13:
            head, _ = quad(full, 0.0, 1.0, epsabs=1e-14, epsrel=1e-12, limit=200)
        else:
            head, _ = quad(smooth, 0.0, 1.0, weight="alg", wvar=(exponent, 0.0),
                           epsabs=1e-14, epsrel=1e-12, limit=200)
        tail, _ = quad(full, 1.0, _EXP_UNDERFLOW, points=pts,
                       epsabs=1e-14, epsrel=1e-12, limit=200)
    return head + tail


def ml(alpha: float, beta: float, z: float) -> float:
    """Two-parameter Mittag-Leffler function E_{alpha,beta}(z).

    Supported for 0 < alpha <= 1, beta > 0 and -ML_NEG_Z_LIMIT <= z <= 0.
    """
    alpha, beta, z = float(alpha), float(beta), float(z)
    if not (0.0 < alpha <= 1.0):
        raise DomainError(f"alpha must lie in (0, 1], got {alpha}")
    if beta <= 0.0:
        raise DomainError(f"beta must be positive, got {beta}")
    if z > 0.0 or z < -ML_NEG_Z_LIMIT:
        raise DomainError(
            f"z={z} outside the supported range [{-ML_NEG_Z_LIMIT:g}, 0]")
    if z == 0.0:
        return rgamma(beta)
    if alpha == 1.0 and beta == 1.0:
        return math.exp(z)
    if abs(z) <= 10.0:
        attempt, max_abs = _ml_series_double(alpha, beta, z)
        if attempt is not None and max_abs <= _ML_CANCELLATION_LIMIT * max(abs(attempt), 1e-300):
            return attempt
    if beta >= 1.0 + alpha - 1e-12:
        # outside the integral's validity; reduce the second parameter
        # with E_{a,b}(z) = (E_{a,b-a}(z) - 1/Gamma(b-a)) / z, which at
        # alpha = 1 ends in the exp shortcut for every integer beta
        lower = ml(alpha, beta - alpha, z)
        return (lower - rgamma(beta - alpha)) / z
    if alpha == 1.0:
        # the integral representation needs alpha < 1
        raise DomainError(
            f"series evaluation unreliable for alpha={alpha}, beta={beta}, z={z}")
    return _ml_integral_neg(alpha, beta, z)


def ml_array(alpha: float, beta: float, z) -> np.ndarray:
    """E_{alpha,beta} at every element of ``z``, in an array of z's shape.

    The result is read-only and memoized by value: a call with the same
    (alpha, beta) and the same argument bytes returns the stored table
    without evaluating ``ml`` again.
    """
    zf = np.asarray(z, dtype=float)
    return _ml_values(float(alpha), float(beta), zf.tobytes()).reshape(zf.shape)


@lru_cache(maxsize=_ML_TABLES)
def _ml_values(alpha: float, beta: float, zbytes: bytes) -> np.ndarray:
    """Flat read-only table of ``ml`` over the doubles packed in ``zbytes``."""
    flat = np.frombuffer(zbytes, dtype=float)
    out = np.empty(flat.size)
    for i, zi in enumerate(flat):
        out[i] = ml(alpha, beta, float(zi))
    out.flags.writeable = False
    return out


def _route_quadrature(alpha: float, x: float, power: int) -> float:
    """a^power int_0^inf th^power zeta_a(th) e^{-x th} dth."""
    a = _as_alpha(alpha)
    # truncating where the density is ~1e-20 keeps the tail error far
    # below the 1e-7 bridge tolerance without deep-tail evaluations
    limit = underflow_cutoff(a, 45.0)

    def f(th):
        return th ** power * wright_pdf(a, th) * math.exp(-x * th)

    from scipy.integrate import quad

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        v, _ = quad(f, 0.0, limit, epsabs=1e-11, epsrel=1e-11, limit=400)
    return a ** power * v


def s_alpha_route_quadrature(alpha: float, x: float) -> float:
    """Oracle: int_0^inf zeta_a(th) e^{-x th} dth, the S_alpha eigenfactor."""
    return _route_quadrature(alpha, x, 0)


def t_alpha_route_quadrature(alpha: float, x: float) -> float:
    """Oracle: a int_0^inf th zeta_a(th) e^{-x th} dth, the T_alpha eigenfactor."""
    return _route_quadrature(alpha, x, 1)
