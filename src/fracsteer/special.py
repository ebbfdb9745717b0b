"""Wright-type density and two-parameter Mittag-Leffler evaluation.

Two independent routes are maintained on purpose:

* the probability density ``wright_pdf`` (power series, switching to a
  single-integral stable-law representation on a fixed Gauss-Legendre
  rule where the alternating series cancels), whose theta-integrals
  against exp(z*theta) define the fractional operator families, and
* ``ml``, the production route for the same factors on all of z <= 0,
  by the large-|z| expansion where its truncation error is certified
  below double rounding, by power series where that is safe in double
  precision, and otherwise by a trapezoid rule on a parabolic Hankel
  contour (orders up to 0.999) or, for 0.999 < alpha < 1, by a panel
  rule on the real integral along the negative axis; all in numpy.

The density is an oracle only: ``fracsteer.verify`` ties the two routes
together through  int zeta_a(th) e^{-x th} dth = E_{a,1}(-x)  and
a int th zeta_a(th) e^{-x th} dth = E_{a,a}(-x).
"""

import math
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .fractional import _as_alpha
from .gammafn import log_gamma, rgamma

_SERIES_MAX_TERMS = 500
# Gauss-Legendre nodes of the stable-law integral over [0, pi] (192 miss
# the series by 1.6e-8 at alpha = 0.8)
_DENSITY_NODES = 256
_EXP_UNDERFLOW = 745.0  # e^-x underflows past this
_PANEL_NODES = 64  # Gauss-Legendre nodes per panel of the negative-axis integral
_NEWTON_PASSES = 10  # cap on gauss_legendre's Newton loop; n <= 1000 needs at most 6
_SERIES_TAIL_RTOL = 1e-16
# reject a double-precision alternating sum once the largest term exceeds
# the result by this factor; the residual roundoff is about 1e-14 times
# the factor, so these keep ~1e-9 (density) and ~1e-10 (Mittag-Leffler)
_CANCELLATION_LIMIT = 1e6
_ML_CANCELLATION_LIMIT = 1e4
# terms K of the large-|z| expansion, and the largest order it and the
# contour rule serve: closer to alpha = 1 the rounding of beta - alpha k,
# next to a pole of Gamma, shows in the coefficients, and the contour's
# O(1) terms cancel down to a value near e^{-|z|}
_ASYMPTOTIC_TERMS = 24
_ASYMPTOTIC_MAX_ALPHA = 0.999
# the beta >= 1 + alpha reduction steps beta down by alpha, each level
# with a series attempt; ml gives up past this many levels.  ModelSpec
# rejects orders below ML_MIN_ALPHA, where the deepest weight the solver
# needs, beta = alpha + 2, takes about 1 / alpha levels
_ML_MAX_LEVELS = 4096
ML_MIN_ALPHA = 5e-4
# parabolic contour s(u) = mu (1 + iu)^2 of Garrappa's trapezoid rule
# (SIAM J. Numer. Anal. 53(3), 2015), at u = kh for |k| <= 27: for z < 0
# and alpha < 1 no pole of s^(alpha - beta) / (s^alpha - z) lies on the
# principal sheet, so one node set serves every argument of the band
_CONTOUR_MU = 1.5
_CONTOUR_H = 0.181
_CONTOUR_U = _CONTOUR_H * np.arange(-27, 28)
_CONTOUR_S = _CONTOUR_MU * (1.0 + 1j * _CONTOUR_U) ** 2
_CONTOUR_W = ((_CONTOUR_H * _CONTOUR_MU / math.pi) * np.exp(_CONTOUR_S)
              * (1.0 + 1j * _CONTOUR_U))
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


@lru_cache(maxsize=None)
def gauss_legendre(n: int):
    """Gauss-Legendre nodes and weights of order n on [0, 1], built once;
    the arrays are shared by every caller, so they are read-only.

    Newton's method on the three-term recurrence of P_n, from Tricomi's
    guesses cos(pi (k + 3/4) / (n + 1/2)), for the nodes x >= 0 of
    [-1, 1] only; the rule is their mirror image, so it is exactly
    symmetric.  The weights are 2 / ((1 - x^2) P_n'(x)^2) at the final
    nodes (Hale & Townsend, SIAM J. Sci. Comput. 35(2), 2013).  Plain
    numpy, no LAPACK call.  Against a 40-digit oracle the node error is
    below 1e-16 and the weight error 9.3e-14, 6.9e-13 and 1.9e-12
    relative at n = 64, 256 and 400.  Each pass of the loop evaluates
    the recurrence once and stops once no node moves by 1e-16.
    """
    odd = n % 2
    x = np.cos(math.pi * (np.arange(n // 2 + odd) + 0.75) / (n + 0.5))
    for _ in range(_NEWTON_PASSES):
        p0, p1 = np.ones_like(x), x  # P_{j-1}(x), P_j(x)
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        dp = n * (p0 - x * p1) / (1.0 - x * x)  # P_n'(x)
        step = p1 / dp
        if np.max(np.abs(step)) < 1e-16:
            break
        x = x - step
    if odd:
        x[-1] = 0.0  # the middle node
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    s = 0.5 * (np.concatenate([-x, x[::-1][odd:]]) + 1.0)
    w = 0.5 * np.concatenate([w, w[::-1][odd:]])
    s.flags.writeable = w.flags.writeable = False
    return s, w


def _wright_integral(alpha: float, theta: float) -> float:
    """Density via the single-integral (stable-law) representation.

    zeta_a(th) = th^{a/(1-a)}/((1-a) pi) *
                 int_0^pi A(u) exp(-th^{1/(1-a)} A(u)) du,
    A(u) = sin(a u)^{a/(1-a)} sin((1-a) u) / sin(u)^{1/(1-a)}.

    A(0+) equals the tail exponent scale b, A(pi-) diverges, and the
    integrand is smooth and positive; this is the production route where
    the alternating power series cancels.  A fixed Gauss-Legendre rule sums
    it in logarithms, as th^{a/(1-a)} and A(u) overflow near alpha = 1.
    (At alpha = 1/2 it collapses to the Gaussian closed form, see tests.)
    """
    one = 1.0 - alpha
    ratio = alpha / one
    s, w = gauss_legendre(_DENSITY_NODES)
    u = math.pi * s
    ln_a = (ratio * np.log(np.sin(alpha * u)) + np.log(np.sin(one * u))
            - np.log(np.sin(u)) / one)
    ln_theta = math.log(theta)
    with np.errstate(over="ignore"):
        f = np.exp(ratio * ln_theta + ln_a - np.exp(ln_a + ln_theta / one))
    return float(w @ f) / one


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


def _sin_pi(x: float) -> float:
    """sin(pi x), accurate next to the integers: with n = round(x) the
    remainder r = x - n is exact in doubles and sin(pi x) = (-1)^n sin(pi r)."""
    n = round(x)
    s = math.sin(math.pi * (x - n))
    return -s if n % 2 else s


@lru_cache(maxsize=1 << 18)
def _ml_integral_neg(alpha: float, beta: float, z: float) -> float:
    """E_{alpha,beta}(z) for z < 0, 0 < alpha < 1, beta < 1 + alpha.

    Real integral representation (Hankel contour collapsed onto the
    negative axis; for beta >= 1 + alpha the collapsing circle leaves a
    residue and the formula no longer holds, so callers reduce that case
    first).  With x = -z, v = w^a / x, c = cos pi(1-a) and s = sin pi(1-a),
      E = (1/(pi x)) int_0^inf e^-w w^(a-b) (v sin pi b + sin pi(b-a))
          / ((v - c)^2 + s^2) dw,
    the denominator scaled by x^2 to stay finite for every double x, and
    not to cancel in its dip near w_d = x^(1/a), of width about
    w_d pi (1-a).  w = u^p, p = 1/(a-b+1),
    absorbs the w^(a-b) factor; 64 Gauss-Legendre nodes in u run on each
    panel between breakpoints in w: geometric, in steps of at most 16 in
    w and u, from w^a ~ 16^-14 to the underflow of e^-w, and graded by
    powers of 2 on the dip's width to both sides of w_d.  The nodes are
    placed in w through log1p and expm1, so they stay accurate when u
    crowds toward 1 at large p.  Against 40-digit oracles the relative error
    is below 1e-12 for 0.999 < a < 1, b = a, 1, 2 - a and 2 <= x <= 1e4,
    and below 1e-15 past it wherever E is a normal double.
    """
    x, p = -z, 1.0 / (alpha - beta + 1.0)
    c, s = math.cos(math.pi * (1.0 - alpha)), math.sin(math.pi * (1.0 - alpha))
    wd = math.exp(min(math.log(x) / alpha, 7.0))  # a dip past e^7 > 745 is cut off
    grade = wd * math.pi * (1.0 - alpha) * 2.0 ** np.arange(64)
    m = min(1.0, p)
    pts = np.concatenate([16.0 ** (m * np.arange(-14.0 / (alpha * m), 3.0 / m)),
                          wd + grade[grade < wd], wd - grade[grade < wd / 2]])
    pts = np.unique(np.append(pts[pts < _EXP_UNDERFLOW], (0.0, _EXP_UNDERFLOW)))
    lo, hi = pts[:-1, None], pts[1:, None]
    nodes, weights = gauss_legendre(_PANEL_NODES)
    with np.errstate(divide="ignore"):
        shrink = -np.expm1(np.log(lo / hi) / p)  # 1 - u_lo / u_hi
    w = hi * np.exp(p * np.log1p(-shrink * nodes))
    v = w ** alpha / x
    f = (np.exp(-w) * (v * _sin_pi(beta) + _sin_pi(beta - alpha))
         / ((v - c) ** 2 + s * s))
    return p * float(np.sum(hi ** (1.0 / p) * shrink * weights * f)) / math.pi / x


def _ml_contour(alpha: float, beta: float, z: float) -> float:
    """E_{alpha,beta}(z) for z < 0, 0 < alpha < 1, beta < 1 + alpha.

    Trapezoid rule on the parabolic Hankel contour s(u) = mu (1 + iu)^2:
    E = (1 / 2 pi i) int e^s s^(alpha - beta) / (s^alpha - z) ds
      ~ (h mu / pi) Re sum_k e^s s^(alpha - beta) (1 + iu) / (s^alpha - z).
    For beta >= 1 + alpha the terms decay too slowly in the fixed nodes,
    so callers reduce that case first.
    """
    s = _CONTOUR_S
    return float(np.sum(_CONTOUR_W * s ** (alpha - beta) / (s ** alpha - z)).real)


@lru_cache(maxsize=64)
def _asymptotic_plan(alpha: float, beta: float):
    """Coefficients (c_K, ..., c_1), c_k = 1/Gamma(beta - alpha k), of the
    expansion E_{a,b}(z) ~ -sum_{k=1}^{K} c_k z^{-k} (Podlubny 1999, Thm
    1.4), and its reach: the |z| from which the truncation error is certified
    below 2^-53 relative, or inf where the expansion is not used.

    Expanding 1/(x + w^a e^{-i pi a}) in the negative-axis integral of
    ``_ml_integral_neg`` (z = -x) geometrically gives the sum and an exact
    remainder, |R_K| <= Gamma(1 - b + a (K+1)) / (pi s x^{K+1}), where
    s = 1 for a <= 1/2 and sin(pi a) past it; the beta recurrence carries
    the bound to every beta with 1 - b + a (K+1) > 0.  The factor 1/s
    grows as alpha -> 1, where the part the expansion misses decays only
    like e^{-x^{1/a}}, so the bound covers that part too.  With c_m the
    first nonzero coefficient, the reach is the smallest x with
        |R_K| <= 2^-53 (|c_m| x^-m - sum_{m<k<=K} |c_k| x^-k - |R_K|),
    whose right side is a lower bound of |E|.  Times x^m, the left side
    and the subtracted terms shrink with x, so every larger x passes too.
    """
    terms = _ASYMPTOTIC_TERMS
    top = 1.0 - beta + alpha * (terms + 1)
    if not (0.0 < alpha <= _ASYMPTOTIC_MAX_ALPHA and beta > 0.0 and top > 0.0):
        return (), math.inf
    coeffs = [rgamma(beta - alpha * k) for k in range(1, terms + 1)]
    first = next(k for k, c in enumerate(coeffs) if c != 0.0)
    scale = 1.0 if alpha <= 0.5 else math.sin(math.pi * alpha)
    bound = math.gamma(top) / (math.pi * scale)
    eps = 2.0 ** -53

    def certified(x):
        t = 1.0 / x
        rest = sum(abs(c) * t ** (k + 1) for k, c in enumerate(coeffs) if k > first)
        tail = bound * t ** (terms + 1)
        return (1.0 + eps) * tail + eps * rest <= eps * abs(coeffs[first]) * t ** (first + 1)

    # certified holds at the latest where every power of 1/x underflows
    hi = next(2.0 ** j for j in range(1024) if certified(2.0 ** j))
    lo = hi / 2.0
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if certified(mid) else (mid, hi)
    return tuple(reversed(coeffs)), hi


def _asymptotic_sum(coeffs, z):
    """-sum_k c_k z^{-k} by Horner's rule in w = 1/z, for a float or an
    array: only + and * on w, which round the same way in both."""
    w = 1.0 / z
    acc = coeffs[0]
    for c in coeffs[1:]:
        acc = acc * w + c
    return -acc * w


def ml(alpha: float, beta: float, z: float) -> float:
    """Two-parameter Mittag-Leffler function E_{alpha,beta}(z).

    Supported for 0 < alpha <= 1, beta > 0 and every finite z <= 0.
    Routes, in order: 1/Gamma(beta) at z = 0; exp at alpha = beta = 1;
    the large-|z| expansion from its reach; the power series for
    |z| <= 10 where it does not cancel; the reduction of beta >= 1 + alpha
    (a DomainError past _ML_MAX_LEVELS levels);
    then the contour rule for alpha <= 0.999 and the negative-axis
    integral for 0.999 < alpha < 1.
    """
    alpha, beta, z = float(alpha), float(beta), float(z)
    if not (0.0 < alpha <= 1.0):
        raise DomainError(f"alpha must lie in (0, 1], got {alpha}")
    if beta <= 0.0:
        raise DomainError(f"beta must be positive, got {beta}")
    if not -math.inf < z <= 0.0:
        raise DomainError(f"z={z} outside the supported range (-inf, 0]")
    if z == 0.0:
        return rgamma(beta)
    # where no route takes beta >= 1 + alpha, reduce the second parameter
    # with E_{a,b}(z) = (E_{a,b-a}(z) - 1/Gamma(b-a)) / z, which at alpha = 1
    # ends in the exp shortcut for every integer beta; a loop, since small
    # alpha takes about 1/alpha steps
    reduced = []
    value = _ml_route(alpha, beta, z)
    while value is None:
        if len(reduced) == _ML_MAX_LEVELS:
            raise DomainError(f"reducing beta={reduced[0]} by alpha={alpha} "
                              f"takes more than {_ML_MAX_LEVELS} levels")
        reduced.append(beta)
        beta = beta - alpha
        value = _ml_route(alpha, beta, z)
    for b in reversed(reduced):
        value = (value - rgamma(b - alpha)) / z
    return value


def _ml_route(alpha: float, beta: float, z: float):
    """E_{alpha,beta}(z) for z < 0 by the first route that takes it, or
    None where beta >= 1 + alpha must be reduced first."""
    if alpha == 1.0 and beta == 1.0:
        return math.exp(z)
    coeffs, reach = _asymptotic_plan(alpha, beta)
    if -z >= reach:
        return _asymptotic_sum(coeffs, z)
    if abs(z) <= 10.0:
        attempt, max_abs = _ml_series_double(alpha, beta, z)
        if attempt is not None and max_abs <= _ML_CANCELLATION_LIMIT * max(abs(attempt), 1e-300):
            return attempt
    if beta >= 1.0 + alpha - 1e-12:
        return None  # outside the integral's validity
    if alpha == 1.0:
        # both representations below need alpha < 1
        raise DomainError(
            f"series evaluation unreliable for alpha={alpha}, beta={beta}, z={z}")
    if alpha <= _ASYMPTOTIC_MAX_ALPHA:
        return _ml_contour(alpha, beta, z)
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
    """Flat read-only table of ``ml`` over the doubles packed in ``zbytes``.

    Elements within the reach of the large-|z| expansion are summed in one
    array pass, with the arithmetic ``ml`` uses on them; ``ml`` evaluates
    the rest one at a time (and raises on any argument it rejects).
    """
    flat = np.frombuffer(zbytes, dtype=float)
    out = np.empty(flat.size)
    coeffs, reach = _asymptotic_plan(alpha, beta)
    far = -flat >= reach
    if far.any():
        out[far] = _asymptotic_sum(coeffs, flat[far])
    for i in np.flatnonzero(~far):
        out[i] = ml(alpha, beta, float(flat[i]))
    out.flags.writeable = False
    return out
