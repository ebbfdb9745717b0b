"""Gamma function via the Lanczos approximation (Stirling's series past 140).

Every gamma evaluation in the library goes through this module so the
accuracy of the approximation is audited in one place.  Largest relative
error of ``gamma`` against mpmath at 40 digits:

* 6.8e-15 on (0, 10] (the test suite holds it to 1e-13 against
  ``math.gamma``);
* growing with x on the Lanczos range (10, 140]: up to 6.6e-14 by
  x = 100 and 8.9e-14 by x = 140;
* 5.9e-16 on (140, 171.6], Stirling's series;
* 8.9e-15 on [-20, 0), for ``rgamma`` too, down to a few ulps from the
  poles (reflection with sin(pi x) reduced by the nearest integer).

``log_gamma`` keeps the Lanczos form at every x > 0.
"""

import math

from .errors import DomainError

_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)
_LN_SQRT_TWO_PI = 0.5 * math.log(2.0 * math.pi)


def _lanczos_series(x):
    s = _LANCZOS_COEFFS[0]
    for k in range(1, len(_LANCZOS_COEFFS)):
        s += _LANCZOS_COEFFS[k] / (x + k)
    return s


def _sin_pi(x: float) -> float:
    """sin(pi x), accurate next to the integers: with n = round(x) the
    remainder r = x - n is exact in doubles and sin(pi x) = (-1)^n sin(pi r)."""
    n = round(x)
    s = math.sin(math.pi * (x - n))
    return -s if n % 2 else s


def gamma(x: float) -> float:
    """Gamma(x) for real non-pole x."""
    if x <= 0.0 and x == math.floor(x):
        raise DomainError(f"gamma pole at x={x}")
    if x < 0.5:
        # reflection: Gamma(x) Gamma(1-x) = pi / sin(pi x)
        return math.pi / (_sin_pi(x) * gamma(1.0 - x))
    if x > 140.0:
        # Stirling's series, its power split to stay finite up to x ~ 171.6;
        # the Lanczos power below overflows from x ~ 142
        p = x ** (0.5 * x - 0.25)
        corr = 1.0 / (12.0 * x) - 1.0 / (360.0 * x ** 3) + 1.0 / (1260.0 * x ** 5)
        return _SQRT_TWO_PI * p * math.exp(-x) * p * math.exp(corr)
    z = x - 1.0
    s = _lanczos_series(z)
    t = z + _LANCZOS_G + 0.5
    return _SQRT_TWO_PI * t ** (z + 0.5) * math.exp(-t) * s


def log_gamma(x: float) -> float:
    """log Gamma(x) for x > 0, safe against overflow of Gamma itself."""
    if x <= 0.0:
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    if x < 0.5:
        return math.log(math.pi / math.sin(math.pi * x)) - log_gamma(1.0 - x)
    z = x - 1.0
    s = _lanczos_series(z)
    t = z + _LANCZOS_G + 0.5
    return _LN_SQRT_TWO_PI + (z + 0.5) * math.log(t) - t + math.log(s)


def rgamma(x: float) -> float:
    """1 / Gamma(x), with the value 0 at the poles x = 0, -1, -2, ..."""
    if x <= 0.0 and x == math.floor(x):
        return 0.0
    if x > 0.0:
        # past x ~ 171.6 Gamma overflows and 1/Gamma is subnormal
        return 1.0 / gamma(x) if x < 171.5 else math.exp(-log_gamma(x))
    # x < 0 non-integer: 1/Gamma(x) = sin(pi x) Gamma(1-x) / pi
    return _sin_pi(x) * gamma(1.0 - x) / math.pi
