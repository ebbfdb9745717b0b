"""Property suite of ``verify-kernels`` and its oracles, loaded for that
command only: quadratures of the Wright-type density on fixed
Gauss-Legendre rules, an independent route to the S_alpha and T_alpha
eigenfactors that production evaluates by Mittag-Leffler functions.
"""

import math

import numpy as np

from .errors import DomainError
from .fractional import _as_alpha, convolution_kernel
from .special import gauss_legendre, ml, underflow_cutoff, wright_pdf

_THETA_NODES = 64


def theta_rule(cut: float):
    """Nodes th and weights w with sum w g(th) ~ int_0^cut g(th) dth, by
    Gauss-Legendre in s on [0, 1] at th = cut s^2: th^{1/2} zeta_a is smooth in s."""
    s, w = gauss_legendre(_THETA_NODES)
    return cut * s * s, 2.0 * cut * s * w


def density_rule(alpha):
    """Nodes th and weights w with sum w g(th) ~ int_0^inf g(th) zeta_a(th) dth."""
    a = _as_alpha(alpha)
    # truncating where the density is ~1e-20 keeps the tail error far
    # below the 1e-7 bridge tolerance without deep-tail evaluations
    th, w = theta_rule(underflow_cutoff(a, 45.0))
    return th, w * np.array([wright_pdf(a, t) for t in th])


def route_quadrature(alpha: float, rule, x: float) -> tuple:
    """(E_{a,1}(-x), E_{a,a}(-x)), the S_alpha and T_alpha eigenfactors, as
    int_0^inf zeta_a(th) e^{-x th} dth and a int_0^inf th zeta_a(th) e^{-x th} dth
    on ``rule``, the ``density_rule(alpha)``."""
    th, w = rule
    decay = np.exp(-x * th)
    return float(w @ decay), alpha * float(w @ (th * decay))


def wright_moment(alpha, nu: float) -> float:
    """Moment int_0^inf theta^nu zeta_alpha(theta) dtheta = G(1+nu)/G(1+a*nu)."""
    a = _as_alpha(alpha)
    if nu < 0.0:
        raise DomainError(f"nu must be nonnegative, got {nu}")
    return math.gamma(1.0 + nu) / math.gamma(1.0 + a * nu)


def kernel_checks():
    """(name, measured_error, threshold) rows for the property suite."""
    rows = []
    rules = {a: density_rule(a) for a in (0.3, 0.5, 0.7, 0.9)}
    for a, (_, w) in rules.items():
        rows.append((f"density_normalization_alpha_{a}", abs(w.sum() - 1.0), 1e-6))

    thetas = np.linspace(0.05, 5.0, 50)
    closed = np.exp(-thetas ** 2 / 4.0) / math.sqrt(math.pi)
    got = np.array([wright_pdf(0.5, th) for th in thetas])
    rows.append(("density_half_order_closed_form",
                 float(np.max(np.abs(got - closed))), 1e-8))

    grid = np.linspace(0.01, 20.0, 500)
    worst = 0.0
    for a in (0.3, 0.5, 0.7, 0.9):
        vals = np.array([wright_pdf(a, th) for th in grid])
        worst = max(worst, float(max(0.0, -vals.min())))
    rows.append(("density_nonnegative", worst, 0.0))

    th, w = rules[0.7]
    for nu in (0.5, 1.0, 2.0):
        rows.append((f"density_moment_nu_{nu}",
                     abs(w @ th ** nu - wright_moment(0.7, nu)), 1e-6))

    for a, x in ((0.5, 1.0), (0.7, 2.0)):
        first, second = route_quadrature(a, rules[a], x)
        rows.append((f"bridge_first_kind_alpha_{a}", abs(first - ml(a, 1.0, -x)), 1e-7))
        rows.append((f"bridge_second_kind_alpha_{a}", abs(second - ml(a, a, -x)), 1e-7))

    # singular weights exact on linear integrands
    worst = 0.0
    for a in (0.3, 0.5, 0.8, 1.0):
        n, dt = 64, 1.0 / 64
        s = dt * np.arange(n + 1)
        t = 1.0
        got = convolution_kernel(a, n, dt).row(n) @ (2.0 + 3.0 * s)
        exact = (2.0 * t ** a / a
                 + 3.0 * (t ** (a + 1.0) / a - t ** (a + 1.0) / (a + 1.0)))
        worst = max(worst, abs(got - exact) / abs(exact))
    rows.append(("singular_weights_linear_exactness", worst, 1e-12))

    # Riemann-Liouville integral I^{1/2} 1 at t = 1: the weight row over gamma
    row = convolution_kernel(0.5, 128, 1.0 / 128).row(128)
    half = float(row @ np.ones(129)) / math.gamma(0.5)
    rows.append(("fractional_integral_constant", abs(half - 1.0 / math.gamma(1.5)), 1e-12))

    worst1 = worst2 = 0.0
    for a in (0.5, 0.75, 0.9):
        for x in (0.1, 1.0, 10.0, 100.0):
            worst1 = max(worst1, ml(a, 1.0, -x) - 1.0, -ml(a, 1.0, -x))
            worst2 = max(worst2, ml(a, a, -x) - 1.0 / math.gamma(a))
    rows.append(("ml_first_kind_bound", max(0.0, worst1), 0.0))
    rows.append(("ml_second_kind_bound", max(0.0, worst2), 0.0))
    return rows
